"""Frozen records: what `@dataclass(frozen=True)` gave, without the start-up
cost of importing `dataclasses` (with `inspect`, `ast`, `dis`, `tokenize`)."""

from operator import attrgetter


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    values = self.__class__._values
    return values(self) == values(other)


def _hash(self):
    return hash(self.__class__._values(self))


def _repr(self):
    args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{self.__class__.__qualname__}({args})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls):
    """Make cls an immutable value over its annotated fields, in order: a
    class attribute gives a field its default and `__post_init__` runs last.
    A `__repr__` the class defines is kept."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = "".join(f", {n}=_d[{n!r}]" if n in cls.__dict__ else f", {n}" for n in names)
    # object.__setattr__, as dataclasses do: filling self.__dict__ directly
    # would build a dict per instance, larger and slower to read fields from.
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    ns = {"_d": cls.__dict__, "_set": object.__setattr__}
    exec(f"def __init__(self{params}):{body}", ns)
    cls.__init__, cls.__match_args__ = ns["__init__"], names
    # The field tuple, as dataclasses hash it (one name alone gives no tuple).
    cls._values = attrgetter(*names) if len(names) > 1 else lambda s: (getattr(s, *names),)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, cls.__dict__.get("__repr__", _repr)
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
