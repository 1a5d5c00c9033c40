"""Span recording for the traced run.

A span is recorded around each call into a layer: name `<module>.<function>`,
start, end, parent span and workload run id, plus tags that say which mode a
diffusion path ran in.  The benchmark's own operations are root spans named
`op:<operation>`, so a layer call can be charged to the operation it served.  Spans stay in memory until the run
writes them out.  The library is not edited: `instrument` swaps the public
functions listed in LAYER_CALLS for recording wrappers in every hyptiling
module that holds them, and puts the originals back afterwards.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float = 0.0
    parent: int = None
    run_id: str = ""
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.ident,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
            "tags": self.tags,
        }


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.run_id = ""
        self._clock = clock
        self._stack = []
        self._paused = 0

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        if self._paused:
            yield None
            return
        record = Span(
            ident=len(self.spans),
            name=name,
            start=self._clock(),
            parent=self._stack[-1].ident if self._stack else None,
            run_id=self.run_id,
            tags=tags,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, func, name: str, tagger=None):
        def traced(*args, **kwargs):
            tags = tagger(*args, **kwargs) if tagger else {}
            with self.span(name, **tags):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its child spans cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; the time they cover is the sum of their durations.
    """
    own = {s.ident: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def span_metrics(layers, spans, run_ids) -> dict:
    """Per-layer metrics from the spans of the traced passes `run_ids`.

    Each layer is (metric, span names, operations, tag filter, kind).  A
    span counts when its name is one of the span names, its tags match the
    filter, and the benchmark operation it ran under (its `op:<name>` root
    span) starts with one of the operation prefixes; None allows any.  Kind
    "path" is the median self time of one matching call, in ms; kind "pass"
    the self time of matching calls summed over a pass, in s, as the median
    over the traced passes.
    """
    own = self_times(spans)
    root = {}
    for s in spans:  # parents start, and so are listed, before children
        root[s.ident] = root[s.parent] if s.parent is not None else s.name
    out = {}
    for metric, names, ops, tags, kind in layers:
        names = (names,) if isinstance(names, str) else names
        hits = [s for s in spans if s.name in names
                and (ops is None or root[s.ident].startswith(ops))
                and all(s.tags.get(k) == v for k, v in tags.items())]
        if kind == "path":
            out[metric] = (statistics.median(own[s.ident] for s in hits) * 1e3
                           if hits else 0.0)
        else:
            out[metric] = statistics.median(
                sum(own[s.ident] for s in hits if s.run_id == run)
                for run in run_ids
            )
    return out


# ---------------------------------------------------------------------------
# Layer calls


def _path_tags(config, start=None, path_index=0, mode=None):
    return {"mode": mode, "steps": config.n_steps}


# (module, attribute, tagger); an attribute "Class.method" patches a method.
LAYER_CALLS = (
    ("diffusion", "simulate_path", _path_tags),
    ("diffusion", "height_law_test", None),
    ("diffusion", "garnett_compare", None),
    ("diffusion", "PathResult.block_steps", None),
    ("diffusion", "PathResult.letter_steps", None),
    ("symbolic", "window", None),
    ("symbolic", "AtlasWord.word", None),
    ("symbolic", "block_type_counts", None),
    ("measures", "compose_range", None),
    ("measures", "ergodic_measure_count", None),
    ("measures", "contraction_certificate", None),
    ("measures", "nested_simplex", None),
    ("measures", "hull_contains", None),
    ("measures", "measure_frequencies", None),
    ("geometry", "occurrence_classes", None),
    ("geometry", "patch_partition_check", None),
    ("harmonic", "boundary_recover", None),
    ("harmonic", "transport_scaling_check", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the LAYER_CALLS through recording wrappers while inside."""
    restore = []
    try:
        for module_name, attr, tagger in LAYER_CALLS:
            home = sys.modules[f"hyptiling.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                restore.append((owner, method, original))
                setattr(owner, method,
                        tracer.wrap(original, f"{module_name}.{attr}", tagger))
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(original, f"{module_name}.{attr}", tagger)
            # Rebind the name wherever a hyptiling module imported it, so
            # calls between layers are recorded too.
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "hyptiling" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
