"""The public surface: one name per job."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import hyptiling
from hyptiling.diffusion import LeafState, PathResult, _noise
from hyptiling.geometry import AffineMap, OccurrenceClass, Patch, TileAddress
from hyptiling.harmonic import BoundaryAtoms, TransportCheck
from hyptiling.measures import TransitionMatrix
from hyptiling.symbolic import AtlasWord, SubstitutionModel, ToeplitzModel

# Names that only repeated a job another public name does, and names only
# tests called (their reference routines live in tests/oracles.py).
DELETED = ("letter_counts", "limit_frequencies", "Occurrence",
           "enumerate_occurrences", "occurrence_table_json", "cylinder_mass",
           "hilbert_distance", "hilbert_distance_segment", "block_decompose",
           "substitution_image", "word_from_str", "AlignmentError",
           "AnchoredTiling", "agreement_radius", "hull_distance",
           "suspension_project", "doubling_map", "shift_map",
           "herglotz_evaluator", "ToeplitzSpec", "SubstitutionRule",
           "rule_112_122", "as_model", "SimplexVertices", "identity_map",
           "alpha", "AtlasLevel", "default_start")


def test_every_listed_name_resolves():
    for name in hyptiling.__all__:
        assert hasattr(hyptiling, name), name


def test_no_name_is_listed_twice():
    assert len(set(hyptiling.__all__)) == len(hyptiling.__all__)


def test_deleted_names_are_not_listed():
    modules = (hyptiling.harmonic, hyptiling.measures, hyptiling.symbolic,
               hyptiling.geometry, hyptiling.exact, hyptiling.errors,
               hyptiling.diffusion)
    for name in DELETED:
        assert name not in hyptiling.__all__
        assert not any(hasattr(m, name) for m in (hyptiling, *modules))


def test_deleted_methods_and_fields_are_gone():
    assert not hasattr(ToeplitzModel, "letter_step")
    assert not hasattr(ToeplitzModel, "block_letter_step")
    assert not hasattr(SubstitutionModel, "rule")
    assert SubstitutionModel.__match_args__ == ("images",)
    for name in ("letter", "period", "_check_letter"):
        assert not hasattr(ToeplitzModel, name), name
    assert not hasattr(SubstitutionModel, "letter")
    assert AtlasWord.__match_args__ == ("model", "q", "length")
    assert not hasattr(TransportCheck, "to_json")
    assert not hasattr(TransitionMatrix, "entry")
    assert not hasattr(TransitionMatrix, "column")
    assert "track_position" not in hyptiling.DiffusionConfig.__match_args__
    for name in ("apply", "compose", "__matmul__", "inverse", "power"):
        assert not hasattr(AffineMap, name), name
    assert not hasattr(TileAddress, "map_from_prototile")
    assert not hasattr(TileAddress, "vertices")
    for name in ("tile_count", "tiles", "region", "depth"):
        assert not hasattr(Patch, name), name
    assert not hasattr(OccurrenceClass, "placement_map")
    assert not hasattr(LeafState, "from_point")
    assert not hasattr(LeafState, "point")
    assert LeafState.__match_args__ == ("u", "row")
    assert not {"col_final", "x_frac_final"} & set(PathResult.__match_args__)
    assert "stream" not in inspect.signature(_noise).parameters
    assert not hasattr(BoundaryAtoms, "total_mass")
    assert not hasattr(AtlasWord, "letter_at")
    for name in ("log_fraction", "log2_fraction", "floor_log2_fraction",
                 "ExactLike"):
        assert not hasattr(hyptiling.exact, name)


def test_knobs_only_tests_turned_are_constants():
    """Parameters that no command, check or benchmark sets to a second value
    are module constants, the two functions that could recompute their input
    take it from the caller, and `verify` runs one fixed set of ranges."""
    from hyptiling import (cli, diffusion, errors, harmonic, measures, render,
                           verification)

    removed = {
        hyptiling.compose_range: ("bit_budget",),
        hyptiling.nested_simplex: ("bit_budget",),
        hyptiling.ergodic_measure_count: ("bit_budget", "base_level"),
        hyptiling.occurrence_classes: ("max_classes",),
        hyptiling.boundary_recover: ("rel_tol",),
        hyptiling.render_svg: ("palette",),
        hyptiling.garnett_compare: ("scheme",),
        verification.check_height_law: ("seed",),
        verification.check_mode_agreement: ("seed",),
    }
    for func, names in removed.items():
        assert not set(names) & set(inspect.signature(func).parameters), func
    for func in (verification.run_all, verification.check_counting_equivalence,
                 verification.check_mass_conservation,
                 verification.check_nesting):
        assert not inspect.signature(func).parameters, func
    for func, name in ((hyptiling.garnett_compare, "results"),
                       (hyptiling.measure_frequencies, "stabilization")):
        param = inspect.signature(func).parameters[name]
        assert param.default is inspect.Parameter.empty, func
    assert (errors.cap("entry_bits"), errors.cap("classes"), harmonic.REL_TOL,
            verification._SEED) == (10**6, 2**20, 1e-8, 2024)
    for module, name in ((cli, "_UNSET"), (cli, "_unset"),
                         (render, "_FILL_ESCAPES"),
                         (verification, "_RECOVERY_RTOL"),
                         (measures, "DEFAULT_BIT_BUDGET"),
                         (diffusion, "_FRACTIONS_TOL"),
                         (diffusion, "_FRACTIONS_MAX_LEVEL"),
                         (errors, "EXIT_OK"), (errors, "EXIT_USAGE")):
        assert not hasattr(module, name), name


def test_models_are_the_only_model_inputs():
    """Each sequence family has one model record, taken as it is: no
    function has a `model_like` parameter, and both models keep `child_at`,
    the rule stated one slot at a time."""
    for info in pkgutil.iter_modules(hyptiling.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"hyptiling.{info.name}")
        for name, func in inspect.getmembers(module, inspect.isfunction):
            assert "model_like" not in inspect.signature(func).parameters, name
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name, func in inspect.getmembers(cls, inspect.isfunction):
                    params = inspect.signature(func).parameters
                    assert "model_like" not in params, (cls.__name__, name)
    for model in (ToeplitzModel.of_rank(3), SubstitutionModel.standard()):
        assert model.child_at(1, 2, 1) == model.children(1, 2)[1]


def test_every_class_is_an_error_or_a_frozen_record():
    """A class is a package exception or an immutable value: a `@record`
    whose fields cannot be assigned, so no object keeps state between calls."""
    from hyptiling.cli import _CliUsage

    found = []
    for info in pkgutil.iter_modules(hyptiling.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"hyptiling.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            found.append(cls.__name__)
            if issubclass(cls, (hyptiling.TilingError, _CliUsage)):
                continue
            fields = cls.__dict__.get("__match_args__")
            assert fields, f"{cls.__name__} is not a record"
            value = object.__new__(cls)
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
    assert {"ToeplitzModel", "SubstitutionModel", "Opt"} <= set(found)


def _module_names(tree):
    """Names a module binds at top level by import, and its `_`-prefixed
    top-level definitions and assignments.  A decorated definition is handed
    to its decorator, which counts as a read."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.decorator_list:
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and leaf.id.startswith("_"):
                        yield leaf.id


@pytest.mark.parametrize("path", sorted(
    p for p in pathlib.Path(hyptiling.__file__).parent.glob("*.py")
    if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_no_orphaned_module_names(path):
    """Every import and every private top-level name is read in its module."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(_module_names(tree)) - read) == []


def _reads(nodes) -> set:
    """Names loaded, and attributes taken, anywhere under the nodes."""
    found = set()
    for node in nodes:
        for leaf in ast.walk(node):
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
                found.add(leaf.id)
            elif isinstance(leaf, ast.Attribute):
                found.add(leaf.attr)
    return found


#: Public names kept with no reader yet, and the open item that will read them.
UNREAD_KEPT = {"tile_containing_point": "ROADMAP item 4"}


def test_every_public_name_has_a_reader():
    """Each public top-level function and class of a package module is read
    by another package module, by its own module outside its definition, or
    by a benchmark file; a name only tests call is not kept."""
    package = pathlib.Path(hyptiling.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")
             if p.stem not in ("__init__", "__main__")}
    bench = package.parents[1] / "bench"
    outside = _reads(ast.parse(p.read_text()) for p in bench.glob("*.py"))
    unread = []
    for stem, tree in trees.items():
        others = _reads(t for s, t in trees.items() if s != stem)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            own = _reads(n for n in tree.body if n is not node)
            if node.name not in others | own | outside | set(UNREAD_KEPT):
                unread.append(f"{stem}.{node.name}")
    assert unread == []



#: The module constants the cap table replaced.
OLD_CAPS = ("BIT_BUDGET", "MAX_MATRIX_ENTRIES", "DEFAULT_MATERIALIZE_LIMIT",
            "_LENGTH_DIGITS", "_ATLAS_LETTERS", "_LEVELS", "MAX_CLASSES",
            "MAX_STEPS", "MAX_PATHS", "MAX_TRACE_POINTS", "MAX_TILES",
            "MAX_OUTLINE_POINTS", "_MAX_PIECES")


def test_every_cap_is_in_the_table_and_read():
    """Each `errors.CAPS` entry is a positive limit with its unit and is read
    by a `cap(...)` call in a package module, each such call names an entry,
    and no module defines a cap constant of its own (exit codes aside)."""
    from hyptiling.errors import CAPS

    assert all(isinstance(limit, int) and limit > 0 and unit
               for limit, unit in CAPS.values())
    read, defined = [], []
    for path in pathlib.Path(hyptiling.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        read += [ast.literal_eval(node.args[0]) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "cap"]
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            defined += [f"{path.stem}.{leaf.id}" for target in targets
                        for leaf in ast.walk(target)
                        if isinstance(leaf, ast.Name)
                        and re.search(r"MAX|LIMIT|BUDGET|CAP", leaf.id)
                        and not leaf.id.startswith("EXIT_")]
    assert set(read) == set(CAPS)
    assert defined == ["errors.CAPS"]
    modules = [importlib.import_module(f"hyptiling.{info.name}")
               for info in pkgutil.iter_modules(hyptiling.__path__)]
    assert [(m.__name__, name) for m in modules for name in OLD_CAPS
            if hasattr(m, name)] == []


def test_one_count_loop():
    """Within the package, only `measures.transition_matrix` reads a model's
    `children_count_vector`: block counts and frequencies are columns of the
    one product of those matrices, and no second loop counts them."""
    readers = set()
    for path in pathlib.Path(hyptiling.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef)
                    and "children_count_vector" in _reads(node.body)):
                readers.add(f"{path.stem}.{node.name}")
    assert readers == {"measures.transition_matrix"}


def _chains(tree, roots):
    """Dotted attribute chains, such as `symbolic.ToeplitzModel.of_rank`,
    that start at one of the names `roots`; the longest chain of each run."""
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            yield ".".join([node.id, *reversed(parts)])


def test_benchmark_names_resolve():
    """Every hyptiling name the benchmark reads, and every layer its tracer
    wraps, exists; read from the sources with `ast`, without importing them."""
    bench = pathlib.Path(hyptiling.__file__).parents[2] / "bench"
    trees = {p.name: ast.parse(p.read_text()) for p in bench.glob("*.py")}
    roots = {alias.name for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "hyptiling"
             for alias in node.names}
    assert {"diffusion", "geometry", "harmonic", "measures", "symbolic"} <= roots
    chains = {c for tree in trees.values() for c in _chains(tree, roots)}
    assert "symbolic.ToeplitzModel.of_rank" in chains
    assert "measures.TRIANGLE" in chains
    missing = []
    for chain in sorted(chains):
        value = importlib.import_module(f"hyptiling.{chain.split('.')[0]}")
        for attr in chain.split(".")[1:]:
            if not hasattr(value, attr):
                missing.append(chain)
                break
            value = getattr(value, attr)
    assert missing == []
    layers = next(node.value for node in trees["spans.py"].body
                  if isinstance(node, ast.Assign)
                  and node.targets[0].id == "LAYER_CALLS")
    assert layers.elts
    for entry in layers.elts:
        module_name, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        module = importlib.import_module(f"hyptiling.{module_name}")
        owner, _, name = attr.rpartition(".")
        # spans.instrument patches a method where its class defines it
        space = vars(getattr(module, owner)) if owner else vars(module)
        assert name in space, f"{module_name}.{attr}"


@pytest.mark.parametrize("field", ["row_crossings", "row_steps", "trace"])
def test_mode_agreement_check_catches_a_differing_field(monkeypatch, field):
    from hyptiling import diffusion, verification

    walk = diffusion._walk_fast

    def off_by_one(*args):
        fields = walk(*args)
        value = fields[field]
        if field == "row_crossings":
            fields[field] = value + 1
        elif field == "row_steps":
            fields[field] = {**value, 10**6: 1}
        else:
            fields[field] = value[:-1]
        return fields

    monkeypatch.setattr(diffusion, "_walk_fast", off_by_one)
    check = verification.check_mode_agreement()
    assert check.name == "mode-agreement" and not check.passed
    assert field in check.detail


def _replace(value, **fields):
    """A copy of a record with some fields changed."""
    return type(value)(**{f: fields.get(f, getattr(value, f))
                          for f in type(value).__match_args__})


def _one_more(matrix):
    """The matrix with its first entry raised by one."""
    first, *rest = matrix.ints
    return _replace(matrix, ints=((first[0] + 1, *first[1:]), *rest))


def _deeper_and_doubled(classes):
    """Each class one row deeper with twice the placements: the tally's
    weights stay the same, the tile count doubles."""
    return [_replace(c, depth=c.depth + 1, count=2 * c.count) for c in classes]


#: (name patched in `verification`, its stand-in given the original, check
#: function, check name, part of the failing detail): one failing branch each.
_BROKEN = [
    ("transition_matrix", lambda f: lambda *a: _one_more(f(*a)),
     "check_counting_equivalence", "counting-equivalence", "!= entry"),
    ("occurrence_classes", lambda f: lambda *a: _deeper_and_doubled(f(*a)),
     "check_counting_equivalence", "counting-equivalence", "tiles !="),
    ("mass_conservation_check",
     lambda f: lambda *a: _replace(f(*a), residuals=(0, 1)),
     "check_mass_conservation", "mass-conservation", "residuals (0, 1)"),
    ("hull_contains", lambda f: lambda *a: False,
     "check_nesting", "nesting", "escapes"),
    ("contraction_certificate",
     lambda f: lambda *a: _replace(f(*a), verdict="withheld"),
     "check_contraction", "contraction", "verdict 'withheld'"),
    ("projective_diameter",
     lambda f: lambda *a, grow=iter(range(10)): next(grow),
     "check_contraction", "contraction", "grew from 0 to 1"),
    ("height_law_test", lambda f: lambda *a: (0.5, 1e-4),
     "check_height_law", "height-law", "p-value 0.0001"),
]


@pytest.mark.parametrize("patched, stand_in, check, name, detail", _BROKEN,
                         ids=[case[0] for case in _BROKEN])
def test_each_check_can_fail(monkeypatch, patched, stand_in, check, name,
                             detail):
    """One library call of a `verify` check made to misbehave fails that
    check, by name, with a detail that says how."""
    from hyptiling import verification

    original = getattr(verification, patched)
    monkeypatch.setattr(verification, patched, stand_in(original))
    result = getattr(verification, check)()
    assert result.name == name and result.passed is False
    assert detail in result.detail, result.detail


def _layer_call_modules():
    """The modules `bench/spans.py` LAYER_CALLS names, read with `ast`."""
    spans = pathlib.Path(hyptiling.__file__).parents[2] / "bench" / "spans.py"
    layers = next(node.value for node in ast.parse(spans.read_text()).body
                  if isinstance(node, ast.Assign)
                  and node.targets[0].id == "LAYER_CALLS")
    return sorted({ast.literal_eval(entry.elts[0]) for entry in layers.elts})


@pytest.mark.parametrize("code, printed", [
    # the package imports only the errors and `exact` up front
    ("import hyptiling\n"
     "print(sorted(m for m in sys.modules if m.startswith('hyptiling')))",
     "['hyptiling', 'hyptiling.errors', 'hyptiling.exact']"),
    # the first layer read through the package brings in every other
    ("from hyptiling import diffusion\n"
     "print([m for m in LAYERS if 'hyptiling.' + m not in sys.modules])", "[]"),
    ("from hyptiling import *\n"
     "import hyptiling\n"
     "print([n for n in hyptiling.__all__ if n not in globals()])", "[]"),
    # a command that imports the `exact` submodule leaves the function bound
    ("import contextlib, io, types\n"
     "from hyptiling.cli import main\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    main(['matrices', '--model', 'substitution', '--level', '1'])\n"
     "import hyptiling, hyptiling.exact\n"
     "from hyptiling import diffusion, exact\n"
     "print(isinstance(hyptiling.exact, types.FunctionType),\n"
     "      exact is hyptiling.exact is sys.modules['hyptiling.exact'].exact)",
     "True True"),
], ids=["import", "one-layer", "star", "exact-after-cli"])
def test_namespace_in_a_fresh_interpreter(code, printed):
    prelude = f"import sys\nLAYERS = {_layer_call_modules()!r}\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == printed
