"""Command-line entry point.

All subcommands emit machine-readable output (JSON, CSV, or SVG) and map
failures onto distinct exit codes:

    0  success
    1  failure (verify found a broken invariant, I/O, numeric trouble)
    2  usage error
    3  domain error (invalid arguments for the mathematics)
    4  cap exceeded (undetermined sequence positions)
    5  size/budget exceeded
    6  inconclusive (stabilization not reached; output still printed)

A plain key=value config file can supply defaults; explicit flags win, and
keys that do not belong to the invoked subcommand are rejected.
"""

from __future__ import annotations

import json
import sys

from .diffusion import (
    DiffusionConfig,
    garnett_compare,
    log_height_stats,
    run_paths,
)
from .errors import DomainError, TilingError
from .exact import scalar_to_json
from .measures import (
    compose_range,
    contraction_certificate,
    ergodic_measure_count,
    mass_conservation_check,
    measure_frequencies,
    transition_matrix,
)
from .record import record
from .render import render_svg
from .symbolic import (
    SubstitutionModel,
    ToeplitzModel,
    atlas_words,
    window,
    word_to_str,
)
from .verification import run_all

_UNSET = object()


class _CliUsage(Exception):
    pass


@record
class Opt:
    flag: str
    dest: str = None
    type: object = str
    default: object = None
    required: bool = False
    choices: tuple = None
    nargs: int = None
    action: str = None
    help: str = ""

    def __post_init__(self):
        if self.dest is None:
            object.__setattr__(
                self, "dest", self.flag.lstrip("-").replace("-", "_")
            )

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")


def _model_opts(required: bool = True):
    return [
        Opt("--model", choices=("toeplitz", "substitution"), required=required,
            help="sequence family"),
        Opt("--r", type=int, default=2, help="number of colors (toeplitz)"),
        Opt("--max-depth", type=int, default=48,
            help="toeplitz filling-step cap"),
    ]


_SCHEME = Opt("--scheme", choices=("triangle", "paper"), default="triangle",
              help="matrix scheme")
_OUT = Opt("--out", help="output file (default: stdout)")

_SUBCOMMANDS = {}


def _sub(name, opts, help_text):
    def wrap(func):
        _SUBCOMMANDS[name] = (opts, func, help_text)
        return func
    return wrap


def _build_model(ns, allow_none: bool = False):
    if ns.model is None and allow_none:
        return None
    if ns.model == "toeplitz":
        return ToeplitzModel.of_rank(ns.r, max_depth=ns.max_depth)
    return SubstitutionModel.standard()


def _model_echo(model) -> dict:
    if model is None:
        return {"name": "none"}
    echo = {"name": model.name, "r": model.r}
    spec = getattr(model, "spec", None)
    if spec is not None:
        echo["max_depth"] = spec.max_depth
    return echo


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_text(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers


@_sub("gen", _model_opts() + [
    Opt("--from", dest="start", type=int, required=True, help="window start"),
    Opt("--to", dest="stop", type=int, required=True, help="window end (excl)"),
    _OUT,
], "print a window of the bi-infinite color sequence")
def _cmd_gen(ns) -> int:
    model = _build_model(ns)
    letters = window(model, ns.start, ns.stop)
    _emit({"from": ns.start, "to": ns.stop, "letters": list(letters)}, ns.out)
    return 0


@_sub("atlas", _model_opts() + [
    Opt("--level", type=int, required=True, help="hierarchy level"),
    Opt("--letter", type=int, help="restrict to one word"),
    Opt("--max-letters", type=int, default=10**6,
        help="materialization cap"),
    _OUT,
], "materialize the words of one hierarchy level")
def _cmd_atlas(ns) -> int:
    model = _build_model(ns)
    level = atlas_words(model, ns.level)
    if ns.letter is not None:
        letters = (ns.letter,)
    else:
        letters = tuple(range(1, model.r + 1))
    words = {
        str(i): word_to_str(level.word(i, ns.max_letters), model.r)
        for i in letters
    }
    _emit(
        {
            "model": _model_echo(model),
            "level": ns.level,
            "length": level.length,
            "words": words,
        },
        ns.out,
    )
    return 0


@_sub("matrices", _model_opts() + [
    Opt("--scheme", choices=("triangle", "paper", "both"), default="triangle"),
    Opt("--level", type=int, help="single level"),
    Opt("--from", dest="start", type=int, help="composition range start"),
    Opt("--to", dest="stop", type=int, help="composition range end (excl)"),
    _OUT,
], "transition matrices, compositions, and mass residuals")
def _cmd_matrices(ns) -> int:
    model = _build_model(ns)
    has_level = ns.level is not None
    given = (ns.start is not None) + (ns.stop is not None)
    if given != (0 if has_level else 2):
        raise _CliUsage("give either --level or both --from and --to")
    schemes = ("triangle", "paper") if ns.scheme == "both" else (ns.scheme,)
    out = {}
    for scheme in schemes:
        if has_level:
            matrix = transition_matrix(model, ns.level, scheme)
            residual = mass_conservation_check(model, scheme, ns.level)
            out[scheme] = {
                "matrix": matrix.to_json(),
                "column_sums": [scalar_to_json(s) for s in matrix.column_sums()],
                "mass_residuals": residual.to_json(),
            }
        else:
            matrix = compose_range(model, scheme, ns.start, ns.stop)
            out[scheme] = {
                "range": [ns.start, ns.stop],
                "matrix": matrix.to_json(),
            }
    _emit({"model": _model_echo(model), "schemes": out}, ns.out)
    return 0


@_sub("measures", _model_opts() + [
    _SCHEME,
    Opt("--depth", type=int, default=36, help="deepest simplex level"),
    Opt("--tolerance", type=float, default=1e-6, help="Hilbert tolerance"),
    _OUT,
], "count the extreme invariant measures with a stabilization certificate")
def _cmd_measures(ns) -> int:
    model = _build_model(ns)
    result = ergodic_measure_count(
        model, ns.scheme, tolerance=ns.tolerance, max_depth=ns.depth
    )
    payload = {"model": _model_echo(model)}
    payload.update(result.to_json())
    _emit(payload, ns.out)
    return 0 if result.status == "stabilized" else 6


@_sub("certify", _model_opts() + [
    _SCHEME,
    Opt("--from", dest="start", type=int, required=True, help="first level"),
    Opt("--to", dest="stop", type=int, required=True, help="end level (excl)"),
    _OUT,
], "per-level projective contraction certificates")
def _cmd_certify(ns) -> int:
    model = _build_model(ns)
    if ns.stop <= ns.start:
        raise _CliUsage("--to must exceed --from")
    report = contraction_certificate(model, ns.scheme, range(ns.start, ns.stop))
    payload = {"model": _model_echo(model)}
    payload.update(report.to_json())
    _emit(payload, ns.out)
    return 0


@_sub("frequencies", _model_opts() + [
    _SCHEME,
    Opt("--measure", type=int, default=0, help="extreme measure index"),
    Opt("--level", type=int, required=True, help="estimate depth"),
    Opt("--depth", type=int, default=36, help="stabilization depth cap"),
    Opt("--tolerance", type=float, default=1e-6),
    Opt("--format", choices=("json", "csv"), default="json"),
    _OUT,
], "letter frequencies of one extreme measure")
def _cmd_frequencies(ns) -> int:
    model = _build_model(ns)
    stab = ergodic_measure_count(
        model, ns.scheme, tolerance=ns.tolerance, max_depth=ns.depth
    )
    if stab.status != "stabilized":
        payload = {"model": _model_echo(model)}
        payload.update(stab.to_json())
        _emit(payload, ns.out)
        return 6
    result = measure_frequencies(model, ns.scheme, ns.measure, ns.level, stab)
    if ns.format == "csv":
        lines = ["letter,numerator,denominator,value"]
        for i, frac in enumerate(result.frequencies, start=1):
            lines.append(
                f"{i},{frac.numerator},{frac.denominator},{float(frac)!r}"
            )
        _write_text("\n".join(lines) + "\n", ns.out)
    else:
        payload = {"model": _model_echo(model)}
        payload.update(result.to_json())
        _emit(payload, ns.out)
    return 0


@_sub("diffuse", _model_opts() + [
    _SCHEME,
    Opt("--dt", type=float, default=1e-3, help="time step"),
    Opt("--horizon", type=float, default=2000.0, help="path length T"),
    Opt("--paths", type=int, default=50),
    Opt("--seed", type=int, default=0),
    Opt("--level", type=int, default=0, help="block level for occupancy"),
    Opt("--mode", choices=("fast", "full"), default="fast"),
    Opt("--stride", type=int, default=0, help="trace decimation stride"),
    Opt("--trace-csv", help="write decimated traces as CSV"),
    _OUT,
], "simulate leafwise diffusion and compare occupancy to predictions")
def _cmd_diffuse(ns) -> int:
    model = _build_model(ns)
    config = DiffusionConfig(
        model=model,
        dt=ns.dt,
        horizon=ns.horizon,
        paths=ns.paths,
        seed=ns.seed,
        trace_stride=ns.stride,
    )
    results = run_paths(config, mode=ns.mode)
    report = garnett_compare(config, q=ns.level, scheme=ns.scheme,
                             results=results)
    try:
        height = log_height_stats(results)
    except DomainError as err:
        height = {"note": str(err)}
    payload = {
        "model": _model_echo(model),
        "config": {
            "dt": ns.dt,
            "horizon": ns.horizon,
            "paths": ns.paths,
            "seed": ns.seed,
            "steps_per_path": config.n_steps,
            "mode": ns.mode,
        },
        "height": height,
        "occupancy": report,
    }
    _emit(payload, ns.out)
    if ns.trace_csv:
        lines = ["path,step,u,row"]
        for res in results:
            for step, u, row in res.trace:
                lines.append(f"{res.path_index},{step},{u!r},{row}")
        _write_text("\n".join(lines) + "\n", ns.trace_csv)
    return 0


@_sub("render", _model_opts(required=False) + [
    Opt("--rows", type=int, nargs=2, required=True,
        help="inclusive band range"),
    Opt("--x", dest="x_window", type=float, nargs=2, required=True,
        help="horizontal window"),
    Opt("--overlay", type=int, action="append",
        help="draw level-q patch boundaries (repeatable)"),
    Opt("--tol", type=float, default=1e-3, help="arc flattening tolerance"),
    Opt("--width", type=float, default=800.0, help="image width in px"),
    Opt("--y-clip", dest="y_clip", type=float, nargs=2,
        help="clip heights to this range"),
    Opt("--out", required=True, help="SVG output path"),
], "draw a window of the tiling as SVG")
def _cmd_render(ns) -> int:
    model = _build_model(ns, allow_none=True)
    tiles = render_svg(
        model,
        rows=tuple(ns.rows),
        x_range=tuple(ns.x_window),
        out_path=ns.out,
        overlay_levels=tuple(ns.overlay or ()),
        tol=ns.tol,
        width_px=ns.width,
        y_clip=tuple(ns.y_clip) if ns.y_clip else None,
    )
    sys.stdout.write(json.dumps({"tiles": tiles, "out": ns.out}) + "\n")
    return 0


@_sub("verify", [
    Opt("--full", action="store_true", help="run the extended level ranges"),
    Opt("--json", dest="as_json", action="store_true",
        help="machine-readable output"),
    _OUT,
], "run the internal cross-checks; nonzero exit if any fails")
def _cmd_verify(ns) -> int:
    checks = run_all(quick=not ns.full)
    ok = all(c.passed for c in checks)
    if ns.as_json:
        _emit(
            {"checks": [c.to_json() for c in checks], "all_passed": ok},
            ns.out,
        )
    else:
        lines = [
            f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
            for c in checks
        ]
        _write_text("\n".join(lines) + "\n", ns.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parsing, config merge, dispatch


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="hyptiling",
        description="hierarchical colorings of the dyadic half-plane tiling",
    )
    subparsers = parser.add_subparsers(dest="command")
    for name, (opts, _func, help_text) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None,
                         help="key=value file with defaults")
        for opt in opts:
            kwargs = {"dest": opt.dest, "default": _UNSET, "help": opt.help}
            if opt.action == "store_true":
                kwargs["action"] = "store_true"
            elif opt.action == "append":
                kwargs["action"] = "append"
                kwargs["type"] = opt.type
                kwargs["default"] = None  # append cannot start from a sentinel
            else:
                kwargs["type"] = opt.type
                if opt.choices:
                    kwargs["choices"] = opt.choices
                if opt.nargs:
                    kwargs["nargs"] = opt.nargs
            sub.add_argument(opt.flag, **kwargs)
    return parser


def _read_config(path: str) -> dict:
    pairs = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _CliUsage(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as err:
        raise _CliUsage(f"cannot read config {path}: {err}")
    return pairs


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_config_value(opt: Opt, raw: str):
    try:
        if opt.action == "store_true":
            word = raw.lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
            raise _CliUsage(f"bad boolean {raw!r} for {opt.flag}")
        if opt.action == "append" or opt.nargs:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            values = [opt.type(p) for p in parts]
            if opt.nargs and len(values) != opt.nargs:
                raise _CliUsage(
                    f"{opt.flag} needs {opt.nargs} comma-separated values"
                )
            return values
        value = opt.type(raw)
    except ValueError:
        raise _CliUsage(f"bad value {raw!r} for {opt.flag}")
    if opt.choices and value not in opt.choices:
        raise _CliUsage(
            f"bad value {raw!r} for {opt.flag}; choose from {opt.choices}"
        )
    return value


def _unset(opt: Opt, value) -> bool:
    if opt.action == "append":
        return value is None
    return value is _UNSET


def _merge(ns, opts, config: dict):
    by_key = {}
    for opt in opts:
        by_key[opt.key] = opt
        by_key[opt.dest] = opt
    for key, raw in config.items():
        opt = by_key.get(key)
        if opt is None:
            raise _CliUsage(f"unknown config key {key!r}")
        if _unset(opt, getattr(ns, opt.dest)):
            setattr(ns, opt.dest, _parse_config_value(opt, raw))
    for opt in opts:
        if _unset(opt, getattr(ns, opt.dest)):
            if opt.required:
                raise _CliUsage(f"missing required option {opt.flag}")
            setattr(ns, opt.dest, opt.default)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    opts, func, _help = _SUBCOMMANDS[ns.command]
    try:
        config = _read_config(ns.config) if ns.config else {}
        _merge(ns, opts, config)
        return func(ns)
    except _CliUsage as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except TilingError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
