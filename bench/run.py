"""Benchmark of hyptiling: one workload per run, seeded inputs, checked outputs.

    python3 bench/run.py --workload {diffusion,exact,cli,all} --seed N \
        --seconds S --trace {0,1}

`all` runs the three workloads one after another, each in its own process.

Run from the root of a checkout; the program is imported from its src/.  The
run repeats passes over the workload's fixed operation mix, all on the same
seeded inputs, until S seconds have passed (at least one pass).  Spread over
the same time, it times PROBES fresh set-ups in child processes (import,
model construction, warm-up) and reports their median as setup_s.  Outputs
are checked outside the timed regions; a failure is counted and the run goes
on.

With --trace 0 the last line of standard output holds the end-to-end metrics
of BENCHMARK.json, from untraced passes:
  setup_s      median set-up time of a fresh process;
  wall_s       median over passes of the pass's operation times, summed
               (output checks and the benchmark's own work are left out);
  peak_rss_mb  peak RSS of the run, or of the largest CLI child.
The lines before it also give the latency of the workload's request,
<REQUEST>_p50_ms and <REQUEST>_tail_ms (median and the highest percentile
with 10 samples beyond it, over the successful requests of the untraced
passes), the error rate and the workload's own rates.  These are printed,
not gated.
With --trace 1 untraced and traced passes alternate, and the last line holds
the per-layer metrics: self times of spans recorded around calls into each
module, counters, and the tracing overhead (traced minus untraced wall_s).
Per-layer metrics of modules a workload does not call read 0.  The
environment record, failures and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import subprocess
import sys
import time

import harness
from spans import Tracer, instrument

WORKLOADS = ("diffusion", "exact", "cli")
PROBES = 5
SHOWN_FAILURES = 10


def _workload(name: str):
    if name == "diffusion":
        import wl_diffusion as module
    elif name == "exact":
        import wl_exact as module
    else:
        import wl_cli as module
    return module


def _setup_probe(wl, args) -> float:
    """Wall time of one fresh process doing the set-up."""
    argv = wl.setup_command(args.seed) if hasattr(wl, "setup_command") else [
        __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only"]
    child = harness.run_child(argv)
    if child.code != 0:
        sys.stderr.write(child.stderr.decode(errors="replace"))
        raise SystemExit(f"error: set-up probe exited {child.code}")
    return child.seconds


def _run_passes(wl, state, args, tracer, ledger) -> tuple:
    """Passes until args.seconds have passed; with tracing, odd passes are
    traced and at least one pass of each kind runs.  The PROBES set-up
    probes are spread over the same time, one due every args.seconds/PROBES
    seconds and run between passes; those still due run after the last."""
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        while (len(setups) < PROBES and time.perf_counter() - start
               >= len(setups) * args.seconds / PROBES):
            setups.append(_setup_probe(wl, args))
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.run_id = f"{args.workload}-seed{args.seed}-pass{len(passes)}"
        ledger.begin_pass(tracer if traced else None)
        library_spans = traced and wl.TRACE_LIBRARY
        context = instrument(tracer) if library_spans else contextlib.nullcontext()
        gc.collect()  # every pass starts from the same collector state
        with context:
            t0 = time.perf_counter()
            extra = wl.run_pass(state, ledger, tracer if traced else None)
            wall = time.perf_counter() - t0
        passes.append({"traced": traced, "run_id": tracer.run_id,
                       "wall": wall, "times": ledger.times,
                       "samples": ledger.samples, "extra": extra})
        kinds = {p["traced"] for p in passes}
        if (time.perf_counter() - start >= args.seconds
                and len(kinds) == (2 if args.trace else 1)):
            break
    while len(setups) < PROBES:
        setups.append(_setup_probe(wl, args))
    return passes, setups


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    codes = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace",
                str(args.trace)]
        sys.stdout.flush()
        codes.append(subprocess.run(argv, check=False).returncode)
    return max(codes)


def _timed_median(passes) -> float:
    """Median over passes of the time spent inside the pass's operations."""
    return harness.median([sum(t for _, t in p["times"]) for p in passes])


def _median_of(passes, key) -> float:
    return harness.median([p["extra"][key] for p in passes])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.workload == "all":
        return _run_all(args)
    harness.use_checkout_source()
    harness.cap_threads()
    wl = _workload(args.workload)
    if args.setup_only:
        wl.prepare(args.seed)
        return 0

    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    started = time.perf_counter()
    state = wl.prepare(args.seed)
    tracer = Tracer()
    ledger = harness.Ledger()
    passes, setup_times = _run_passes(wl, state, args, tracer, ledger)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    sampled = [x for p in plain for x in p["samples"]]

    if args.workload == "cli":
        peak_rss = max(p["extra"]["peak_rss_mb"] for p in passes)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": harness.median(setup_times),
        "wall_s": _timed_median(plain),
        "peak_rss_mb": peak_rss,
    }
    nan = float("nan")  # no request succeeded
    tail, percentile, n = harness.tail(sampled) if sampled else (nan, nan, 0)
    detail = {
        f"{wl.REQUEST}_p50_ms": harness.median(sampled) * 1e3
        if sampled else nan,
        f"{wl.REQUEST}_tail_ms": tail * 1e3,
        "error_rate": ledger.error_rate,
    }
    detail.update({name: _median_of(plain, name) for name in wl.DETAIL})

    if args.trace:
        layers = dict.fromkeys((m["name"] for m in catalogue["per_layer"]), 0.0)
        layers.update(wl.layer_metrics(tracer.spans,
                                       [p["run_id"] for p in traced]))
        layers.update({name: _median_of(passes, name) for name in wl.COUNTERS})
        layers["trace.overhead_s"] = (
            _timed_median(traced) - end_to_end["wall_s"])
        unlisted = set(layers) - {m["name"] for m in catalogue["per_layer"]}
        if unlisted:
            raise SystemExit(f"error: not in BENCHMARK.json: {sorted(unlisted)}")
        specs, values = catalogue["per_layer"], layers
    else:
        specs, values = catalogue["end_to_end"], end_to_end

    env = harness.environment(args.seed)
    record = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes) - len(traced)} untraced and {len(traced)} traced "
          f"passes in {time.perf_counter() - started:.1f} s")
    print("environment " + json.dumps(env))
    print(f"latency of {n} successful requests in untraced passes: tail at "
          f"p{percentile:.1f}, the highest percentile with "
          f"{harness.TAIL_BEYOND} samples beyond it")
    units = {m["name"]: m["unit"] for m in catalogue["end_to_end"]}
    units.update({f"{wl.REQUEST}_p50_ms": "ms", f"{wl.REQUEST}_tail_ms": "ms",
                  "error_rate": "ratio"})
    units.update(wl.DETAIL)
    for name, value in {**end_to_end, **detail}.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed {ledger.failed} of {ledger.attempted} operations")
    distinct = sorted(set(ledger.failures))
    for failure in distinct[:SHOWN_FAILURES]:
        print(f"    {failure}")
    if len(distinct) > SHOWN_FAILURES:
        print(f"    ... {len(distinct) - SHOWN_FAILURES} more in {record}")
    if args.trace:
        for spec in specs:
            print(f"  {spec['name']} = {values[spec['name']]:.6g} {spec['unit']}")

    harness.OUT.mkdir(exist_ok=True)
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({
            "environment": env,
            "end_to_end": end_to_end,
            "detail": detail,
            "per_layer": values if args.trace else None,
            "failures": ledger.failures,
            "passes": [{k: p[k] for k in ("traced", "run_id", "wall", "times")}
                       for p in passes],
            "spans": [s.to_json() for s in tracer.spans],
        }, handle)

    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]} for spec in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
