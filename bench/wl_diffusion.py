"""The `diffusion` workload: leafwise diffusion paths in one process.

Why: noise, cumsum, floor and bincount do almost all the work, while the
symbolic and measures layers do little (warm per-model caches, one ergodic
count).  Many short paths beside a few long ones separate per-path overhead
from per-step memory.  One SubstitutionModel is reused across every path and
pass, as `run_paths` reuses it, so the model's caches are warm after the
first pass.  The request whose latency is reported is one criterion-8 path.

One pass runs three phases on the same inputs every time:
  (a) ENSEMBLE fast-mode paths of the criterion-8 shape (dt=1e-3, T=100),
      then `height_law_test`;
  (b) LONG fast-mode paths of the criterion-9 shape (T=2000), then
      `garnett_compare` at q=0 and q=1 on those results;
  (c) the first FULL_RERUNS ensemble paths again with mode="full".

Sizes: the path shapes are those of criteria 8 and 9 (and of `hyptiling
diffuse`'s defaults, T=2000).  The counts are cut from the criteria's 10^4
and 50 paths so that a pass takes a few seconds and a run holds several
passes: ENSEMBLE paths give the height-law test 2*10^7 steps, LONG paths
8*10^6 steps of occupancy, and FULL_RERUNS full-mode paths cover the
bit-identity check at about 10 times the fast-mode cost per path.
"""

from __future__ import annotations

import math
import time

from harness import expect
from spans import span_metrics

ENSEMBLE = 200
LONG = 4
FULL_RERUNS = 2
DT = 1e-3
SHORT_T = 100.0
LONG_T = 2000.0

# Criterion 8 allows 0.3 on the mean displacement of 10^4 paths with T=100,
# which is 3 standard errors sqrt(T / paths); the same 3 standard errors are
# applied to this ensemble.
MEAN_SIGMAS = 3.0
KS_P_MIN = 0.01
# Criterion 9's occupancy band.
LETTER_BAND = (0.45, 0.55)
BLOCK_DEVIATION = 0.05


def prepare(seed: int) -> dict:
    """Import, build the model and configs, and finish lazy set-up."""
    import numpy as np
    from hyptiling import diffusion, symbolic

    model = symbolic.SubstitutionModel.standard()
    short_seed, long_seed = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(2)
    )
    short = diffusion.DiffusionConfig(model, dt=DT, horizon=SHORT_T,
                                      paths=ENSEMBLE, seed=short_seed)
    long = diffusion.DiffusionConfig(model, dt=DT, horizon=LONG_T,
                                     paths=LONG, seed=long_seed)
    # Warm-up on a throwaway config: scipy.stats is imported lazily by the
    # first height-law test, and the first garnett_compare fills the model's
    # block-count cache.  The row-letter cache is left for the first pass.
    warm = diffusion.DiffusionConfig(model, dt=DT, horizon=1.0, paths=30,
                                     seed=short_seed)
    results = [diffusion.simulate_path(warm, None, i, "fast")
               for i in range(warm.paths)]
    diffusion.height_law_test(results)
    diffusion.garnett_compare(warm, q=0, results=results)
    return {"diffusion": diffusion, "short": short, "long": long}


def run_pass(state: dict, ledger, tracer=None) -> dict:
    diffusion = state["diffusion"]
    short, long = state["short"], state["long"]
    extra = {}

    # (a) ensemble
    fast = []
    start = time.perf_counter()
    for index in range(short.paths):
        fast.append(ledger.run(
            "fast_path",
            lambda i=index: diffusion.simulate_path(short, None, i, "fast"),
            request=True,
        ))
    phase_a = time.perf_counter() - start
    fast = [r for r in fast if r is not None]
    ledger.run("height_law",
               lambda: diffusion.height_law_test(fast),
               lambda outcome: _check_height_law(outcome, fast, short))
    extra["path_steps_per_s"] = sum(r.steps_used for r in fast) / phase_a

    # (b) long paths and occupancy
    start = time.perf_counter()
    longs = []
    for index in range(long.paths):
        longs.append(ledger.run(
            "long_path",
            lambda i=index: diffusion.simulate_path(long, None, i, "fast"),
        ))
    longs = [r for r in longs if r is not None]
    for q in (0, 1):
        ledger.run(
            f"garnett_q{q}",
            lambda q=q: diffusion.garnett_compare(long, q=q, results=longs),
            lambda report, q=q: _check_occupancy(report, q),
        )
    extra["occupancy_s"] = time.perf_counter() - start

    # (c) full-mode re-runs of the first ensemble paths
    start = time.perf_counter()
    full = []
    for index in range(FULL_RERUNS):
        full.append(ledger.run(
            "full_path",
            lambda i=index: diffusion.simulate_path(short, None, i, "full"),
            lambda result: _check_identical(result, fast),
        ))
    full = [r for r in full if r is not None]
    extra["full_steps_per_s"] = (
        sum(r.steps_used for r in full) / (time.perf_counter() - start)
    )

    everything = fast + longs + full
    extra["diffusion.steps"] = sum(r.steps_used for r in everything)
    extra["diffusion.partial_paths"] = sum(r.partial for r in everything)
    extra["diffusion.row_crossings"] = sum(r.row_crossings for r in everything)
    return extra


def _check_height_law(outcome, results, config) -> None:
    partial = [r.path_index for r in results if r.partial]
    expect(not partial, f"paths {partial} stopped at an uncolorable row")
    stat, pvalue = outcome
    expect(pvalue >= KS_P_MIN, f"KS p={pvalue:.4f} < {KS_P_MIN} (stat {stat:.4f})",
           exact=False)
    mean = sum(r.displacement for r in results) / len(results)
    allowed = MEAN_SIGMAS * math.sqrt(config.horizon / len(results))
    expect(abs(mean + config.horizon / 2) <= allowed,
           f"mean displacement {mean:.4f} not within {allowed:.4f} of "
           f"{-config.horizon / 2}", exact=False)


def _check_occupancy(report, q: int) -> None:
    expect(report["partial_paths"] == 0,
           f"{report['partial_paths']} partial paths")
    labels = report["labels"]
    if q == 0:
        frac = labels[0]["empirical"]
        lo, hi = LETTER_BAND
        expect(lo <= frac <= hi, f"color-1 time fraction {frac:.4f} outside "
                                 f"[{lo}, {hi}]", exact=False)
    else:
        dev = max(abs(row["empirical"] - 0.5) for row in labels)
        expect(dev <= BLOCK_DEVIATION,
               f"level-1 block fractions {dev:.4f} from 1/2", exact=False)


_SHARED_FIELDS = ("steps_used", "partial", "u_final", "row_final", "min_row",
                  "max_row", "row_crossings", "row_steps", "stop_row")


def _check_identical(full, fast_results) -> None:
    fast = next((r for r in fast_results if r.path_index == full.path_index),
                None)
    expect(fast is not None, "no fast-mode result to compare with")
    for name in _SHARED_FIELDS:
        expect(getattr(full, name) == getattr(fast, name),
               f"path {full.path_index}: full-mode {name} differs from fast mode")


# (metric, span names, operations they serve, tag filter, kind); see
# spans.span_metrics.
LAYERS = (
    ("diffusion.fast_path_ms", "diffusion.simulate_path", None,
     {"mode": "fast", "steps": round(SHORT_T / DT)}, "path"),
    ("diffusion.long_path_ms", "diffusion.simulate_path", None,
     {"mode": "fast", "steps": round(LONG_T / DT)}, "path"),
    ("diffusion.full_path_ms", "diffusion.simulate_path", None,
     {"mode": "full"}, "path"),
    ("diffusion.height_law_s", "diffusion.height_law_test", None, {}, "pass"),
    ("diffusion.garnett_s", "diffusion.garnett_compare", None, {}, "pass"),
    ("symbolic.block_steps_s", ("diffusion.PathResult.block_steps",
                                "diffusion.PathResult.letter_steps"), None, {},
     "pass"),
    ("symbolic.block_counts_s", "symbolic.block_type_counts", None, {}, "pass"),
    ("measures.ergodic_substitution_triangle_s",
     "measures.ergodic_measure_count", None, {}, "pass"),
)
COUNTERS = ("diffusion.steps", "diffusion.partial_paths",
            "diffusion.row_crossings")
REQUEST = "path"
DETAIL = {"path_steps_per_s": "steps/s", "occupancy_s": "s",
          "full_steps_per_s": "steps/s"}
TRACE_LIBRARY = True


def layer_metrics(spans, run_ids) -> dict:
    return span_metrics(LAYERS, spans, run_ids)
