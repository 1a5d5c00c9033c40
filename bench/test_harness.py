"""Tiny tests of the benchmark's own machinery: the tail-percentile rule,
self-time subtraction on nested spans, charging layer calls to operations,
and failure accounting."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import harness  # noqa: E402
from spans import Tracer, self_times, span_metrics  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tail_leaves_ten_samples_beyond_it():
    samples = list(range(1, 31))  # 1..30
    value, percentile, n = harness.tail(samples)
    assert n == 30
    assert sum(1 for s in samples if s > value) == harness.TAIL_BEYOND
    assert value == 20 and percentile == pytest.approx(100 * 20 / 30)


def test_tail_is_order_independent_and_grows_with_samples():
    few = harness.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 11, 10, 12])
    assert few[0] == 2 and few[2] == 12
    many = harness.tail(list(range(1000)))
    assert many[0] == 989 and many[1] == pytest.approx(99.0)


def test_tail_without_enough_samples_falls_back_to_median():
    assert harness.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("diffusion.garnett_compare"):
        clock.now += 1.0
        with tracer.span("diffusion.PathResult.block_steps"):
            clock.now += 2.0
            with tracer.span("symbolic.block_type_counts"):
                clock.now += 0.5
        with tracer.span("measures.ergodic_measure_count"):
            clock.now += 3.0
        clock.now += 0.25
    outer, steps, counts, ergodic = tracer.spans
    assert steps.parent == outer.ident and counts.parent == steps.ident
    own = self_times(tracer.spans)
    assert outer.duration == pytest.approx(6.75)
    assert own[outer.ident] == pytest.approx(1.25)
    assert own[steps.ident] == pytest.approx(2.0)
    assert own[counts.ident] == pytest.approx(0.5)
    assert own[ergodic.ident] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(outer.duration)


def test_paused_tracer_records_nothing():
    tracer = Tracer(clock=FakeClock())
    wrapped = tracer.wrap(lambda x: x + 1, "symbolic.window")
    with tracer.paused():
        assert wrapped(1) == 2
    assert tracer.spans == []
    assert wrapped(2) == 3
    assert [s.name for s in tracer.spans] == ["symbolic.window"]


def test_layer_calls_are_charged_to_the_operation_they_serve():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.run_id = "pass1"
    with tracer.span("op:compose_paper"):
        with tracer.span("measures.compose_range"):
            clock.now += 3.0
    with tracer.span("op:hull"):
        with tracer.span("measures.nested_simplex"):
            clock.now += 0.5
            with tracer.span("measures.compose_range"):
                clock.now += 2.0
    layers = (
        ("compose", "measures.compose_range", "op:compose", {}, "pass"),
        ("hull", ("measures.nested_simplex", "measures.compose_range"),
         "op:hull", {}, "pass"),
        ("any_compose", "measures.compose_range", None, {}, "pass"),
    )
    out = span_metrics(layers, tracer.spans, ["pass1"])
    assert out["compose"] == pytest.approx(3.0)
    assert out["hull"] == pytest.approx(2.5)
    assert out["any_compose"] == pytest.approx(5.0)


def test_failing_operation_raises_error_rate_without_stopping():
    ledger = harness.Ledger()
    ran = []

    def op(i):
        ran.append(i)
        if i == 2:
            raise ValueError("injected")
        return i

    for i in range(5):
        ledger.run(f"op{i}", lambda i=i: op(i), request=True)
    assert ran == [0, 1, 2, 3, 4]
    assert (ledger.attempted, ledger.failed) == (5, 1)
    assert ledger.error_rate == pytest.approx(0.2)
    assert len(ledger.samples) == 4 and len(ledger.times) == 5
    assert not ledger.correct  # a crash is a wrong outcome


def test_known_defect_counts_as_failed_but_not_wrong():
    ledger = harness.Ledger()

    def defect():
        raise ValueError("Exceeds the limit (4300 digits)")

    def known(err):
        return isinstance(err, ValueError) and "4300 digits" in str(err)

    ledger.run("known", defect, known_failure=known)
    assert (ledger.failed, ledger.wrong) == (1, 0) and ledger.correct
    ledger.run("other", lambda: 1 / 0, known_failure=known)
    assert (ledger.failed, ledger.wrong) == (2, 1) and not ledger.correct


def test_failed_checks_split_wrong_answers_from_statistical_misses():
    ledger = harness.Ledger()
    ledger.run("exact", lambda: 1, lambda r: harness.expect(r == 2, "wrong"))
    ledger.run("statistical", lambda: 0.001,
               lambda p: harness.expect(p >= 0.01, "low p", exact=False))
    ledger.run("fine", lambda: 3, lambda r: harness.expect(r == 3, "ok"))
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (3, 2, 1)
    assert not ledger.correct
    assert [f.split(":")[0] for f in ledger.failures] == ["exact", "statistical"]


def test_benchmark_json_lists_every_metric_the_workloads_report():
    import json

    import wl_cli
    import wl_diffusion
    import wl_exact

    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    listed = {m["name"] for m in catalogue["per_layer"]}
    reported = {"trace.overhead_s", "symbolic.window_letters_per_s",
                "cli.python_ms", "cli.import_ms"}
    for module in (wl_diffusion, wl_exact):
        reported |= {layer[0] for layer in module.LAYERS}
        reported |= set(module.COUNTERS)
    reported |= set(wl_cli.COUNTERS)
    reported |= {f"cli.{c}_{unit}" for c in wl_cli.COMMANDS
                 for unit in ("ms", "rss_mb")}
    assert reported == listed
    assert [m["name"] for m in catalogue["end_to_end"]][0] == "setup_s"
