"""Leafwise random walk: step bookkeeping, mode equivalence, truncation,
height law, occupancy comparisons."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyptiling import (
    CapError,
    DiffusionConfig,
    DomainError,
    LeafState,
    PathResult,
    SizeError,
    SubstitutionModel,
    ToeplitzModel,
    ergodic_measure_count,
    garnett_compare,
    height_law_test,
    log_height_samples,
    log_height_stats,
    run_paths,
    simulate_path,
)
from hyptiling import diffusion
from hyptiling.diffusion import (
    CHUNK,
    LN2,
    _noise,
    expected_block_fractions,
)
from hyptiling.errors import cap
from oracles import deepened_block_fractions

SUB = SubstitutionModel.standard()


class TestConfig:
    def test_step_counts(self):
        assert DiffusionConfig(SUB, dt=0.1, horizon=1.0).n_steps == 10
        assert DiffusionConfig(SUB, dt=1e-3, horizon=2000.0).n_steps == 2_000_000
        assert DiffusionConfig(SUB, dt=0.1, horizon=0.0).n_steps == 0

    def test_rounding_is_stable(self):
        # 0.3 / 0.1 is 2.9999... in floats; the count must still be 3
        assert DiffusionConfig(SUB, dt=0.1, horizon=0.3).n_steps == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            DiffusionConfig(SUB, dt=0.0)
        with pytest.raises(DomainError):
            DiffusionConfig(SUB, horizon=-1.0)
        with pytest.raises(DomainError):
            DiffusionConfig(SUB, paths=0)
        with pytest.raises(DomainError, match="seed -1 must be nonnegative"):
            DiffusionConfig(SUB, seed=-1)
        with pytest.raises(SizeError):
            DiffusionConfig(SUB, dt=1e-9, horizon=1000.0)
        with pytest.raises(SizeError, match="overflows the step count"):
            DiffusionConfig(SUB, dt=1e-300, horizon=1e300)  # inf steps

    def test_trace_cap(self):
        # CLI defaults: 50 paths of 2 * 10^6 steps, every step traced
        with pytest.raises(SizeError, match="100000050 trace points"):
            DiffusionConfig(SUB, trace_stride=1)
        # one path of n steps keeps n + 1 points
        points = cap("trace_points")
        DiffusionConfig(SUB, dt=1.0, horizon=points - 1.0, paths=1,
                        trace_stride=1)
        with pytest.raises(SizeError):
            DiffusionConfig(SUB, dt=1.0, horizon=float(points), paths=1,
                            trace_stride=1)
        DiffusionConfig(SUB, trace_stride=200)  # 50 * 10,001 points
        DiffusionConfig(SUB, dt=1.0, horizon=1e7, trace_stride=0)

    def test_path_cap(self, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("a path ran")

        monkeypatch.setattr(diffusion, "simulate_path", no_path)
        with pytest.raises(SizeError, match="100001 paths exceeds the 100000"):
            run_paths(DiffusionConfig(SUB, horizon=1e-3,
                                      paths=cap("paths") + 1))
        config = DiffusionConfig(SUB, horizon=1e-3, paths=cap("paths"))
        assert config.paths == cap("paths")

    def test_model_is_stored_as_itself(self):
        model = ToeplitzModel.of_rank(2)
        assert DiffusionConfig(model).model is model


class TestLeafState:
    def test_default_start(self):
        res = simulate_path(DiffusionConfig(SUB, horizon=0.0), mode="full")
        assert res.u0 == res.u_final == math.log(1.5)
        assert res.row_final == res.min_row == res.max_row == 0

    def test_row_consistency_enforced(self):
        assert LeafState(u=0.5, row=0).row == 0
        with pytest.raises(DomainError, match="row 1 disagrees"):
            LeafState(u=0.0, row=1)
        with pytest.raises(DomainError, match="not finite"):
            LeafState(u=math.inf, row=0)


class TestReproducibility:
    def test_same_seed_same_path(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=1.0, seed=42)
        a = simulate_path(cfg, path_index=0)
        b = simulate_path(cfg, path_index=0)
        assert a.u_final == b.u_final
        assert a.row_steps == b.row_steps

    def test_paths_diverge_by_index(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=1.0, seed=42)
        a = simulate_path(cfg, path_index=0)
        b = simulate_path(cfg, path_index=1)
        assert a.u_final != b.u_final

    def test_seed_changes_noise(self):
        u0 = simulate_path(DiffusionConfig(SUB, dt=1e-2, horizon=1.0, seed=1)).u_final
        u1 = simulate_path(DiffusionConfig(SUB, dt=1e-2, horizon=1.0, seed=2)).u_final
        assert u0 != u1


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_fast_and_full_agree_bitwise(self, seed):
        cfg = DiffusionConfig(SUB, dt=1e-3, horizon=2.0, seed=seed,
                              trace_stride=500)
        fast = simulate_path(cfg, mode="fast")
        full = simulate_path(cfg, mode="full")
        assert fast.u_final == full.u_final  # no tolerance: same arithmetic
        assert fast.steps_used == full.steps_used
        assert fast.partial == full.partial
        assert fast.row_steps == full.row_steps
        assert (fast.min_row, fast.max_row) == (full.min_row, full.max_row)
        assert fast.row_crossings == full.row_crossings
        assert fast.trace == full.trace

    def test_modes_agree_on_truncated_paths(self):
        shallow = ToeplitzModel.of_rank(2, max_depth=1)
        cfg = DiffusionConfig(shallow, dt=1e-2, horizon=5.0, seed=3)
        fast = simulate_path(cfg, mode="fast")
        full = simulate_path(cfg, mode="full")
        assert fast.partial and full.partial
        assert fast.steps_used == full.steps_used
        assert fast.stop_row == full.stop_row
        assert fast.u_final == full.u_final

    def test_unknown_mode_rejected(self):
        cfg = DiffusionConfig(SUB, dt=0.1, horizon=0.5)
        with pytest.raises(DomainError):
            simulate_path(cfg, mode="banana")

    def test_full_mode_draws_one_noise_stream(self, monkeypatch):
        """A full-mode path builds one Philox generator: the du stream."""
        built, philox = [], np.random.Philox

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=1.0, seed=3)
        assert simulate_path(cfg, mode="full").mode == "full"
        assert len(built) == 1


class TestChunkedNoise:
    """Noise is streamed in CHUNK-step pieces; chunk edges must not show."""

    SHARED = ("u_final", "row_final", "steps_used", "partial", "stop_row",
              "row_steps", "row_crossings", "min_row", "max_row", "trace")

    def test_modes_agree_across_chunks(self):
        # 150,000 steps are three chunks; the stride does not divide CHUNK
        cfg = DiffusionConfig(SUB, dt=1e-3, horizon=150.0, seed=8,
                              trace_stride=7919)
        assert cfg.n_steps > 2 * CHUNK
        fast = simulate_path(cfg, mode="fast")
        full = simulate_path(cfg, mode="full")
        for name in self.SHARED:
            assert getattr(fast, name) == getattr(full, name), name
        assert [k for k, _, _ in fast.trace] == list(range(0, cfg.n_steps, 7919))
        assert list(fast.row_steps) == sorted(fast.row_steps)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_truncation_after_the_first_chunk(self, seed):
        # depth-3 filling leaves row -14 uncolored; the walk needs more than
        # one chunk of dt=1e-4 steps to drift down to it
        shallow = ToeplitzModel.of_rank(2, max_depth=3)
        cfg = DiffusionConfig(shallow, dt=1e-4, horizon=40.0, seed=seed,
                              trace_stride=7919)
        fast = simulate_path(cfg, mode="fast")
        full = simulate_path(cfg, mode="full")
        assert fast.partial and fast.steps_used > CHUNK
        for name in self.SHARED:
            assert getattr(fast, name) == getattr(full, name), name
        assert fast.stop_row == -14

    def test_trace_ends_at_the_stop_state(self):
        shallow = ToeplitzModel.of_rank(2, max_depth=1)
        cfg = DiffusionConfig(shallow, dt=1e-2, horizon=5.0, seed=3,
                              trace_stride=1)
        fast = simulate_path(cfg, mode="fast")
        full = simulate_path(cfg, mode="full")
        assert fast.partial and fast.trace == full.trace
        assert fast.trace[-1] == (fast.steps_used, fast.u_final, fast.stop_row)

    def test_chunks_concatenate_to_one_draw(self):
        cfg = DiffusionConfig(SUB, dt=1e-3, horizon=150.0, seed=5)
        # each chunk is a view of the caller's buffer, overwritten by the next
        out = np.empty(CHUNK)
        chunks = []
        for chunk in _noise(cfg, 3, out):
            assert np.shares_memory(chunk, out)
            chunks.append(chunk.copy())
        n = cfg.n_steps
        assert [len(c) for c in chunks] == [CHUNK, CHUNK, n - 2 * CHUNK]
        key = np.random.SeedSequence(entropy=5, spawn_key=(3, 0))
        draws = np.random.Generator(np.random.Philox(key)).standard_normal(n)
        expected = draws * math.sqrt(1e-3) - 1e-3 / 2.0
        assert np.array_equal(np.concatenate(chunks), expected)


#: Every PathResult field both modes fill: all but the mode's own name.
SHARED_FIELDS = tuple(f for f in PathResult.__match_args__ if f != "mode")
#: A model that colors every row, and ones whose capped filling truncates.
MODELS = (SUB, ToeplitzModel.of_rank(2, max_depth=1),
          ToeplitzModel.of_rank(2, max_depth=2),
          ToeplitzModel.of_rank(2, max_depth=3))


def run_both(model, dt, steps, stride, seed, u0, chunk):
    """The same path in both modes, with noise chunks of the given size."""
    cfg = DiffusionConfig(model, dt=dt, horizon=steps * dt, seed=seed,
                          trace_stride=stride)
    start = LeafState(u=u0, row=math.floor(u0 / LN2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diffusion, "CHUNK", chunk)
        return (simulate_path(cfg, start, mode="fast"),
                simulate_path(cfg, start, mode="full"))


class TestModeAgreement:
    """Fast and full mode agree on every shared field, whatever the step size
    (up to several rows a step), truncation, trace stride or chunk size."""

    @settings(max_examples=150, deadline=None)
    @given(model=st.sampled_from(MODELS),
           dt=st.floats(-3.0, math.log10(4.0)).map(lambda e: 10.0**e),
           steps=st.integers(0, 300),
           stride=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1),
           u0=st.floats(-6.0, 6.0),
           chunk=st.sampled_from((1, 2, 3, 7, 64, CHUNK)))
    @example(model=SUB, dt=1e-3, steps=0, stride=1, seed=0, u0=0.4, chunk=CHUNK)
    @example(model=MODELS[1], dt=4.0, steps=300, stride=7, seed=1, u0=0.0,
             chunk=CHUNK)
    @example(model=MODELS[1], dt=1.0, steps=3, stride=1, seed=6, u0=0.0,
             chunk=2)  # the last step lands on an uncolorable row
    def test_every_shared_field(self, model, dt, steps, stride, seed, u0, chunk):
        fast, full = run_both(model, dt, steps, stride, seed, u0, chunk)
        for name in SHARED_FIELDS:
            assert getattr(fast, name) == getattr(full, name), name

    def test_chunk_edges_are_exercised(self):
        """Over these seeds, truncations and row changes fall on the first and
        the last step of a 4-step chunk, a complete path ends on a row the
        model cannot color, and the modes still agree."""
        chunk = 4
        seen = set()
        for seed, steps in zip(range(80), [40] * 40 + [3] * 40):
            fast, full = run_both(MODELS[1], 1.0, steps, 1, seed, 0.0, chunk)
            for name in SHARED_FIELDS:
                assert getattr(fast, name) == getattr(full, name), name
            edges = {0: "first", chunk - 1: "last"}
            if fast.partial and fast.steps_used % chunk in edges:
                seen.add(("truncation", edges[fast.steps_used % chunk]))
            if not fast.partial and fast.row_final % 3 == 1:  # uncolored row
                seen.add(("ends uncolored", True))
            for (k, _, a), (_, _, b) in zip(fast.trace, fast.trace[1:]):
                if a != b and k % chunk in edges:
                    seen.add(("row change", edges[k % chunk]))
                    seen.add(("jump", abs(b - a) > 1))
        assert seen >= {("truncation", "first"), ("truncation", "last"),
                        ("row change", "first"), ("row change", "last"),
                        ("jump", True), ("ends uncolored", True)}


class TestBoundedMemory:
    """Peak traced allocation of one path stays flat in the step count."""

    @pytest.mark.parametrize("mode, horizon", [("fast", 5000.0),
                                               ("full", 1000.0)])
    def test_peak_allocation(self, mode, horizon):
        cfg = DiffusionConfig(SUB, dt=1e-3, horizon=horizon, seed=2)
        tracemalloc.start()
        try:
            res = simulate_path(cfg, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.steps_used == cfg.n_steps == round(horizon * 1000)
        assert peak < 16 * 2**20


class TestOccupancy:
    def test_row_steps_sum_to_steps_used(self):
        cfg = DiffusionConfig(SUB, dt=1e-3, horizon=3.0, seed=9)
        res = simulate_path(cfg)
        assert sum(res.row_steps.values()) == res.steps_used == cfg.n_steps
        assert res.time_elapsed == pytest.approx(3.0)

    def test_letter_steps_regroup_rows(self):
        cfg = DiffusionConfig(SUB, dt=1e-3, horizon=3.0, seed=9)
        res = simulate_path(cfg)
        by_letter = res.letter_steps(SUB)
        assert sum(by_letter.values()) == res.steps_used
        manual = {}
        for row, steps in res.row_steps.items():
            label = SUB.block_letter(0, row)
            manual[label] = manual.get(label, 0) + steps
        assert by_letter == manual

    def test_level_zero_blocks_are_letters(self):
        cfg = DiffusionConfig(SUB, dt=1e-3, horizon=2.0, seed=4)
        res = simulate_path(cfg)
        assert res.block_steps(SUB, 0) == res.letter_steps(SUB)

    def test_undetermined_block_raises_its_cap_error(self):
        capped = ToeplitzModel.of_rank(2, max_depth=2)
        res = simulate_path(DiffusionConfig(capped, dt=1e-2, horizon=1.0,
                                            seed=0))
        assert not res.partial
        first = next(iter(res.row_steps)) // capped.level_length(2)
        with pytest.raises(CapError) as expected:
            capped.block_letter(2, first)
        with pytest.raises(CapError) as got:
            res.block_steps(capped, 2)
        assert str(got.value) == str(expected.value)

    def test_rank_one_spends_everything_on_one_color(self):
        cfg = DiffusionConfig(ToeplitzModel.of_rank(1), dt=1e-2, horizon=3.0,
                              seed=1)
        res = simulate_path(cfg)
        assert res.letter_steps(cfg.model) == {1: res.steps_used}

    def test_zero_horizon_path(self):
        cfg = DiffusionConfig(SUB, dt=0.1, horizon=0.0, paths=30)
        res = run_paths(cfg)
        assert all(r.steps_used == 0 and not r.partial for r in res)
        stats = log_height_stats(res)
        assert stats["mean"] == 0.0 and stats["variance"] == 0.0


class TestTruncation:
    def test_partial_flag_and_stop_row(self):
        shallow = ToeplitzModel.of_rank(2, max_depth=1)
        cfg = DiffusionConfig(shallow, dt=1e-2, horizon=5.0, paths=5, seed=0)
        results = run_paths(cfg)
        assert all(r.partial for r in results)
        for r in results:
            # depth-1 filling leaves exactly the rows = 1 mod 3 uncolored
            assert r.stop_row % 3 == 1
            assert r.steps_used < cfg.n_steps
            # every *visited* row was colorable
            assert all(row % 3 != 1 for row in r.row_steps)

    def test_deep_cap_never_triggers_here(self):
        cfg = DiffusionConfig(ToeplitzModel.of_rank(2), dt=1e-2, horizon=5.0,
                              paths=5, seed=0)
        assert not any(r.partial for r in run_paths(cfg))


class TestHeightLaw:
    def test_drift_compensation_centers_samples(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=4.0, paths=200, seed=3)
        res = run_paths(cfg)
        stats = log_height_stats(res)
        # N(0, 4) with 200 paths: the seed-3 draw sits well inside 4 sigma
        assert abs(stats["mean"]) < 0.57
        assert 2.5 < stats["variance"] < 5.7
        assert stats["expected_mean"] == 0.0
        assert stats["expected_variance"] == pytest.approx(4.0)

    def test_raw_displacement_shows_the_drift(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=4.0, paths=200, seed=3)
        res = run_paths(cfg)
        mean_disp = sum(r.displacement for r in res) / len(res)
        assert mean_disp == pytest.approx(-2.0, abs=0.6)  # -T/2

    def test_distribution_passes_ks(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=5.0, paths=60, seed=11)
        res = run_paths(cfg)
        stat, pvalue = height_law_test(res)
        assert 0.0 < stat < 1.0
        assert pvalue > 0.05

    def test_small_samples_rejected(self):
        cfg = DiffusionConfig(SUB, dt=0.1, horizon=0.5, paths=5)
        res = run_paths(cfg)
        with pytest.raises(DomainError) as stats:
            log_height_stats(res)
        with pytest.raises(DomainError) as law:
            height_law_test(res)
        assert str(stats.value) == "need at least 30 complete paths, got 5"
        assert str(law.value) == ("need at least 30 complete paths for the "
                                  "distribution test, got 5")

    def test_partial_paths_are_excluded(self):
        shallow = ToeplitzModel.of_rank(2, max_depth=1)
        cfg = DiffusionConfig(shallow, dt=1e-2, horizon=5.0, paths=4, seed=0)
        assert len(log_height_samples(run_paths(cfg))) == 0

    def test_zero_horizon_has_no_law(self):
        cfg = DiffusionConfig(SUB, dt=0.1, horizon=0.0, paths=30)
        with pytest.raises(DomainError):
            height_law_test(run_paths(cfg))


#: Models of constant-length rules with the fixed-point property (image of 1
#: starts with 1, image of 2 ends with 2), over 2 or 3 letters.
@st.composite
def fixed_point_models(draw):
    r = draw(st.integers(2, 3))
    length = draw(st.integers(2, 4))
    images = [draw(st.lists(st.integers(1, r), min_size=length,
                            max_size=length)) for _ in range(r)]
    images[0][0], images[1][-1] = 1, 2
    return SubstitutionModel(tuple(map(tuple, images)))


class TestExpectedFractions:
    def test_substitution_letters_split_evenly(self):
        for q in range(4):
            assert expected_block_fractions(SUB, q) == (0.5, 0.5)

    def test_one_letter_is_all_one_label(self):
        one = ToeplitzModel.of_rank(1, max_depth=3)
        for q in range(3):
            assert expected_block_fractions(one, q) == (1.0,)

    def test_changing_level_matrices_are_rejected(self):
        for q in (0, 1):
            with pytest.raises(DomainError, match="matrices differ"):
                expected_block_fractions(ToeplitzModel.of_rank(2), q)

    @given(model=fixed_point_models(), q=st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_fixed_vector_is_the_deepened_limit(self, model, q):
        count = ergodic_measure_count(model)
        assume(count.status == "stabilized" and count.count == 1)
        want = deepened_block_fractions(model, q)
        got = expected_block_fractions(model, q)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
        assert sum(got) == pytest.approx(1.0, abs=1e-15)


class TestGarnettCompare:
    def test_unique_measure_comparison(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=50.0, paths=10, seed=1)
        table = garnett_compare(cfg, run_paths(cfg), q=0)
        assert table["unique_measure"] is True
        assert table["complete_paths"] == 10
        assert table["note"] == ""
        for row in table["labels"]:
            assert row["expected"] == pytest.approx(0.5, abs=1e-6)
            assert 0.0 <= row["empirical"] <= 1.0
            assert row["band"] > 0.0
        total = sum(row["empirical"] for row in table["labels"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_level_one_blocks(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=50.0, paths=10, seed=1)
        table = garnett_compare(cfg, run_paths(cfg), q=1)
        assert table["level"] == 1
        assert len(table["labels"]) == 2

    def test_non_unique_measures_get_no_expectation(self):
        cfg = DiffusionConfig(ToeplitzModel.of_rank(2), dt=1e-2, horizon=5.0,
                              paths=5, seed=2)
        table = garnett_compare(cfg, run_paths(cfg), q=0)
        assert table["unique_measure"] is False
        assert "non-uniquely-ergodic" in table["note"]
        assert all(row["expected"] is None for row in table["labels"])

    def test_all_partial_paths_is_a_cap(self):
        shallow = ToeplitzModel.of_rank(2, max_depth=1)
        cfg = DiffusionConfig(shallow, dt=1e-2, horizon=5.0, paths=5, seed=0)
        with pytest.raises(CapError):
            garnett_compare(cfg, run_paths(cfg), q=0)

    def test_zero_horizon_is_a_domain_error(self):
        cfg = DiffusionConfig(SUB, horizon=0.0, paths=31, seed=2)
        results = run_paths(cfg)
        assert all(not r.partial and r.n_steps == 0 for r in results)
        with pytest.raises(DomainError, match="no complete path took a step"):
            garnett_compare(cfg, results, q=0)

    def test_precomputed_results_accepted(self):
        cfg = DiffusionConfig(SUB, dt=1e-2, horizon=20.0, paths=8, seed=6)
        res = run_paths(cfg)
        table = garnett_compare(cfg, q=0, results=res)
        assert table["paths"] == 8
        assert table["total_steps"] == sum(r.steps_used for r in res)
