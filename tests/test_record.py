"""Frozen records: construction, validation, equality, repr, immutability
and pickling behave as `@dataclass(frozen=True)` did."""

import pickle
from fractions import Fraction

import pytest

from hyptiling import (
    AffineMap,
    DiffusionConfig,
    DomainError,
    LeafState,
    SubstitutionModel,
    SubstitutionRule,
    TileAddress,
    ToeplitzSpec,
    simulate_path,
    transition_matrix,
)

SUB = SubstitutionModel.standard()


def _path():
    cfg = DiffusionConfig(SUB, dt=0.5, horizon=1.5, trace_stride=1)
    return simulate_path(cfg, mode="full")


class TestConstruction:
    def test_positional_and_keyword(self):
        assert TileAddress(3, 5) == TileAddress(row=3, col=5) == TileAddress(3, col=5)
        tile = TileAddress(3, 5)
        assert (tile.row, tile.col) == (3, 5)

    def test_defaults(self):
        cfg = DiffusionConfig(SUB)
        assert (cfg.dt, cfg.horizon, cfg.paths, cfg.seed, cfg.trace_stride) == (
            1e-3, 2000.0, 50, 0, 0)
        assert ToeplitzSpec(3).max_depth == 48
        assert DiffusionConfig(SUB, seed=4).paths == 50

    @pytest.mark.parametrize("args, kwargs", [
        ((3,), {}),                 # missing
        ((3, 5, 7), {}),            # too many
        ((3, 5), {"depth": 1}),     # unknown
        ((3,), {"row": 3}),         # duplicated
    ])
    def test_bad_arguments(self, args, kwargs):
        with pytest.raises(TypeError):
            TileAddress(*args, **kwargs)

    def test_post_init_validates(self):
        with pytest.raises(DomainError):
            DiffusionConfig(SUB, dt=0)
        with pytest.raises(DomainError):
            AffineMap(-1, 0)
        with pytest.raises(DomainError):
            LeafState(0.25, 1, 0, 0.5)

    def test_post_init_coerces(self):
        m = AffineMap(2, 0.5)
        assert type(m.a) is Fraction and type(m.b) is Fraction
        assert (m.a, m.b) == (2, Fraction(1, 2))


class TestValueSemantics:
    def test_eq_and_hash_over_fields(self):
        assert TileAddress(1, 2) != TileAddress(2, 1)
        assert hash(TileAddress(1, 2)) == hash((1, 2))
        assert len({TileAddress(1, 2), TileAddress(1, 2), AffineMap(1, 2)}) == 2
        assert TileAddress(1, 2).__eq__((1, 2)) is NotImplemented
        assert TileAddress(1, 2) != (1, 2)
        assert _path() == _path()
        rule = SubstitutionRule(([1, 1, 2], [1, 2, 2]))  # a one-field record
        assert rule == SubstitutionRule(((1, 1, 2), (1, 2, 2)))
        assert hash(rule) == hash((((1, 1, 2), (1, 2, 2)),))

    def test_unhashable_field_makes_record_unhashable(self):
        with pytest.raises(TypeError):
            hash(_path())

    def test_match_args_are_the_fields_in_order(self):
        assert TileAddress.__match_args__ == ("row", "col")
        match TileAddress(4, -1):
            case TileAddress(row, col=c):
                assert (row, c) == (4, -1)

    def test_repr_is_the_dataclass_text(self):
        assert repr(TileAddress(3, 5)) == "TileAddress(row=3, col=5)"
        assert repr(AffineMap(Fraction(1, 2), 3)) == (
            "AffineMap(a=Fraction(1, 2), b=Fraction(3, 1))")
        assert repr(DiffusionConfig(SUB, dt=0.5, horizon=1.0, paths=2)) == (
            "DiffusionConfig(model=SubstitutionModel(112/122), dt=0.5, "
            "horizon=1.0, paths=2, seed=0, trace_stride=0)")
        assert repr(transition_matrix(SUB, 2, "paper")) == (
            "TransitionMatrix(level=2, scheme='paper', "
            "ints=((65792, 65536), (1, 257)), shift=16)")
        assert repr(_path()) == (
            "PathResult(path_index=0, mode='full', dt=0.5, n_steps=3, "
            "steps_used=3, partial=False, u0=0.4054651081081644, "
            "u_final=1.0232101772839672, row_final=1, min_row=0, max_row=1, "
            "row_crossings=3, row_steps={0: 2, 1: 1}, stop_row=None, "
            "col_final=0, x_frac_final=0.26066351361301604, "
            "trace=((0, 0.4054651081081644, 0), (1, 1.0689543896292992, 1), "
            "(2, 0.6579883560479729, 0), (3, 1.0232101772839672, 1)))")

    @pytest.mark.parametrize("name", ["row", "extra"])
    def test_frozen(self, name):
        tile = TileAddress(1, 2)
        with pytest.raises(AttributeError):
            setattr(tile, name, 7)
        with pytest.raises(AttributeError):
            delattr(tile, name)
        assert tile == TileAddress(1, 2) and not hasattr(tile, "extra")

    def test_cached_rows(self):
        m = transition_matrix(SUB, 2, "paper")
        assert m.rows is m.rows
        assert m.rows[1][1] == Fraction(257, 65536)
        fresh = transition_matrix(SUB, 2, "paper")
        assert m == fresh and hash(m) == hash(fresh)

    @pytest.mark.parametrize("make", [
        lambda: TileAddress(3, 5),
        lambda: AffineMap(Fraction(1, 3), -2),
        lambda: DiffusionConfig(SUB, dt=0.5, horizon=1.0, paths=2),
        lambda: transition_matrix(SUB, 2, "paper"),
        lambda: SubstitutionRule(((1, 1, 2), (1, 2, 2))),
        _path,
    ])
    def test_pickle_round_trip(self, make):
        value = make()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and repr(copy) == repr(value)
        with pytest.raises(AttributeError):
            copy.dt = 1.0
