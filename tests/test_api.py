"""The public surface: one name per job."""

import pytest

import hyptiling
from hyptiling.measures import TransitionMatrix
from hyptiling.symbolic import AtlasLevel, ToeplitzModel

# Names that only repeated a job another public name does.
DELETED = ("letter_counts", "limit_frequencies", "Occurrence",
           "enumerate_occurrences", "occurrence_table_json")


def test_every_listed_name_resolves():
    for name in hyptiling.__all__:
        assert hasattr(hyptiling, name), name


def test_deleted_names_are_not_listed():
    for name in DELETED:
        assert name not in hyptiling.__all__
        assert not hasattr(hyptiling, name)


def test_deleted_methods_and_fields_are_gone():
    assert not hasattr(ToeplitzModel, "letter_step")
    assert not hasattr(AtlasLevel, "words")
    assert not hasattr(TransitionMatrix, "entry")
    assert not hasattr(TransitionMatrix, "column")
    assert "track_position" not in hyptiling.DiffusionConfig.__match_args__


def test_verify_runs_the_same_checks_quick_and_full():
    from hyptiling.verification import run_all

    quick, full = run_all(quick=True), run_all(quick=False)
    assert [c.name for c in quick] == [c.name for c in full]
    assert all(c.passed for c in quick + full)


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
