"""Read-only inputs: every array the library keeps is a read-only copy taken
where it enters.

An in-place write into a kept array raises ValueError.  A field's values and
time grid may be reassigned: the new pair is checked as on construction, and
a rejected one leaves the field as it was.  Sources, data and observation
specs cannot be reassigned at all, and a point's copy shares its arrays.
"""

import dataclasses

import numpy as np
import pytest

import waveinv as wi
from waveinv import galerkin
from waveinv.errors import DirectionShapeError, ResolutionError
from waveinv.galerkin import check_direction, read_only

from conftest import modal_source, smooth_direction, varied_point

TG = np.linspace(0.0, 1.0, 21)


def kept_inputs(disc):
    """Every kind of input the library keeps, by name, each built from a caller's array."""
    field = varied_point(disc, TG).fields["a"]
    spec = wi.ObservationSpec(kind="node-subset", indices=[1, 4], weights=[1.0, 2.0])
    data = wi.DataVector(np.ones((TG.size, 2)), TG, spec)
    direction = smooth_direction(disc, TG, ("q",))
    source = wi.SourceTerm(np.ones((TG.size, disc.n_free)), disc, TG)
    return {
        "field-values": field.values,
        "field-time-grid": field.time_grid,
        "source-values": source.values,
        "source-time-grid": source.time_grid,
        "data-values": data.values,
        "data-time-grid": data.time_grid,
        "spec-indices": spec.indices,
        "spec-weights": spec.weights,
        "direction-table": check_direction(disc.problem, direction["q"].shape, direction)["q"],
    }


@pytest.mark.parametrize("name", sorted(kept_inputs(wi.build_grid("wave1d", 4))))
def test_a_kept_input_rejects_an_in_place_write(wave_disc, name):
    kept = kept_inputs(wave_disc)[name]
    before = kept.copy()
    for write in (lambda: kept.__setitem__(0, 7), lambda: kept.__iadd__(1)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert np.array_equal(kept, before)


def test_read_only_copies_a_callers_array_and_passes_its_own():
    given = np.arange(4.0)
    older_view = given[:]
    given.flags.writeable = False
    kept = read_only(given)
    older_view[0] = 9.0  # still writes into the array the caller marked read-only
    assert kept[0] == 0.0
    tail = kept[1:]
    assert read_only(kept) is kept and read_only(tail) is tail
    with pytest.raises(ValueError):
        kept.flags.writeable = True
    assert read_only(kept, np.int64).dtype == np.int64


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("values", np.full((TG.size, 5), np.nan), DirectionShapeError),
        ("values", np.ones((TG.size - 1, 5)), DirectionShapeError),
        ("time_grid", np.linspace(0.0, 1.0, TG.size + 1), DirectionShapeError),
        ("time_grid", TG**2, ResolutionError),
    ],
    ids=["non-finite-values", "values-row-count", "grid-node-count", "non-uniform-grid"],
)
def test_a_rejected_reassignment_leaves_the_field_as_it_was(name, value, error):
    field = wi.ParameterField.constant(1.0, TG, 5)
    values, time_grid = field.values, field.time_grid
    with pytest.raises(error) as info:
        setattr(field, name, value)
    assert type(info.value) is error
    assert field.values is values and field.time_grid is time_grid


def test_an_accepted_reassignment_is_a_read_only_copy():
    field = wi.ParameterField.constant(1.0, TG, 5)
    given = np.full((TG.size, 5), 2.0)
    field.values = given
    given[0, 0] = 5.0
    assert np.all(field.values == 2.0)
    assert not field.values.flags.writeable


def test_a_point_copy_shares_every_array_without_the_field_check(wave_disc, monkeypatch):
    point = varied_point(wave_disc, TG)

    def refuse(values, time_grid):
        raise AssertionError("the field check ran")

    monkeypatch.setattr(galerkin, "_check_field", refuse)
    other = point.copy()
    assert other.fields is not point.fields
    for name, field in point.fields.items():
        assert other.fields[name] is not field
        assert other.fields[name].values is field.values
        assert other.fields[name].time_grid is field.time_grid


def test_a_solve_keeps_the_point_without_copying_its_arrays(wave_disc):
    point = varied_point(wave_disc, TG)
    timeline = wi.forward_map(wave_disc, point, modal_source(wave_disc, TG)).solve.timeline
    assert timeline.time_grid is point.time_grid
    for name, field in point.fields.items():
        assert timeline.point.fields[name].values is field.values


def test_sources_data_and_specs_cannot_be_reassigned():
    spec = wi.ObservationSpec(kind="node-subset", indices=[2, 3])
    data = wi.DataVector(np.ones((TG.size, 2)), TG, spec)
    source = wi.SourceTerm(np.ones((TG.size, 2)), wi.build_grid("wave1d", 3), TG)
    for kept, name, value in (
        (spec, "indices", np.array([2, -1])),
        (data, "values", np.full((TG.size, 2), np.nan)),
        (source, "values", np.ones(3)),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kept, name, value)
    assert np.array_equal(spec.indices, [2, 3])
