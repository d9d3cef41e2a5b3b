import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    make_line_instance,
    make_square_instance,
    mixed_traffic_cases,
    planning_cases,
)
from meshplan.instance import (
    InstanceError,
    RadioParams,
    build_grid_instance,
    connectivity_matrix,
    coverage_matrix,
    default_gateway_count,
    grid_neighbors,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    row_capacities,
    save_instance,
)


def test_grid_geometry_row_major():
    inst = build_grid_instance(3, 4, n_dps=5, radio=RadioParams(), seed=0)
    assert inst.num_sites == 12
    assert inst.sites[0].tolist() == [0.0, 0.0]
    assert inst.sites[3].tolist() == [3.0, 0.0]
    assert inst.sites[4].tolist() == [0.0, 1.0]
    assert inst.sites[11].tolist() == [3.0, 2.0]


def test_demand_points_inside_hull():
    inst = build_grid_instance(4, 6, n_dps=300, radio=RadioParams(), seed=3)
    assert inst.dp_positions[:, 0].min() >= 0.0
    assert inst.dp_positions[:, 0].max() <= 5.0
    assert inst.dp_positions[:, 1].max() <= 3.0
    assert np.all(inst.dp_traffic == 2.0)


def test_coverage_matrix_matches_distances(standard_instance):
    a = coverage_matrix(standard_instance)
    d = np.hypot(
        standard_instance.dp_positions[:, None, 0]
        - standard_instance.sites[None, :, 0],
        standard_instance.dp_positions[:, None, 1]
        - standard_instance.sites[None, :, 1],
    )
    expected = (d <= standard_instance.coverage_radius + 1e-12).astype(np.uint8)
    assert np.array_equal(a, expected)
    assert a.flags.writeable is False


def test_coverage_matrix_without_demand_points():
    inst = make_line_instance(3, dp_sites=(), dp_positions=np.zeros((0, 2)))
    a = coverage_matrix(inst)
    assert a.shape == (0, 3) and a.dtype == np.uint8


def test_connectivity_is_lattice_at_unit_range(standard_instance):
    b = connectivity_matrix(standard_instance)
    assert np.array_equal(b, b.T)
    assert not b.diagonal().any()
    for j in range(standard_instance.num_sites):
        assert set(np.flatnonzero(b[j])) == set(
            grid_neighbors(standard_instance, j)
        )


def test_grid_neighbors_order_north_east_south_west():
    inst = build_grid_instance(3, 3, n_dps=2, radio=RadioParams(), seed=0)
    assert grid_neighbors(inst, 4) == [7, 5, 1, 3]
    assert grid_neighbors(inst, 0) == [3, 1]
    assert grid_neighbors(inst, 8) == [5, 7]


def test_matrices_deterministic_and_cached(standard_instance):
    a1 = coverage_matrix(standard_instance)
    a2 = coverage_matrix(standard_instance)
    assert a1 is a2
    # a generated grid has no overrides: every link has capacity C_max
    assert standard_instance.link_capacities() == {}
    links = np.array([[0, 1, 0], [7, 6, 10]])
    assert row_capacities(standard_instance, links) == [54.0, 54.0]


def test_link_capacities_hold_overrides_both_ways():
    inst = make_square_instance(
        capacity_overrides=((0, 1, 0, 10.0), (2, 3, 1, 5.0), (3, 2, 1, 7.0))
    )
    # a later override of the same link, in either direction, wins
    assert inst.link_capacities() == {
        (0, 1, 0): 10.0, (1, 0, 0): 10.0, (2, 3, 1): 7.0, (3, 2, 1): 7.0,
    }
    links = np.array([[1, 0, 0], [0, 1, 1], [2, 3, 1]])
    assert row_capacities(inst, links) == [10.0, 54.0, 7.0]
    assert row_capacities(inst, np.zeros((0, 3), dtype=np.int64)) == []


def test_same_seed_reproduces_instance():
    one = build_grid_instance(5, 5, n_dps=40, radio=RadioParams(), seed=9)
    two = build_grid_instance(5, 5, n_dps=40, radio=RadioParams(), seed=9)
    other = build_grid_instance(5, 5, n_dps=40, radio=RadioParams(), seed=10)
    assert one.content_hash() == two.content_hash()
    assert one.content_hash() != other.content_hash()


def test_round_trip_preserves_everything(tmp_path, standard_instance):
    path = tmp_path / "inst.json"
    save_instance(standard_instance, path)
    loaded = load_instance(path)
    assert loaded.content_hash() == standard_instance.content_hash()
    assert np.array_equal(loaded.sites, standard_instance.sites)
    assert np.array_equal(loaded.dp_positions, standard_instance.dp_positions)
    assert np.array_equal(
        coverage_matrix(loaded), coverage_matrix(standard_instance)
    )


def test_serialized_form_has_no_private_state(standard_instance):
    data = instance_to_dict(standard_instance)
    assert "_cache" not in json.dumps(data)
    rebuilt = instance_from_dict(data)
    assert rebuilt.content_hash() == standard_instance.content_hash()


def test_from_dict_rejects_unknown_version(standard_instance):
    data = instance_to_dict(standard_instance)
    data["version"] = 99
    with pytest.raises(InstanceError):
        instance_from_dict(data)


@pytest.mark.parametrize(
    "field,value",
    [
        ("sites", [[0.0, "a"], [1.0]]),
        ("demand_points", [{"x": 0.0}]),
        ("link_capacities", [{"l": 0, "k": 0, "capacity": 1.0}]),
        ("link_capacities", [{"j": "a", "l": 0, "k": 0, "capacity": 1.0}]),
        ("random_matrices", {"density": "dense"}),
        ("random_matrices", 5),
        ("C_max", "NaN"),
        ("coverage_radius", "NaN"),
        ("M", "NaN"),
        # non-integral or boolean counts are refused, not truncated
        ("R", 2.7),
        ("A", 3.9),
        ("rows", 3.5),
        ("seed", 1.5),
        ("link_capacities", [{"j": 0, "l": 1, "k": 0.9, "capacity": 1.0}]),
        ("K", True),
        ("random_matrices", {"density": True}),
        ("C_max", "54"),
        ("seed", -1),
        # non-finite positions, one in a full 6x6 grid and one on a lone DP
        ("sites", [[float("nan"), 0.0]] + [[float(j % 6), float(j // 6)]
                                           for j in range(1, 36)]),
        ("demand_points", [{"x": float("inf"), "y": 0.0, "traffic": 2.0}]),
        # strings and bools in positions and traffic are refused, not cast
        ("demand_points", [{"x": "0.05", "y": 0.0, "traffic": 2.0}]),
        ("demand_points", [{"x": 0.0, "y": 0.0, "traffic": True}]),
        ("sites", [["0", False]] + [[float(j % 6), float(j // 6)]
                                    for j in range(1, 36)]),
        pytest.param("C_max", 10**400, id="C_max-int-beyond-float"),
        # well-formed values that PlanningInstance refuses
        ("rows", 0),
        ("spacing", 0.0),
        ("coverage_radius", -1.0),
        ("M", 0.0),
        ("sites", [[0.0, 0.0]]),
        ("random_matrices", {"density": 1.5}),
        ("link_capacities", [{"j": 0, "l": 36, "k": 0, "capacity": 1.0}]),
        ("link_capacities", [{"j": 0, "l": 1, "k": 11, "capacity": 1.0}]),
        ("link_capacities", [{"j": 0, "l": 1, "k": 0, "capacity": 0.0}]),
    ],
)
def test_from_dict_rejects_malformed_fields(standard_instance, field, value):
    data = instance_to_dict(standard_instance)
    data[field] = value
    with pytest.raises(InstanceError):
        instance_from_dict(data)


def test_from_dict_names_missing_fields(standard_instance):
    data = instance_to_dict(standard_instance)
    del data["R"], data["sites"]
    with pytest.raises(InstanceError, match="missing fields: R, sites"):
        instance_from_dict(data)


def test_demand_arrays_must_agree_on_count(standard_instance):
    with pytest.raises(InstanceError, match="disagree on count"):
        dataclasses.replace(standard_instance, dp_traffic=np.ones(3))


def test_replace_derives_views_afresh():
    inst = build_grid_instance(3, 3, 10, RadioParams(), 0)
    assert coverage_matrix(inst).sum() == 30
    wider = dataclasses.replace(inst, coverage_radius=3.0)
    assert coverage_matrix(wider).sum() == 90


@st.composite
def overridden_instances(draw):
    """A planning instance, with or without mixed traffic, plus random
    capacity overrides; a link may be overridden more than once."""
    inst = draw(st.one_of(planning_cases(), mixed_traffic_cases()))[0]
    site = st.integers(0, inst.num_sites - 1)
    overrides = draw(st.lists(st.tuples(
        site, site, st.integers(0, inst.K - 1),
        st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    ), max_size=6))
    return dataclasses.replace(inst, capacity_overrides=tuple(overrides))


@settings(max_examples=100, deadline=None)
@given(overridden_instances())
# integer C_max and spacing, which the file holds as floats
@example(build_grid_instance(3, 3, 5, RadioParams(capacity=8), 0, spacing=1))
def test_json_round_trip_keeps_random_instances(inst):
    loaded = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    assert loaded.content_hash() == inst.content_hash()
    for name in ("sites", "dp_positions", "dp_traffic"):
        assert np.array_equal(getattr(loaded, name), getattr(inst, name))
    assert np.array_equal(coverage_matrix(loaded), coverage_matrix(inst))
    assert np.array_equal(connectivity_matrix(loaded), connectivity_matrix(inst))
    assert loaded.link_capacities() == inst.link_capacities()


def test_load_instance_rejects_unreadable_files(tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff\xfe not json")
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]\n")  # valid JSON, but not an object
    for path in (tmp_path / "missing.json", tmp_path, garbled, listed):
        with pytest.raises(InstanceError):
            load_instance(path)


def test_random_matrix_override_is_seeded():
    inst = build_grid_instance(
        3, 3, n_dps=10, radio=RadioParams(), seed=4, random_matrix_density=0.5
    )
    again = build_grid_instance(
        3, 3, n_dps=10, radio=RadioParams(), seed=4, random_matrix_density=0.5
    )
    assert np.array_equal(coverage_matrix(inst), coverage_matrix(again))
    b = connectivity_matrix(inst)
    assert np.array_equal(b, b.T)
    assert not b.diagonal().any()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(traffic=0.0),
        dict(capacity=-1.0),
        dict(radios=0),
        dict(channels=2, radios=3),
        dict(max_hops=0),
        dict(traffic=float("nan")),
        dict(capacity=float("nan")),
        dict(traffic=float("inf")),
        dict(capacity=float("inf")),
        dict(traffic=1e308),  # finite, but its sum over the DPs is not
    ],
)
def test_radio_params_validation(kwargs):
    # a bad value is reported by its own name, not as the big-M derived
    # from traffic
    with pytest.raises(InstanceError) as err:
        build_grid_instance(3, 3, n_dps=3, radio=RadioParams(**kwargs), seed=0)
    assert "big-M" not in str(err.value)


def test_build_rejects_degenerate_shapes():
    with pytest.raises(InstanceError):
        build_grid_instance(1, 5, n_dps=3, radio=RadioParams(), seed=0)
    with pytest.raises(InstanceError):
        build_grid_instance(3, 3, n_dps=0, radio=RadioParams(), seed=0)


def test_build_rejects_negative_seed():
    with pytest.raises(InstanceError):
        build_grid_instance(3, 3, n_dps=3, radio=RadioParams(), seed=-1)


@pytest.mark.parametrize(
    "demand,cap,expected",
    [
        (400.0, 54.0, 8),
        (54.0, 54.0, 1),
        (108.0, 54.0, 2),
        (0.0, 54.0, 1),
        (1.0, 54.0, 1),
    ],
)
def test_default_gateway_count(demand, cap, expected):
    assert default_gateway_count(demand, cap) == expected
