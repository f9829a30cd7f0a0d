"""Equality, hashing and defaults of the package's hand-written classes."""

import numpy as np

from apmlab.checks import ScenarioContext
from apmlab.germs import ConnectionParams, flat_product_germ
from apmlab.report import CheckReport
from apmlab.scenarios import Scenario
from apmlab.tensors import PointStructure, split_structure


def test_connection_params_key_a_dict_and_keep_their_repr():
    frames = {ConnectionParams(0.0, 0.0): "D", ConnectionParams.d_tilde(2): "D_tilde"}
    assert frames[ConnectionParams.d()] == "D"
    assert frames[ConnectionParams(lam=0.0, mu=-0.25)] == "D_tilde"
    assert ConnectionParams(1.0, 0.0) != ConnectionParams(0.0, 1.0)
    assert ConnectionParams(1.0, 0.0) != (1.0, 0.0)
    assert repr(ConnectionParams.d_tilde(2)) == "ConnectionParams(lam=0.0, mu=-0.25)"


def test_a_context_builds_one_connection_per_equal_parameters():
    ctx = ScenarioContext(germ=flat_product_germ(2))
    assert ctx.connection(ConnectionParams(0.0, 0.0)) is ctx.connection(ConnectionParams.d())


def _shared_containers(first, second) -> list[str]:
    return [
        name for name, value in vars(first).items()
        if isinstance(value, (dict, list)) and value is vars(second)[name]
    ]


def test_objects_built_with_default_dicts_and_lists_share_none():
    germ = flat_product_germ(2)
    pairs = [
        (CheckReport(name="a"), CheckReport(name="b")),
        (ScenarioContext(germ), ScenarioContext(germ)),
        (Scenario("a", germ, [], []), Scenario("b", germ, [], [])),
    ]
    for first, second in pairs:
        assert _shared_containers(first, second) == [], type(first).__name__
    first, second = pairs[0]
    first.residuals["r"] = 1.0
    first.notes.append("note")
    assert second.residuals == {} and second.notes == []


def test_point_structures_compare_and_hash_by_identity():
    # Generated field equality raised here: it compared numpy arrays.
    ps = split_structure(4)
    twin = PointStructure(ps.g, ps.p)
    assert ps == ps and ps != twin
    assert hash(ps) == hash(ps)
    assert len({ps: 0, twin: 1}) == 2
    assert np.array_equal(ps.g_inv, twin.g_inv)
