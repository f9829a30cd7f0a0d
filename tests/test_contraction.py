"""The one contraction kernel, ``tensors.einsum``, against plain np.einsum.

Every (spec, shapes) that a bundled scenario of each dimension and order-4
frames in dims 4, 6 and 8 send through the kernel is checked against
np.einsum while it runs; ``jt_einsum`` is checked against a Leibniz loop
written on np.einsum; and a second run of a scenario plans nothing new.
"""

import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import apmlab
from apmlab import germs, jetfields, tensors
from apmlab.germs import ConnectionParams
from apmlab.jetfields import JetTensor, jt_einsum, jt_level
from apmlab.scenarios import load_bundled_scenario, run_scenario
from apmlab.tensors import einsum

RTOL = 1e-13
PACKAGE_ROOT = os.path.dirname(os.path.dirname(apmlab.__file__))
SCENARIOS = ("conformal_w1_separable_4d", "conformal_w1_separable_6d")
FRAME_FIELDS = (
    "g_inv", "g_assoc", "p_adjoint", "christoffel", "curvature", "f_tensor", "theta",
    "theta_p", "omega", "nabla_theta",
)
CONNECTION_FIELDS = (
    "torsion", "gamma", "curvature", "ricci", "tau", "tau_star", "torsion_mixed",
    "nabla_curvature", "nabla_theta",
)


def rel_err(got, ref) -> float:
    """max |got - ref| over max(1, max |ref|)."""
    ref = np.asarray(ref)
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return float(np.abs(np.asarray(got) - ref).max(initial=0.0)) / scale


@pytest.fixture
def checked_kernel(monkeypatch):
    """While active, every planned contraction checks each call against np.einsum.

    Yields {(spec, shapes): worst relative error}; a call that mutates an
    operand fails at once.
    """
    seen = {}
    plan = tensors.contraction.__wrapped__

    @functools.lru_cache(maxsize=None)
    def checked_contraction(spec, shapes):
        run = plan(spec, shapes)

        def checked(*operands):
            before = [op.copy() for op in operands]
            got = run(*operands)
            key = (spec, tuple(op.shape for op in operands))
            assert all(np.array_equal(op, b) for op, b in zip(operands, before)), key
            seen[key] = max(seen.get(key, 0.0), rel_err(got, np.einsum(spec, *before)))
            return got

        return checked

    monkeypatch.setattr(tensors, "contraction", checked_contraction)
    monkeypatch.setattr(jetfields, "contraction", checked_contraction)
    jetfields._leibniz_plan.cache_clear()
    yield seen
    jetfields._leibniz_plan.cache_clear()


def terms(spec: str, shapes) -> int:
    """The product of the lengths of the spec's indices."""
    size = {c: n for term, shape in zip(spec.split("->")[0].split(","), shapes)
            for c, n in zip(term, shape)}
    return math.prod(size.values())


def assert_all_match(seen, operands: int):
    assert {key: err for key, err in seen.items() if not err <= RTOL} == {}
    # The run reached the reordered products, not only plain einsum.
    assert any(spec.count(",") == operands - 1 and terms(spec, shapes) >= tensors.MATMUL_MIN_TERMS
               for spec, shapes in seen)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_contractions_match_einsum(checked_kernel, name):
    run_scenario(load_bundled_scenario(name))
    assert_all_match(checked_kernel, operands=3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_order4_frame_contractions_match_einsum(checked_kernel, n):
    germ = germs.conformal_flat_product_germ(n, "x1^2*x3 + sin(x2)*x4 + x1*x2")
    frame = germ.frame(order=4)
    for name in FRAME_FIELDS:
        getattr(frame, name)
    for params in (ConnectionParams.d(), ConnectionParams.d_tilde(n), ConnectionParams(1.0, 0.0)):
        connection = frame.connection(params)
        for name in CONNECTION_FIELDS:
            getattr(connection, name)
    assert_all_match(checked_kernel, operands=2)


def random_jet(rng, shape, dim, order) -> JetTensor:
    """A jet of random levels, each symmetric in its derivative axes."""
    data = []
    for k in range(order + 1):
        level = rng.uniform(-1.0, 1.0, shape + (dim,) * k)
        perms = list(itertools.permutations(range(len(shape), len(shape) + k)))
        lead = tuple(range(len(shape)))
        data.append(sum(level.transpose(lead + p) for p in perms) / len(perms))
    return JetTensor(tuple(data), dim)


def leibniz_reference(spec: str, a: JetTensor, b: JetTensor) -> list[np.ndarray]:
    """d^k(a b): for each subset S of the k derivative slots, a takes S and b the rest."""
    lhs, out = spec.split("->")
    sa, sb = lhs.split(",")
    letters = "ABCDEFGH"
    levels = []
    for k in range(min(a.order, b.order) + 1):
        d = letters[:k]
        total = 0.0
        for mask in itertools.product((True, False), repeat=k):
            da = "".join(c for c, m in zip(d, mask) if m)
            db = "".join(c for c, m in zip(d, mask) if not m)
            total = total + np.einsum(f"{sa}{da},{sb}{db}->{out}{d}",
                                      a.data[len(da)], b.data[len(db)])
        levels.append(total)
    return levels


LEIBNIZ_CASES = [
    ("ab,bc->ac", 2, 2), ("mk,kij->mij", 2, 3), ("lim,mjk->lijk", 3, 3),
    ("mijk,ml->ijkl", 4, 2), ("jk,i->ijk", 2, 1), ("ia,aijk->jk", 2, 4),
    ("jk,jk->", 2, 2), ("m,mk->k", 1, 2), ("ijk,k->ij", 3, 1), ("a,az->az", 1, 2),
    (",->", 0, 0), (",a->a", 0, 1),
]


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("spec,rank_a,rank_b", LEIBNIZ_CASES)
def test_jt_einsum_matches_a_leibniz_loop(spec, rank_a, rank_b, order):
    rng = np.random.default_rng([order, len(spec)])
    dim = 4
    a = random_jet(rng, (dim,) * rank_a, dim, order)
    b = random_jet(rng, (dim,) * rank_b, dim, order + 1)  # orders may differ
    before = [level.copy() for level in a.data + b.data]
    got = jt_einsum(spec, a, b)
    assert got.order == order
    for k, (level, ref) in enumerate(zip(got.data, leibniz_reference(spec, a, b))):
        assert np.shape(level) == np.shape(ref), k
        assert rel_err(level, ref) <= RTOL, k
        assert not any(np.shares_memory(level, x) for x in a.data + b.data), k
    assert all(np.array_equal(x, y) for x, y in zip(a.data + b.data, before))


@pytest.mark.parametrize("spec,rank_a,rank_b", LEIBNIZ_CASES)
def test_jt_level_is_that_level_of_jt_einsum(spec, rank_a, rank_b):
    rng = np.random.default_rng(len(spec))
    a = random_jet(rng, (4,) * rank_a, 4, 4)
    b = random_jet(rng, (4,) * rank_b, 4, 3)
    full = jt_einsum(spec, a, b)
    for k in range(4):
        level = jt_level(spec, a, b, k)
        assert level.tobytes() == full.data[k].tobytes(), k
        assert not any(np.shares_memory(level, x) for x in a.data + b.data), k


def test_jt_einsum_of_an_order0_operand():
    rng = np.random.default_rng(5)
    a = random_jet(rng, (6, 6), 6, 0)
    b = random_jet(rng, (6, 6, 6), 6, 3)
    got = jt_einsum("mk,kij->mij", a, b)
    assert got.order == 0
    assert rel_err(got.values, np.einsum("mk,kij->mij", a.values, b.values)) <= RTOL


EDGE_CASES = [
    (",z->z", [(), (6,)]),
    ("A,->A", [(6,), ()]),
    ("jk,i->ijk", [(6, 6), (6,)]),
    ("ijkl,i,j,k,l->", [(4,) * 4] + [(4,)] * 4),
    ("ijkl,i,j,k,l->", [(6,) * 4] + [(6,)] * 4),
    ("ijkl,i,j,k,l->", [(8,) * 4] + [(8,)] * 4),
    ("ijab,ak,bl->ijkl", [(6,) * 4, (6, 6), (6, 6)]),
    ("aijkb,am,bl->mijkl", [(6,) * 5, (6, 6), (6, 6)]),
    ("mk,ijkABC->mijABC", [(6, 6), (6,) * 6]),
    ("imjABC,mk->ijkABC", [(6,) * 6, (6, 6)]),
    ("kij,mkAB->imjAB", [(6,) * 3, (6,) * 4]),
    ("mk,kij->mij", [(2, 3), (3, 4, 5)]),
]


@pytest.mark.parametrize("spec,shapes", EDGE_CASES)
def test_edge_specs_match_einsum(spec, shapes):
    rng = np.random.default_rng(len(spec))
    operands = [rng.uniform(-1.0, 1.0, shape) for shape in shapes]
    before = [op.copy() for op in operands]
    got = einsum(spec, *operands)
    ref = np.einsum(spec, *before)
    assert np.shape(got) == np.shape(ref)
    assert rel_err(got, ref) <= RTOL
    assert all(np.array_equal(op, b) for op, b in zip(operands, before))


@pytest.mark.parametrize("name", SCENARIOS)
def test_second_run_plans_nothing(name):
    scenario = load_bundled_scenario(name)
    run_scenario(scenario)
    caches = (tensors.contraction, jetfields._leibniz_plan)
    misses = [cache.cache_info().misses for cache in caches]
    run_scenario(scenario)
    assert [cache.cache_info().misses for cache in caches] == misses


def test_nothing_is_planned_at_import():
    code = ("import apmlab, apmlab.cli; from apmlab import jetfields, tensors; "
            "print(tensors.contraction.cache_info().currsize, "
            "jetfields._leibniz_plan.cache_info().currsize)")
    # The child finds the apmlab this process imported, as run_cli's children do.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["0", "0"]
