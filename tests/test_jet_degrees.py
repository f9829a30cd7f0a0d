"""Degree bounds of jets: levels above a jet's degree are exact zeros, and skipping
the Leibniz splits over them changes no bit of any level or report."""

import contextlib
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmlab import cli, jetfields
from apmlab.exprs import FUNCTIONS, EvalError, parse_expr
from apmlab.germs import conformal_flat_product_germ

DIM = 4
POINT = np.array([0.4, -0.7, 1.3, 2.1])
POINTS = np.random.default_rng(5).uniform(-1.5, 1.5, (2, 3, DIM))


@contextlib.contextmanager
def untracked():
    """Degree tracking switched off: every jet reports its order as its degree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jetfields.JetTensor, "degree",
                      property(lambda jet: jet.order, lambda jet, value: None))
        yield


def sources(leaves=8):
    """Expression strings over the whole grammar: every operator, power and function."""
    leaf = st.sampled_from([f"x{i}" for i in range(1, DIM + 1)] + ["0", "1", "2.5", "3"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda e: f"-{e}"),
            st.tuples(inner, st.integers(-3, 5)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        )

    return st.recursive(leaf, extend, max_leaves=leaves)


def evaluated(src, points, order):
    """The jet of ``src``, or the EvalError it raises, with overflow left to the comparison."""
    with np.errstate(all="ignore"):
        try:
            return parse_expr(src, DIM).eval_jet(points, order)
        except EvalError as exc:
            return str(exc)


@settings(max_examples=150, deadline=None)
@given(sources(), st.integers(0, 5), st.booleans())
def test_degree_bounds_change_no_bit_of_an_expression_jet(src, order, array):
    points = POINTS if array else POINT
    jet = evaluated(src, points, order)
    with untracked():
        reference = evaluated(src, points, order)
    if isinstance(reference, str):
        assert jet == reference
        return
    assert jet.order == order and -1 <= jet.degree <= order
    for k, (level, expected) in enumerate(zip(jet.data, reference.data)):
        assert level.shape == expected.shape, k
        assert level.tobytes() == expected.tobytes(), k
        if k > jet.degree:
            assert not level.any(), k


def count_levels(monkeypatch):
    calls = []
    level = jetfields._level
    monkeypatch.setattr(jetfields, "_level", lambda *args: calls.append(args[-1]) or level(*args))
    return calls


@pytest.mark.parametrize("src, degree, tracked, full",
                         [("x1^2", 2, 3, 5), ("exp(2*(x1^2 + x3^2))", 4, 10, 14)])
def test_polynomial_levels_above_their_degree_take_no_level_product(src, degree, tracked, full,
                                                                    monkeypatch):
    calls = count_levels(monkeypatch)
    jet = parse_expr(src, DIM).eval_jet(POINT, 4)
    assert len(calls) == tracked
    calls.clear()
    with untracked():
        parse_expr(src, DIM).eval_jet(POINT, 4)
    assert len(calls) == full
    assert jet.degree == degree


@pytest.mark.parametrize("src, entries, value", [
    ("x1*x3", [(0, 2), (2, 0)], 1.0),
    ("x1*x3^2", [(0, 2, 2), (2, 0, 2), (2, 2, 0)], 2.0),
])
def test_a_level_whose_only_split_has_several_shuffles_sums_them_all(src, entries, value):
    # Only the j = 1 split (x1's first level) reaches the top level, with one
    # shuffle per entry; the in-place sum must not read back what it wrote.
    order = len(entries)
    expected = np.zeros((DIM,) * order)
    for entry in entries:
        expected[entry] = value
    jet = parse_expr(src, DIM).eval_jet(POINT, order)
    assert jet.data[order].tobytes() == expected.tobytes()


def test_a_constant_structure_has_degree_0_and_its_partial_is_the_zero_jet():
    frame = conformal_flat_product_germ(2, "x1^2 + x3^2").frame(order=3)
    assert frame.p.degree == 0 and frame.g.degree == 3
    dp = frame.p.partial()
    assert dp.degree == -1 and dp.order == 2
    assert not any(level.any() for level in dp.data)
    flat = conformal_flat_product_germ(2, "0").frame(order=3)
    assert flat.g.degree == flat.g_inv.degree == 0
    assert flat.first_kind.degree == flat.christoffel.degree == -1


SCENARIOS = sorted(name[: -len(".json")] for name in os.listdir(
    os.path.join(os.path.dirname(cli.__file__), "scenarios")))


def reports(tmp_path, label):
    """stdout, exit code and report bytes of every bundled scenario at seeds 0, 1 and 5."""
    out = []
    for name in SCENARIOS:
        for seed in (0, 1, 5):
            path = tmp_path / f"{label}-{name}-{seed}.json"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["check", "--scenario", name, "--seed", str(seed), "--out", str(path)])
            out.append((stdout.getvalue().replace(str(path), "<report>"), code, path.read_bytes()))
    return out


def test_degree_bounds_change_no_byte_of_a_bundled_report(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert len(SCENARIOS) == 9
    tracked = reports(tmp_path, "tracked")
    with untracked():
        full = reports(tmp_path, "full")
    assert tracked == full
