"""A fixed permutation of slots is a ``swapaxes``/``transpose`` view; only traces use einsum.

A one-operand spec that only reorders axes, such as ``"klij->ijkl"``, costs an
einsum call where a ``swapaxes`` or ``transpose`` view of the ndarray costs
a C-level call.  Each ``einsum`` call in ``src/apmlab`` whose spec is written
in the call, as a string or an f-string, is read: a spec with one operand, no
repeated letter and the same letters on both sides fails.  Traces
(``"aa...->..."``) pass.  ``np.moveaxis`` and ``np.expand_dims`` are numpy
helpers written in Python, many times the cost of the ndarray methods, and
the function forms ``np.swapaxes``/``np.transpose`` wrap those methods: no
call in the package names any of them.  ``JetTensor.transpose``, whose spec
is computed elsewhere, is checked by running it: a permutation makes views
of the levels without einsum, a trace goes through einsum.
"""

import ast
import os
from itertools import permutations
from string import ascii_lowercase

import numpy as np
import pytest

import apmlab
from apmlab import jetfields
from apmlab.jetfields import JetTensor

PACKAGE_DIR = os.path.dirname(apmlab.__file__)


def literal_spec(node: ast.expr) -> str | None:
    """The spec a string or f-string spells, its interpolated parts dropped; else None.

    The package interpolates only the upper-case sample letters of ``tensors.lead``,
    the same on both sides of a spec, so dropping them keeps what the slots do.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value for part in node.values if isinstance(part, ast.Constant))
    return None


def permutes_only(spec: str) -> bool:
    """Whether an einsum spec takes one operand and only reorders its axes."""
    spec = spec.replace(" ", "").replace(".", "")
    lhs, _, out = spec.partition("->")
    if "," in lhs or len(set(lhs)) < len(lhs):
        return False
    return sorted(out if "->" in spec else lhs) == sorted(lhs)


def package_calls():
    """(file:line, call node, called name) for every call in the package."""
    for entry in sorted(os.listdir(PACKAGE_DIR)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, entry)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                yield f"{entry}:{node.lineno}", node, name


def einsum_specs():
    """(file:line, spec) for every einsum call in the package whose spec is written in the call."""
    for where, node, name in package_calls():
        spec = literal_spec(node.args[0]) if node.args else None
        if name == "einsum" and spec is not None:
            yield where, spec


def python_level_permutation(node: ast.Call, name: str | None) -> bool:
    """Whether a call is moveaxis or expand_dims in any spelling, or np.swapaxes / np.transpose."""
    if name in ("moveaxis", "expand_dims"):
        return True
    func = node.func
    return (name in ("swapaxes", "transpose") and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))


@pytest.mark.parametrize("spec,expected", [
    ("klij->ijkl", True), ("jkil->ijkl", True), ("ijmkl->mijkl", True), ("ji", True),
    ("jikl->ijkl", True), ("ij->ij", True),
    ("aa...->...", False), ("iijk->jk", False), ("ij->i", False), ("ij->", False),
    ("il,ijkl->jk", False), ("ij,ij->", False), ("ii", False),
])
def test_permutes_only(spec, expected):
    assert permutes_only(spec) is expected


@pytest.mark.parametrize("source,expected", [
    ("np.moveaxis(t, 0, 2)", True), ("numpy.expand_dims(t, 0)", True), ("moveaxis(t, 0, 2)", True),
    ("np.swapaxes(t, 0, 1)", True), ("np.transpose(t, (1, 0))", True),
    ("t.swapaxes(0, 1)", False), ("t.transpose(1, 0)", False), ("jet.transpose('ji->ij')", False),
])
def test_python_level_permutation(source, expected):
    node = ast.parse(source).body[0].value
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr
    assert python_level_permutation(node, name) is expected


def test_an_f_string_spec_is_read_without_its_sample_letters():
    call = ast.parse('einsum(f"{b}jikl->{b}ijkl", l)').body[0].value
    assert literal_spec(call.args[0]) == "jikl->ijkl"


def test_no_einsum_in_the_package_only_permutes_axes():
    specs = list(einsum_specs())
    assert specs  # the scan reads the package's einsum calls
    assert [(where, spec) for where, spec in specs if permutes_only(spec)] == []


def test_no_python_level_permutation_in_the_package():
    calls = [(where, name) for where, node, name in package_calls()
             if python_level_permutation(node, name)]
    assert calls == []


def jet(rank: int, order: int, dim: int = 2, seed: int = 0) -> JetTensor:
    """Random levels on ``rank`` component axes of distinct lengths; degree min(1, order)."""
    rng = np.random.default_rng(seed)
    shape = tuple(range(2, 2 + rank))
    return JetTensor(tuple(rng.standard_normal(shape + (dim,) * k) for k in range(order + 1)),
                     dim, min(1, order))


def forbidden_einsum(*args):
    raise AssertionError(f"einsum called with {args[0]!r}")


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("rank", range(1, 5))
def test_jet_transpose_permutes_levels_as_views(rank, order, monkeypatch):
    monkeypatch.setattr(jetfields, "einsum", forbidden_einsum)
    source = jet(rank, order)
    src = ascii_lowercase[:rank]
    for dst in map("".join, permutations(src)):
        moved = source.transpose(f"{src}->{dst}")
        assert (moved.dim, moved.degree, moved.order) == (source.dim, source.degree, source.order)
        for level, reference in zip(moved.data, source.data):
            expected = np.einsum(f"{src}...->{dst}...", reference)
            assert np.shares_memory(level, reference)
            assert level.shape == expected.shape and level.strides == expected.strides
            assert np.array_equal(level, expected)


@pytest.mark.parametrize("spec", ["iijk->jk", "ii->", "ijj->i", "ij->i"])
def test_jet_transpose_traces_and_sums_through_einsum(spec, monkeypatch):
    calls = []

    def counted(plan, *operands):
        calls.append(plan)
        return np.einsum(plan, *operands)

    monkeypatch.setattr(jetfields, "einsum", counted)
    src, dst = spec.split("->")
    source = JetTensor(tuple(np.random.default_rng(1).standard_normal((3,) * (len(src) + k))
                             for k in range(3)), 3, 2)
    traced = source.transpose(spec)
    assert calls == [f"{src}...->{dst}..."] * 3
    assert traced.degree == source.degree
    for level, reference in zip(traced.data, source.data):
        assert np.array_equal(level, np.einsum(f"{src}...->{dst}...", reference))
