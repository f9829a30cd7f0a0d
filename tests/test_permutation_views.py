"""No call in the package permutes axes through an einsum.

A one-operand spec that only reorders axes, such as ``"klij->ijkl"``, costs an
einsum call where a ``swapaxes``, ``moveaxis`` or ``transpose`` view costs
nothing.  Each ``einsum`` call in ``src/apmlab`` whose spec is written in the
call, as a string or an f-string, is read: a spec with one operand, no
repeated letter and the same letters on both sides fails.  Traces
(``"aa...->..."``) and specs computed elsewhere (``JetTensor.transpose``'s)
pass.
"""

import ast
import os

import pytest

import apmlab

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


def einsum_specs():
    """(file:line, spec) for every einsum call in the package whose spec is written in the call."""
    for entry in sorted(os.listdir(PACKAGE_DIR)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, entry)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spec = literal_spec(node.args[0])
            if name == "einsum" and spec is not None:
                yield f"{entry}:{node.lineno}", spec


@pytest.mark.parametrize("spec,expected", [
    ("klij->ijkl", True), ("jkil->ijkl", True), ("ijmkl->mijkl", True), ("ji", True),
    ("jikl->ijkl", True), ("ij->ij", True),
    ("aa...->...", False), ("iijk->jk", False), ("ij->i", False), ("ij->", False),
    ("il,ijkl->jk", False), ("ij,ij->", False), ("ii", False),
])
def test_permutes_only(spec, expected):
    assert permutes_only(spec) is expected


def test_an_f_string_spec_is_read_without_its_sample_letters():
    call = ast.parse('einsum(f"{b}jikl->{b}ijkl", l)').body[0].value
    assert literal_spec(call.args[0]) == "jikl->ijkl"


def test_no_einsum_in_the_package_only_permutes_axes():
    specs = list(einsum_specs())
    assert specs  # the scan reads the package's einsum calls
    assert [(where, spec) for where, spec in specs if permutes_only(spec)] == []
