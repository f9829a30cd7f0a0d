"""Structure validation, the Lee form, and the W-class characteristic forms.

The covariant derivative tensor F(x,y,z) = g((grad_x P)y, z) of an almost
product structure satisfies

    F(x,y,z) = F(x,z,y) = -F(x,Py,Pz),      F(x,y,Pz) = -F(x,Py,z),

and contracts to the Lee form theta(z) = g^{ij} F(e_i,e_j,z).  The classes
handled here are W0 (F = 0), the conformal class W1, and its Naveira
summands W3bar (theta o P = -theta) and W6bar (theta o P = +theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import CheckReport
from .tensors import DEFAULT_TOL, PointStructure, StructureError, frob

CLASS_W0 = "W0"
CLASS_W1 = "W1"
CLASS_W3BAR = "W3bar"
CLASS_W6BAR = "W6bar"
CLASS_OUTSIDE = "outside_W1"

# Relative residual below which a class membership is accepted.
CLASS_TOL = 1e-8


@dataclass
class ClassReport:
    """Classification of an F tensor by residual against each characteristic form."""

    residual_w0: float
    residual_w1: float
    residual_w3bar: float
    residual_w6bar: float
    theta: np.ndarray
    theta_p: np.ndarray
    label: str
    tol: float

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "tolerance": self.tol,
            "residuals": {
                "W0": self.residual_w0,
                "W1": self.residual_w1,
                "W3bar": self.residual_w3bar,
                "W6bar": self.residual_w6bar,
            },
            "theta": [float(x) for x in self.theta],
            "theta_p": [float(x) for x in self.theta_p],
        }


def validate_structure(ps: PointStructure, tol: float = DEFAULT_TOL) -> CheckReport:
    """Report the residuals of all defining (g, P) invariants."""
    report = CheckReport(name="structure", tol=tol)
    report.residuals.update(ps.invariant_residuals())
    return report.finalize()


def projectors(ps: PointStructure, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors h = (I+P)/2 and v = (I-P)/2 onto the P = +1/-1 subspaces."""
    if not ps.is_valid(tol):
        raise StructureError("invalid almost product structure")
    eye = np.eye(ps.dim)
    return 0.5 * (eye + ps.p), 0.5 * (eye - ps.p)


def _gram_schmidt(columns: np.ndarray, g: np.ndarray, count: int) -> np.ndarray:
    """Pick ``count`` g-orthonormal vectors from the given column span."""
    picked: list[np.ndarray] = []
    for j in range(columns.shape[1]):
        w = columns[:, j].copy()
        for u in picked:
            w -= (u @ g @ w) * u
        norm2 = float(w @ g @ w)
        if norm2 > 1e-12:
            picked.append(w / np.sqrt(norm2))
        if len(picked) == count:
            return np.column_stack(picked)
    raise StructureError("degenerate eigenspace frame: Gram-Schmidt found too few vectors")


def adapted_orthonormal_basis(ps: PointStructure, tol: float = DEFAULT_TOL) -> np.ndarray:
    """g-orthonormal basis {E_1..E_n, PE_1..PE_n}, returned as matrix columns.

    If the coordinate basis is itself adapted it is returned unchanged.
    """
    if not ps.is_valid(tol):
        raise StructureError("invalid almost product structure")
    n, dim = ps.n, ps.dim
    eye = np.eye(dim)
    coords_adapted = frob(ps.g - eye) < tol and frob(ps.p[:, :n] - eye[:, n:]) < tol
    if coords_adapted:
        return eye
    h, v = projectors(ps, tol)
    a = _gram_schmidt(h, ps.g, n)
    x = _gram_schmidt(v, ps.g, n)
    e_half = (a + x) / np.sqrt(2.0)
    return np.column_stack([e_half, ps.p @ e_half])


def basis_residuals(ps: PointStructure, basis: np.ndarray) -> dict[str, float]:
    """How far a candidate basis is from being adapted orthonormal."""
    n = ps.n
    gram = basis.T @ ps.g @ basis
    return {
        "orthonormality": frob(gram - np.eye(ps.dim)),
        "p_pairing": frob(basis[:, n:] - ps.p @ basis[:, :n]),
    }


def f_symmetry_residuals(ps: PointStructure, f: np.ndarray) -> dict[str, float]:
    """Residuals of the three defining F identities."""
    p = ps.p
    f_pp = np.einsum("iab,aj,bk->ijk", f, p, p)
    f_zp = np.einsum("ija,ak->ijk", f, p)
    f_py = np.einsum("iak,aj->ijk", f, p)
    return {
        "last_two_symmetry": frob(f - f.transpose(0, 2, 1)),
        "double_p_skew": frob(f + f_pp),
        "single_p_skew": frob(f_zp + f_py),
    }


def lee_form_from_f(ps: PointStructure, f: np.ndarray,
                    tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Contract F to the Lee form: theta_k = g^{ij} F_{ijk}; also returns theta o P.

    Rejects tensors that violate the F symmetries beyond ``tol`` (relative).
    """
    scale = max(1.0, frob(f))
    for name, res in f_symmetry_residuals(ps, f).items():
        if res / scale > tol:
            raise StructureError(f"F symmetry violated: {name} residual {res:.3e}")
    theta = np.einsum("ij,ijk->k", ps.g_inv, f)
    return theta, ps.apply_p_form(theta)


def w1_form(ps: PointStructure, theta: np.ndarray) -> np.ndarray:
    """Characteristic F of the conformal class W1 for a given Lee form."""
    g, gp = ps.g, ps.g_assoc
    theta_p = ps.apply_p_form(theta)
    f = (
        np.einsum("ij,k->ijk", g, theta)
        - np.einsum("ij,k->ijk", gp, theta_p)
        + np.einsum("ik,j->ijk", g, theta)
        - np.einsum("ik,j->ijk", gp, theta_p)
    )
    return f / ps.dim


def _eigenclass_form(ps: PointStructure, theta: np.ndarray, sign: float) -> np.ndarray:
    base = ps.g + sign * ps.g_assoc
    f = np.einsum("ij,k->ijk", base, theta) + np.einsum("ik,j->ijk", base, theta)
    return f / ps.dim


def w3bar_form(ps: PointStructure, theta: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Characteristic F of W3bar; requires theta o P = -theta."""
    theta_p = ps.apply_p_form(theta)
    if frob(theta_p + theta) / max(1.0, frob(theta)) > tol:
        raise StructureError("theta is not in the P = -1 eigenspace required for W3bar")
    return _eigenclass_form(ps, theta, +1.0)


def w6bar_form(ps: PointStructure, theta: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Characteristic F of W6bar; requires theta o P = +theta."""
    theta_p = ps.apply_p_form(theta)
    if frob(theta_p - theta) / max(1.0, frob(theta)) > tol:
        raise StructureError("theta is not in the P = +1 eigenspace required for W6bar")
    return _eigenclass_form(ps, theta, -1.0)


def classify_f(ps: PointStructure, f: np.ndarray, tol: float = CLASS_TOL) -> ClassReport:
    """Classify F into W0 / W3bar / W6bar / W1 / outside_W1 by defect residuals.

    Membership is decided on relative residuals |defect| / max(1, |F|); ties go
    to the smallest class (W0 first, then the eigenclasses, then W1).
    """
    theta, theta_p = lee_form_from_f(ps, f)
    theta_v = 0.5 * (theta - theta_p)
    theta_h = 0.5 * (theta + theta_p)

    res_w0 = frob(f)
    res_w1 = frob(f - w1_form(ps, theta))
    res_w3 = frob(f - _eigenclass_form(ps, theta_v, +1.0))
    res_w6 = frob(f - _eigenclass_form(ps, theta_h, -1.0))

    scale = max(1.0, frob(f))
    if res_w0 / scale < tol:
        label = CLASS_W0
    elif min(res_w3, res_w6) / scale < tol:
        label = CLASS_W3BAR if res_w3 <= res_w6 else CLASS_W6BAR
    elif res_w1 / scale < tol:
        label = CLASS_W1
    else:
        label = CLASS_OUTSIDE

    return ClassReport(
        residual_w0=res_w0,
        residual_w1=res_w1,
        residual_w3bar=res_w3,
        residual_w6bar=res_w6,
        theta=theta,
        theta_p=theta_p,
        label=label,
        tol=tol,
    )
