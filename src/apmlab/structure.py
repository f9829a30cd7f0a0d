"""Structure validation, the Lee form, and the W-class characteristic forms.

The covariant derivative tensor F(x,y,z) = g((grad_x P)y, z) of an almost
product structure satisfies

    F(x,y,z) = F(x,z,y) = -F(x,Py,Pz),      F(x,y,Pz) = -F(x,Py,z),

and contracts to the Lee form theta(z) = g^{ij} F(e_i,e_j,z).  The classes
handled here are W0 (F = 0), the conformal class W1, and its Naveira
summands W3bar (theta o P = -theta) and W6bar (theta o P = +theta).
"""

from __future__ import annotations

import numpy as np

from .tensors import PointStructure, StructureError, einsum, frob, per_structure

CLASS_W0 = "W0"
CLASS_W1 = "W1"
CLASS_W3BAR = "W3bar"
CLASS_W6BAR = "W6bar"
CLASS_OUTSIDE = "outside_W1"

# Relative residual below which a class membership, or an F symmetry, is accepted.
CLASS_TOL = 1e-8


class ClassReport:
    """Classification of an F tensor by residual against each characteristic form."""

    def __init__(self, residual_w0: float, residual_w1: float, residual_w3bar: float,
                 residual_w6bar: float, theta: np.ndarray, theta_p: np.ndarray, label: str):
        self.residual_w0, self.residual_w1 = residual_w0, residual_w1
        self.residual_w3bar, self.residual_w6bar = residual_w3bar, residual_w6bar
        self.theta, self.theta_p = theta, theta_p
        self.label = label

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "tolerance": CLASS_TOL,
            "residuals": {
                "W0": self.residual_w0,
                "W1": self.residual_w1,
                "W3bar": self.residual_w3bar,
                "W6bar": self.residual_w6bar,
            },
            "theta": [float(x) for x in self.theta],
            "theta_p": [float(x) for x in self.theta_p],
        }


def projectors(ps: PointStructure) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors h = (I+P)/2 and v = (I-P)/2 onto the P = +1/-1 subspaces.

    Raises StructureError unless the structure is valid at DEFAULT_TOL.
    """
    ps.require_valid()
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


@per_structure
def adapted_orthonormal_basis(ps: PointStructure) -> np.ndarray:
    """g-orthonormal basis {E_1..E_n, PE_1..PE_n}, as matrix columns, built once per structure.

    Gram-Schmidt runs on every structure, after validating it at DEFAULT_TOL:
    a coordinate basis that is itself adapted comes back to rounding, not bit for bit.
    """
    h, v = projectors(ps)  # validates the structure
    a = _gram_schmidt(h, ps.g, ps.n)
    x = _gram_schmidt(v, ps.g, ps.n)
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


def f_symmetry_residuals(ps: PointStructure, f: np.ndarray) -> dict[str, float | np.ndarray]:
    """Residuals of the three defining F identities, one value per sample of a stacked F.

    With F read as a stack of matrices over its last two slots, F(x,y,Pz) is
    F P, F(x,Py,z) is P^T F, and F(x,Py,Pz) is (P^T F) P.
    """
    p = ps.p
    f_py = p.T @ f
    return {
        "last_two_symmetry": frob(f - f.swapaxes(-2, -1), 3),
        "double_p_skew": frob(f + f_py @ p, 3),
        "single_p_skew": frob(f @ p + f_py, 3),
    }


def lee_form_from_f(ps: PointStructure, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contract F to the Lee form: theta_k = g^{ij} F_{ijk}; also returns theta o P.

    Rejects tensors that violate the F symmetries beyond CLASS_TOL (relative).
    """
    scale = max(1.0, frob(f))
    for name, res in f_symmetry_residuals(ps, f).items():
        if res / scale > CLASS_TOL:
            raise StructureError(f"F symmetry violated: {name} residual {res:.3e}")
    theta = einsum("ij,ijk->k", ps.g_inv, f)
    return theta, theta @ ps.p


def w1_form(ps: PointStructure, theta: np.ndarray) -> np.ndarray:
    """Characteristic F of the conformal class W1 for a given Lee form."""
    g, gp = ps.g, ps.g_assoc
    theta_p = theta @ ps.p
    f = (
        einsum("ij,k->ijk", g, theta)
        - einsum("ij,k->ijk", gp, theta_p)
        + einsum("ik,j->ijk", g, theta)
        - einsum("ik,j->ijk", gp, theta_p)
    )
    return f / ps.dim


def _eigenclass_form(ps: PointStructure, theta: np.ndarray, sign: float) -> np.ndarray:
    """Characteristic F of W3bar (sign = +1) or W6bar (sign = -1).

    It lies in its class when theta o P = -sign theta.
    """
    base = ps.g + sign * ps.g_assoc
    f = einsum("ij,k->ijk", base, theta) + einsum("ik,j->ijk", base, theta)
    return f / ps.dim


def classify_f(ps: PointStructure, f: np.ndarray) -> ClassReport:
    """Classify F into W0 / W3bar / W6bar / W1 / outside_W1 by defect residuals.

    Membership is decided on relative residuals |defect| / max(1, |F|) below
    CLASS_TOL; ties go to the smallest class (W0 first, then the
    eigenclasses, then W1).  An F
    that breaks the F symmetries is classified too, not rejected as by
    ``lee_form_from_f``: its Lee form is the trace theta_k = g^{ij} F_{ijk}.
    """
    theta = einsum("ij,ijk->k", ps.g_inv, f)
    theta_p = theta @ ps.p
    theta_v = 0.5 * (theta - theta_p)
    theta_h = 0.5 * (theta + theta_p)

    res_w0 = frob(f)
    res_w1 = frob(f - w1_form(ps, theta))
    res_w3 = frob(f - _eigenclass_form(ps, theta_v, +1.0))
    res_w6 = frob(f - _eigenclass_form(ps, theta_h, -1.0))

    scale = max(1.0, frob(f))
    if res_w0 / scale < CLASS_TOL:
        label = CLASS_W0
    elif min(res_w3, res_w6) / scale < CLASS_TOL:
        label = CLASS_W3BAR if res_w3 <= res_w6 else CLASS_W6BAR
    elif res_w1 / scale < CLASS_TOL:
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
    )
