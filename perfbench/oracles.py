"""Oracles that check apmlab's outputs without calling apmlab.

Each check takes plain arrays (or a parsed report) and returns a list of
problems; an empty list means the output agrees.  The reference values come
from closed forms derived by hand, from central differences of metric
values that Python evaluates itself, and from this file's own einsums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from inputs import Conformal

# Outputs of exact jets and pointwise algebra, compared with closed forms.
TOL_EXACT = 1e-10
# Outputs compared with fourth-order central differences (step FD_STEP).
TOL_FD = 1e-8
FD_STEP = 1e-3


def frob(t) -> float:
    return float(np.sqrt(np.sum(np.square(t))))


def _mismatch(label: str, got, want, tol: float) -> list[str]:
    err = frob(np.asarray(got, float) - np.asarray(want, float))
    scale = max(1.0, frob(want))
    if not err <= tol * scale:
        return [f"{label}: off by {err:.3e} (scale {scale:.3g}, tol {tol:.0e})"]
    return []


def _small(label: str, residual, scale: float, tol: float) -> list[str]:
    err = frob(residual)
    if not err <= tol * max(1.0, scale):
        return [f"{label}: residual {err:.3e} (scale {scale:.3g}, tol {tol:.0e})"]
    return []


# ---------------------------------------------------------------------------
# conformal germs: theta, tau and the class label in closed form


def conformal_theta(case: Conformal, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Lee form theta = 2n (du o P) of g = e^{2u} g0 over the flat product."""
    return 2 * case.n * (np.asarray(case.grad(x)) @ p)


def conformal_tau(case: Conformal, x: np.ndarray, u_value: float) -> float:
    """Scalar curvature -e^{-2u} (2(m-1) lap u + (m-1)(m-2) |du|^2) of e^{2u} g0."""
    m = case.dim
    du = np.asarray(case.grad(x))
    return -np.exp(-2 * u_value) * (2 * (m - 1) * case.lap(x) + (m - 1) * (m - 2) * du @ du)


def class_label(theta: np.ndarray, p: np.ndarray, tol: float = 1e-9) -> str:
    """W0 for theta = 0; W6bar for theta o P = theta; W3bar for theta o P = -theta; else W1."""
    scale = max(1.0, frob(theta))
    theta_p = theta @ p
    if frob(theta) < tol:
        return "W0"
    if frob(theta_p - theta) < tol * scale:
        return "W6bar"
    if frob(theta_p + theta) < tol * scale:
        return "W3bar"
    return "W1"


# ---------------------------------------------------------------------------
# bundled scenario reports


def check_report(doc: dict, exit_code: int, case: Conformal, x: np.ndarray,
                 u_value: float) -> list[str]:
    """Exit status, skip reasons, and theta / tau / label against closed forms."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if doc["summary"]["failed"] != 0:
        problems.append(f"summary.failed = {doc['summary']['failed']}")
    checks = {c["name"]: c for c in doc["checks"]}
    for name, c in checks.items():
        if c["status"] == "skipped" and not c.get("skip_reason"):
            problems.append(f"{name}: skipped without a reason")
    p = np.diag(np.concatenate([np.ones(case.n), -np.ones(case.n)]))
    theta = conformal_theta(case, x, p)
    classification = checks["classification"]
    problems += _mismatch("theta_norm", classification["scalars"]["theta_norm"],
                          frob(theta), TOL_EXACT)
    label = class_label(theta, p)
    if f"label={label}" not in classification.get("notes", []):
        problems.append(f"class label {classification.get('notes')} != {label}")
    problems += _mismatch("tau", checks["curvature_like"]["scalars"]["tau"],
                          conformal_tau(case, x, u_value), TOL_EXACT)
    return problems


# ---------------------------------------------------------------------------
# order-3 frames


@dataclass
class ConnectionOut:
    lam: float
    mu: float
    gamma: np.ndarray       # Gamma'^m_{ij}, axes (m, i, j)
    curvature: np.ndarray   # R'_{ijkl}
    tau: float
    tau_star: float


@dataclass
class FrameOut:
    """Values a fully evaluated frame reports, as plain arrays."""

    christoffel: np.ndarray  # Gamma^m_{ij}, axes (m, i, j)
    curvature: np.ndarray    # R_{ijkl}
    theta: np.ndarray
    connections: list[ConnectionOut] = field(default_factory=list)


def metric_jet_fd(metric, x: np.ndarray, h: float = FD_STEP):
    """g, dg (dg[i, j, k] = d_k g_ij) and Gamma^m_{ij} by fourth-order central differences."""
    dim = x.shape[0]
    g = metric(x)
    dg = np.zeros((dim, dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        dg[:, :, k] = (
            -metric(x + 2 * e) + 8 * metric(x + e) - 8 * metric(x - e) + metric(x - 2 * e)
        ) / (12 * h)
    g_inv = np.linalg.inv(g)
    # Gamma^m_{ij} = g^{mk} (d_i g_kj + d_j g_ki - d_k g_ij) / 2
    first = np.einsum("kji->kij", dg) + dg - np.einsum("ijk->kij", dg)
    gamma = 0.5 * np.einsum("mk,kij->mij", g_inv, first)
    return g, dg, gamma


def lee_form(g: np.ndarray, gamma: np.ndarray, p: np.ndarray) -> np.ndarray:
    """theta_k = g^{ij} F_ijk for a constant P, from a Christoffel array."""
    # (grad_i P)^m_j = Gamma^m_{ia} P^a_j - P^m_a Gamma^a_{ij}
    nabla_p = np.einsum("mia,aj->imj", gamma, p) - np.einsum("ma,aij->imj", p, gamma)
    f = np.einsum("imj,mk->ijk", nabla_p, g)
    return np.einsum("ij,ijk->k", np.linalg.inv(g), f)


def family_torsion(g: np.ndarray, p: np.ndarray, theta: np.ndarray,
                   lam: float, mu: float) -> np.ndarray:
    """T(x,y,z) of the natural connection (lambda, mu), all indices down."""
    n = g.shape[0] // 2
    ga = g @ p              # g(y, Pz)
    thp = theta @ p         # theta(Px)

    def wedge(metric, form):  # metric(y,z) form(x) - metric(x,z) form(y)
        return np.einsum("jk,i->ijk", metric, form) - np.einsum("ik,j->ijk", metric, form)

    return (
        wedge(g, thp) / (2 * n)
        + lam * (wedge(g, theta) + wedge(ga, thp))
        + mu * (wedge(ga, theta) + wedge(g, thp))
    )


def curvature_like_residuals(r: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "first_pair_skew": r + np.einsum("jikl->ijkl", r),
        "last_pair_skew": r + np.einsum("ijlk->ijkl", r),
        "first_bianchi": r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r),
    }


def check_frame(out: FrameOut, metric, p: np.ndarray, x: np.ndarray,
                theta_ref: np.ndarray | None = None, tau_ref: float | None = None) -> list[str]:
    """Levi-Civita and natural-connection outputs of one frame.

    ``theta_ref`` and ``tau_ref`` are closed forms when the germ has them;
    otherwise the Lee form is rebuilt from the central-difference Christoffel
    symbols and the scalar curvature goes unchecked.
    """
    g, dg, gamma_fd = metric_jet_fd(metric, x)
    g_inv = np.linalg.inv(g)
    problems = _mismatch("christoffel", out.christoffel, gamma_fd, TOL_FD)

    r = out.curvature
    scale = frob(r)
    for key, res in curvature_like_residuals(r).items():
        problems += _small(f"R {key}", res, scale, TOL_EXACT)
    problems += _small("R pair_symmetry", r - np.einsum("klij->ijkl", r), scale, TOL_EXACT)
    if tau_ref is not None:
        problems += _mismatch("tau", scalar_curvatures(g, p, r)[0], tau_ref, TOL_EXACT)

    if theta_ref is None:
        theta_ref = lee_form(g, gamma_fd, p)
        theta_tol = TOL_FD
    else:
        theta_tol = TOL_EXACT
    problems += _mismatch("theta", out.theta, theta_ref, theta_tol)

    for c in out.connections:
        tag = f"[{c.lam:g},{c.mu:g}]"
        gam = c.gamma
        nabla_g = (
            np.einsum("ijk->kij", dg)
            - np.einsum("mki,mj->kij", gam, g)
            - np.einsum("mkj,im->kij", gam, g)
        )
        problems += _small(f"{tag} nabla' g", nabla_g, frob(g), TOL_FD)
        torsion = np.einsum("ijk,km->mij", family_torsion(g, p, theta_ref, c.lam, c.mu), g_inv)
        problems += _mismatch(f"{tag} torsion", gam - gam.transpose(0, 2, 1), torsion, theta_tol)
        # R' of a metric connection is skew in both pairs; Bianchi needs torsion terms.
        skews = curvature_like_residuals(c.curvature)
        for key in ("first_pair_skew", "last_pair_skew"):
            problems += _small(f"{tag} R' {key}", skews[key], frob(c.curvature), TOL_EXACT)
        tau, tau_star = scalar_curvatures(g, p, c.curvature)
        problems += _mismatch(f"{tag} tau'", c.tau, tau, TOL_FD)
        problems += _mismatch(f"{tag} tau*'", c.tau_star, tau_star, TOL_FD)
    return problems


# ---------------------------------------------------------------------------
# P-tensors


def pi_tensors(g: np.ndarray, p: np.ndarray):
    """pi1_ijkl = g_jk g_il - g_ik g_jl, pi2 its P-twist in (z, w), pi3 = psi1(g~)."""
    ga = g @ p
    pi1 = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    pi2 = np.einsum("jk,il->ijkl", ga, ga) - np.einsum("ik,jl->ijkl", ga, ga)
    pi3 = (
        np.einsum("jk,il->ijkl", g, ga) - np.einsum("ik,jl->ijkl", g, ga)
        + np.einsum("jk,il->ijkl", ga, g) - np.einsum("ik,jl->ijkl", ga, g)
    )
    return pi1, pi2, pi3


def scalar_curvatures(g: np.ndarray, p: np.ndarray, l: np.ndarray) -> tuple[float, float]:
    g_inv = np.linalg.inv(g)
    tau = float(np.einsum("il,jk,ijkl->", g_inv, g_inv, l))
    tau_star = float(np.einsum("il,jk,ijkm,ml->", g_inv, g_inv, l, p))
    return tau, tau_star


def check_p_tensor(g: np.ndarray, p: np.ndarray, l: np.ndarray) -> list[str]:
    """Unit norm, pair skews, first Bianchi, P-invariance; in dim 4 the decomposition."""
    problems = _mismatch("norm", frob(l), 1.0, TOL_EXACT)
    for key, res in curvature_like_residuals(l).items():
        problems += _small(key, res, 1.0, TOL_EXACT)
    twisted = np.einsum("ijab,ak,bl->ijkl", l, p, p)
    problems += _small("p_invariance", twisted - l, 1.0, TOL_EXACT)
    if g.shape[0] == 4:
        tau, tau_star = scalar_curvatures(g, p, l)
        pi1, pi2, pi3 = pi_tensors(g, p)
        problems += _mismatch("dim4 decomposition", l,
                              (tau * (pi1 + pi2) + tau_star * pi3) / 8, TOL_EXACT)
    return problems


def check_lab_outputs(g: np.ndarray, p: np.ndarray, l: np.ndarray, verdicts: dict[str, bool],
                      invariants: tuple[float, float],
                      decomposition: tuple[float, float, float] | None) -> list[str]:
    """The program's verdicts and invariants for a tensor the oracle accepted."""
    problems = [f"{name} did not pass" for name, ok in verdicts.items() if not ok]
    tau, tau_star = scalar_curvatures(g, p, l)
    problems += _mismatch("tau", invariants[0], tau, TOL_EXACT)
    problems += _mismatch("tau*", invariants[1], tau_star, TOL_EXACT)
    if decomposition is not None:
        problems += _mismatch("decompose_dim4 scalars", decomposition[:2], (tau, tau_star),
                              TOL_EXACT)
        problems += _small("decompose_dim4 residual", decomposition[2], 1.0, TOL_EXACT)
    return problems
