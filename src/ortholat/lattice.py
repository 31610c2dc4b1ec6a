"""Coordinatewise vector lattice on R^n with the sup norm: meet/join/abs,
disjointness, the meet/join closed forms, AM-norm laws, and the sampled
equality of disjointness with absolute infinity-orthogonality.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, PreconditionFailed
from .linalg import rng_for
from .orthogonality import OrthReport, infty_deviations
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "lattice_vector",
    "meet",
    "join",
    "lattice_abs",
    "sup_norm",
    "lattice_orth",
    "verify_corollary5",
    "am_norm_laws",
    "prop6_check",
]


def lattice_vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def _pair(x, y):
    xv, yv = lattice_vector(x), lattice_vector(y)
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    return xv, yv


def meet(x, y) -> np.ndarray:
    xv, yv = _pair(x, y)
    return np.minimum(xv, yv)


def join(x, y) -> np.ndarray:
    xv, yv = _pair(x, y)
    return np.maximum(xv, yv)


def lattice_abs(x) -> np.ndarray:
    return np.abs(lattice_vector(x))


def sup_norm(x):
    """max_i |x_i|, of a vector or of each vector of a stack along the last axis."""
    return np.abs(np.asarray(x, dtype=float)).max(-1, initial=0.0)


def lattice_orth(x, y, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Disjoint supports: min(|x_i|, |y_i|) vanishes for every coordinate."""
    xv, yv = _pair(x, y)
    return bool(np.all(np.minimum(np.abs(xv), np.abs(yv)) <= tol.tol_zero))


def verify_corollary5(x, y, trials: int = 50, seed: int = 0,
                      tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """The meet is the unique common lower bound with disjoint residuals
    (dually for the join), plus perturbation-based uniqueness falsification.
    """
    xv, yv = _pair(x, y)
    u = np.minimum(xv, yv)
    v = np.maximum(xv, yv)

    def disj(p, q):
        return float(np.max(np.minimum(np.abs(p), np.abs(q)), initial=0.0))

    details = [
        ("u_le_x", float(np.max(u - xv, initial=0.0))),
        ("u_le_y", float(np.max(u - yv, initial=0.0))),
        ("inf_residuals_disjoint", disj(xv - u, yv - u)),
        ("x_le_v", float(np.max(xv - v, initial=0.0))),
        ("y_le_v", float(np.max(yv - v, initial=0.0))),
        ("sup_residuals_disjoint", disj(v - xv, v - yv)),
        ("meet_closed_form", float(np.max(np.abs((xv + yv - np.abs(xv - yv)) / 2 - u), initial=0.0))),
        ("join_closed_form", float(np.max(np.abs((xv + yv + np.abs(xv - yv)) / 2 - v), initial=0.0))),
    ]

    gap = sup_norm(xv - yv)
    survivors = 0
    if gap > tol.tol_eq:
        n = xv.shape[0]
        for i in range(trials):
            rng = rng_for(seed, i)
            delta = rng.standard_normal(n)
            delta *= rng.uniform(1e-4, 1.0) * gap / max(sup_norm(delta), 1e-300)
            ui = u + delta
            ok_le = np.all(ui <= xv + tol.tol_psd) and np.all(ui <= yv + tol.tol_psd)
            ok_orth = lattice_orth(xv - ui, yv - ui, tol)
            if ok_le and ok_orth:
                survivors += 1
    details.append(("uniqueness_survivors", float(survivors)))

    worst = max(r for _, r in details)
    holds = all(r <= tol.tol_zero for _, r in details[:8]) and survivors == 0
    return OrthReport("corollary5", holds, worst, details)


def am_norm_laws(u, v, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """AM-space axioms under the sup norm, on positive u, v:
    ||u join v|| = max(||u||, ||v||); monotonicity of the norm under
    |u| <= |v| (checked when applicable); and the order-unit norm formula
    inf{k : k*1 +/- w >= 0} = sup norm.
    """
    uv, vv = _pair(u, v)
    if np.min(uv, initial=0.0) < -tol.tol_psd or np.min(vv, initial=0.0) < -tol.tol_psd:
        raise PreconditionFailed("join law requires coordinatewise non-negative inputs")

    details = [("join_norm",
                abs(sup_norm(np.maximum(uv, vv)) - max(sup_norm(uv), sup_norm(vv))))]

    if np.all(np.abs(uv) <= np.abs(vv) + tol.tol_psd):
        gap = sup_norm(uv) - sup_norm(vv)
        details.append(("norm_monotone", max(0.0, gap)))

    for name, w in (("order_unit_norm_u", uv), ("order_unit_norm_v", vv)):
        # k*1 +- w >= 0 iff k >= max|w_i|; the infimum is the sup norm
        details.append((name, abs(float(np.max(np.abs(w), initial=0.0)) - sup_norm(w))))

    worst = max(r for _, r in details)
    return OrthReport("am_norm_laws", worst <= tol.tol_eq, worst, details)


def prop6_check(u, v, trials: int = 200, seed: int = 0,
                tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Disjointness coincides with absolute infinity-orthogonality on the
    positive cone of the sup-norm lattice.

    Disjoint inputs: box-sampled sub-pairs must satisfy the norm identity on
    the whole k grid. Overlapping inputs: the common part w = u meet v gives
    the violating triple (w, w, k=1).
    """
    uv, vv = _pair(u, v)
    if np.min(uv, initial=0.0) < -tol.tol_psd or np.min(vv, initial=0.0) < -tol.tol_psd:
        raise PreconditionFailed("inputs must lie in the positive cone")
    uv, vv = np.maximum(uv, 0.0), np.maximum(vv, 0.0)

    if lattice_orth(uv, vv, tol):
        worst = 0.0
        for i in range(trials):
            rng = rng_for(seed, i)
            u1 = rng.uniform(0.0, 1.0, size=uv.shape) * uv
            v1 = rng.uniform(0.0, 1.0, size=vv.shape) * vv
            _, dev = infty_deviations(u1, v1, sup_norm)
            worst = max(worst, float(dev.max()))
        return OrthReport("prop6", worst <= tol.tol_eq, worst,
                          [("direction", 1.0), ("sampled_deviation", worst)])

    w = np.minimum(uv, vv)
    lhs = sup_norm(w + w)
    rhs = sup_norm(w)  # max(||w||, |1| ||w||)
    violation = abs(lhs - rhs) / max(1.0, rhs)
    return OrthReport("prop6", violation > tol.tol_eq, violation,
                      [("direction", 2.0), ("witness_violation", violation)])
