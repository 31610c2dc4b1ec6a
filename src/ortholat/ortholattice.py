"""Ortho-infimum and ortho-supremum and Theorem 4's check of their defining
properties and uniqueness, written once over the carrier models: on
Hermitian matrices this is Theorem 4, on R^n (the commuting case) it is
Corollary 5, where the ortho-infimum and ortho-supremum are the lattice
meet and join. Also a closed-form common lower bound of two Hermitian
matrices that beats the ortho-infimum (the anti-lattice phenomenon).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carriers import carrier_operands
from .errors import ComparablePair, PreconditionFailed
from .linalg import (
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    matrix_to_json,
    rel_diff,
    rng_for,
)
from .orthogonality import OrthReport
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "ortho_inf_sup",
    "verify_theorem4",
    "WitnessResult",
    "kadison_witness_search",
]


def ortho_inf_sup(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(inf, sup) = ((a + b - |a - b|) / 2, (a + b + |a - b|) / 2), the
    ortho-infimum and ortho-supremum, from one absolute value of a - b.
    verify_theorem4 takes its own."""
    model, x, y = carrier_operands(a, b)
    abs_x = model.jordan(x - y)[2]
    return (x + y - abs_x) / 2.0, (x + y + abs_x) / 2.0


def verify_theorem4(a, b, trials: int = 10, seed: int = 0,
                    tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Theorem 4 for (a, b): c = (a + b - |a - b|)/2 is the unique element
    with c <= a, c <= b and (a-c) orth (b-c), checked on one decomposition
    of a - b.

    Existence is the three conditions plus spectral_residual, the relative
    distance of (a-b)^+ - (a-b)^- from a - b; max_violation is the worst of
    the four. With x = a - b, a - c - x^+ = (x - (x^+ - x^-))/2 = x^- - (b - c),
    so both parts of c rest on that one residual. The ortho-supremum d needs
    no check of its own: d = c + |a - b|, so d - a = b - c and d - b = a - c
    are the inf-side matrices again. (The negation duality is left to the
    tests: it would need a second decomposition of a - b.)

    Uniqueness: each of `trials` perturbations c_i of c (the carrier's
    sample from rng_for(seed, i), scaled to a random fraction of the gap
    ||a - b|| in the carrier's vector norm; none when a = b) must break a
    condition, that is have a residual-to-tolerance ratio above 1. They are
    settled cheapest first: residual orthogonality (one matmul on
    matrices), then c_i <= a, then c_i <= b (one eigvalsh each). The detail
    uniqueness_survivors counts those that break none, and holds needs 0.
    A NaN ratio with none above 1 raises PreconditionFailed.
    """
    model, ah, bh = carrier_operands(a, b, tol)
    x = ah - bh
    xp, xn, abs_x = model.jordan(x)
    c = (ah + bh - abs_x) / 2.0
    ra, rb = ah - c, bh - c

    details = [
        ("c_le_a", model.cone_defect(ra)),
        ("c_le_b", model.cone_defect(rb)),
        ("inf_residuals_orth", model.zero_product(ra, rb)),
        ("spectral_residual", rel_diff(xp - xn, x)),
    ]
    bounds = (tol.tol_psd, tol.tol_psd, tol.tol_zero, tol.tol_eq)
    holds = all(r <= bound for (_, r), bound in zip(details, bounds))
    worst = max(r for _, r in details)

    gap = model.vector_norm(x)
    survivors = 0
    # a = b draws nothing: every admissible perturbation magnitude window is empty
    for i in range(trials if gap > tol.tol_eq else 0):
        rng = rng_for(seed, i)
        delta = model.sample(rng)
        delta *= rng.uniform(1e-4, 1.0) * gap / max(model.vector_norm(delta), 1e-300)
        ci = model.element(c + delta)
        ra, rb = ah - ci, bh - ci
        z = model.zero_product(ra, rb) / tol.tol_zero
        if z > 1.0:
            continue
        p_a = model.cone_defect(ra) / tol.tol_psd
        if p_a > 1.0:
            continue
        p_b = model.cone_defect(rb) / tol.tol_psd
        if p_b > 1.0:
            continue
        for name, r in (("zero-product", z), ("a - c_i", p_a), ("b - c_i", p_b)):
            if not r <= 1.0:
                raise PreconditionFailed(f"perturbation {i}: the {name} residual is NaN")
        survivors += 1
    details.append(("uniqueness_survivors", float(survivors)))
    return OrthReport("theorem4", holds and survivors == 0, worst, details)


@dataclass
class WitnessResult:
    """A common lower bound of a non-comparable pair, checked against its
    ortho-infimum."""

    found: bool
    m: np.ndarray
    margin: float
    checks: dict

    def to_json(self) -> dict:
        return {
            "found": bool(self.found),
            "m": matrix_to_json(self.m),
            "margin": float(self.margin),
            "checks": {k: float(v) for k, v in self.checks.items()},
        }


def kadison_witness_search(s, t, tol: Tolerances = DEFAULT_TOL) -> WitnessResult:
    """Constructs a Hermitian m with m <= S, m <= T but m not<= S inf T.

    Such an m shows the ortho-infimum is not a greatest lower bound when S
    and T are non-comparable (Kadison's anti-lattice theorem). With
    c = S inf T, P = (S-T)^+ and N = (S-T)^-, take the top eigenpairs
    (lp, p) of P and (lq, q) of N; p and q are orthogonal since PN = 0.
    For lam = min(lp, lq) and x = (p + q)/sqrt(2),

        m = c + (4 lam/3) xx* - lam I

    gives S - m = P + lam I - (4 lam/3) xx* >= 0 and likewise T - m >= 0,
    while lambda_max(m - c) = lam/3: the margin.

    The pair is comparable (ComparablePair) iff S <= T or T <= S within
    the cone slack, that is iff lam <= tol_psd * max(1, max |eig(S - T)|),
    read from the same spectrum of S - T that builds m.

    found: both residuals lambda_max(m - S), lambda_max(m - T) and the
    measured margin are set against the slack tol_psd * max(||S||_F, ||T||_F).
    """
    _, sh, th = carrier_operands(s, t, tol)   # validated, of one shape
    spectrum = hermitian_eigendecompose(sh - th)
    w, u = spectrum.eigenvalues, spectrum.eigenvectors
    # 0 for an empty spectrum, which is comparable
    lam = min(w.max(initial=0.0), -w.min(initial=0.0))
    if lam <= tol.tol_psd * max(1.0, np.abs(w).max(initial=0.0)):
        raise ComparablePair("S and T are comparable; their minimum is the infimum")
    _, _, abs_x = spectrum.jordan_parts()
    c = (sh + th - abs_x) / 2.0
    x = (u[:, -1] + u[:, 0]) / np.sqrt(2.0)
    m = hermitian_matrix(c + (4.0 / 3.0 * lam) * np.outer(x, x.conj())
                         - lam * np.eye(len(w)))
    checks = {
        "le_S": float(np.linalg.eigvalsh(m - sh)[-1]),
        "le_T": float(np.linalg.eigvalsh(m - th)[-1]),
        "not_le_c": float(np.linalg.eigvalsh(c - m)[0]),
    }
    margin = -checks["not_le_c"]
    # norms taken at unit scale, so that they cannot overflow
    scale = max(np.abs(sh).max(), np.abs(th).max())
    slack = tol.tol_psd * scale * max(frob(sh / scale), frob(th / scale))
    found = checks["le_S"] <= slack and checks["le_T"] <= slack and margin > slack
    return WitnessResult(found, m, margin, checks)
