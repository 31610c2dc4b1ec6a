"""Ortho-infimum and ortho-supremum on Hermitian matrices, their defining
properties, uniqueness falsification, and a randomized search for common
lower bounds that beat the ortho-infimum (the anti-lattice phenomenon).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComparablePair, NoConvergence, PreconditionFailed
from .linalg import (
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    is_comparable,
    jordan_decompose,
    matrix_to_json,
    psd_defect,
    rel_diff,
    random_hermitian,
    rng_for,
    zero_product_residual,
)
from .orthogonality import OrthReport
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "ortho_inf",
    "ortho_sup",
    "verify_theorem4",
    "uniqueness_falsify",
    "WitnessResult",
    "kadison_witness_search",
]


def ortho_inf(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """(a + b - |a - b|) / 2, the ortho-infimum."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _, _, abs_diff = jordan_decompose(ah - bh, tol)
    return (ah + bh - abs_diff) / 2.0


def ortho_sup(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """(a + b + |a - b|) / 2, the ortho-supremum."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _, _, abs_diff = jordan_decompose(ah - bh, tol)
    return (ah + bh + abs_diff) / 2.0


def verify_theorem4(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Checks the defining properties of the ortho-infimum c and
    ortho-supremum d for the pair (a, b):

    c <= a, c <= b, (a-c) orth (b-c); a <= d, b <= d, (d-a) orth (d-b);
    the residual identities a-c = (a-b)^+ and b-c = (a-b)^-; and the
    duality sup(a,b) = -inf(-a,-b).
    """
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    xp, xn, abs_x = jordan_decompose(ah - bh, tol)
    c = (ah + bh - abs_x) / 2.0
    d = (ah + bh + abs_x) / 2.0

    details = [
        ("c_le_a", psd_defect(ah - c, tol)),
        ("c_le_b", psd_defect(bh - c, tol)),
        ("inf_residuals_orth", zero_product_residual(ah - c, bh - c)),
        ("a_le_d", psd_defect(d - ah, tol)),
        ("b_le_d", psd_defect(d - bh, tol)),
        ("sup_residuals_orth", zero_product_residual(d - ah, d - bh)),
        ("a_minus_c_is_pos_part", rel_diff(ah - c, xp)),
        ("b_minus_c_is_neg_part", rel_diff(bh - c, xn)),
        ("sup_duality", rel_diff(d, -ortho_inf(-ah, -bh, tol))),
        ("inf_plus_sup", rel_diff(c + d, ah + bh)),
        ("sup_minus_inf", rel_diff(d - c, abs_x)),
    ]
    # cone defects compare against tol_psd, products against tol_zero,
    # equalities against tol_eq; normalize to a single governing tolerance
    bounds = {
        "c_le_a": tol.tol_psd, "c_le_b": tol.tol_psd,
        "a_le_d": tol.tol_psd, "b_le_d": tol.tol_psd,
        "inf_residuals_orth": tol.tol_zero, "sup_residuals_orth": tol.tol_zero,
    }
    holds = all(r <= bounds.get(name, tol.tol_eq) for name, r in details)
    worst = max(r for _, r in details)
    return OrthReport("theorem4", holds, worst, details)


def uniqueness_falsify(a, b, trials: int = 100, seed: int = 0,
                       tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Random perturbations of the ortho-infimum must each break one of its
    three defining conditions; holds iff no perturbation survives.

    max_violation is the number of survivors (0.0 when every perturbation
    is properly falsified); min_margin is the smallest perturbation margin,
    the largest of the three checks' residual-to-tolerance ratios.

    The cheapest check, residual orthogonality (one matmul), runs first.
    Each cone check (one eigvalsh) runs only while it could still change
    survivors or min_margin: a margin above 1 that is already at least
    min_margin settles the perturbation, since further checks can only
    raise it.
    """
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    c = ortho_inf(ah, bh, tol)
    gap = frob(ah - bh)
    if gap <= tol.tol_eq:
        # a = b: every admissible perturbation magnitude window is empty
        return OrthReport("uniqueness_falsify", True, 0.0,
                          [("survivors", 0.0), ("min_margin", np.inf)])
    n = ah.shape[0]
    survivors = 0
    min_margin = np.inf

    def settled(m):
        # False for NaN, so a NaN residual never skips a check
        return m > 1.0 and m >= min_margin

    for i in range(trials):
        rng = rng_for(seed, i)
        delta = random_hermitian(n, rng)
        delta *= rng.uniform(1e-4, 1.0) * gap / max(frob(delta), 1e-300)
        ci = c + delta
        ra, rb = ah - ci, bh - ci
        z = zero_product_residual(ra, rb) / tol.tol_zero
        if settled(z):
            continue
        p_a = psd_defect(ra, tol) / tol.tol_psd
        if settled(max(p_a, z)):
            continue
        p_b = psd_defect(rb, tol) / tol.tol_psd
        margin = max((p_a, p_b, z))  # > 1 means at least one condition is broken
        min_margin = min(min_margin, margin)
        if margin <= 1.0:
            survivors += 1
    return OrthReport("uniqueness_falsify", survivors == 0, float(survivors),
                      [("survivors", float(survivors)),
                       ("min_margin", float(min_margin))])


@dataclass
class WitnessResult:
    """Outcome of the common-lower-bound search below a non-comparable pair."""

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


def _min_eig(x, tol):
    return float(hermitian_eigendecompose(x, tol).eigenvalues[0])


def _max_eig(x, tol):
    return float(hermitian_eigendecompose(x, tol).eigenvalues[-1])


def kadison_witness_search(s, t, iters: int = 2000, restarts: int = 16,
                           seed: int = 0, margin_min: float = 1e-3,
                           tol: Tolerances = DEFAULT_TOL) -> WitnessResult:
    """Searches for a Hermitian m with m <= S, m <= T but m not<= S inf T.

    Such an m shows the ortho-infimum is not a greatest lower bound when S
    and T are non-comparable. Penalty-based randomized descent: maximize
    -lambda_min(c - m) with the two upper-bound constraints as 1e3-weighted
    penalties, over `restarts` independent starts.

    Each restart draws only from its own generator, so the restarts run in
    lockstep: one stacked eigh per step gives every candidate's violation,
    and the penalty eigensolves run only for the candidates whose violation
    alone beats their restart's score, since a penalty can only lower it.
    """
    if restarts < 1:
        raise PreconditionFailed(f"restarts must be >= 1, got {restarts}")
    sh, th = hermitian_matrix(s), hermitian_matrix(t)
    if is_comparable(sh, th, tol):
        raise ComparablePair("S and T are comparable; their minimum is the infimum")
    c = ortho_inf(sh, th, tol)
    n = sh.shape[0]
    penalty = 1e3

    def eigenvalues(x):
        # hermitian_eigendecompose's eigenvalues, for each matrix of a stack
        if not np.isfinite(x).all():
            raise ValueError("matrix entries must be finite")
        try:
            return np.linalg.eigh((x + x.conj().swapaxes(-1, -2)) / 2.0)[0]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc

    def penalized(ms, viol):
        top = eigenvalues(np.concatenate([ms - sh, ms - th]))[:, -1]
        over = np.where(top > 0.0, top, 0.0)  # max(0.0, x): 0.0 for NaN too
        return viol - penalty * (over[:len(ms)] + over[len(ms):])

    base = min(_min_eig(sh, tol), _min_eig(th, tol)) - 0.5
    rngs = [rng_for(seed, r) for r in range(restarts)]
    m = np.stack([base * np.eye(n, dtype=complex) + 0.05 * random_hermitian(n, rng)
                  for rng in rngs])
    cur = penalized(m, -eigenvalues(c - m)[:, 0])
    step = np.full(restarts, 0.3)
    stall = np.zeros(restarts, dtype=int)
    live = np.arange(restarts)  # restarts whose step is still >= 1e-8
    for _ in range(iters):
        if not live.size:
            break
        cand = m[live] + step[live, None, None] * np.stack(
            [random_hermitian(n, rngs[r]) for r in live])
        viol = -eigenvalues(c - cand)[:, 0]
        up = np.flatnonzero(viol > cur[live])  # NaN never wins
        if up.size:
            sc = penalized(cand[up], viol[up])
            won = sc > cur[live[up]]
            up, sc = up[won], sc[won]
            m[live[up]], cur[live[up]] = cand[up], sc
        stall[live] += 1
        stall[live[up]] = 0
        halve = live[stall[live] >= 25]
        step[halve] *= 0.5
        stall[halve] = 0
        live = live[step[live] >= 1e-8]

    best_m = None
    best_margin = -np.inf
    for mr in m:
        # repair residual constraint violations by a uniform downward shift
        shift = max(0.0, _max_eig(mr - sh, tol), _max_eig(mr - th, tol))
        if shift > 0.0:
            mr = mr - shift * np.eye(n, dtype=complex)
        margin = -_min_eig(c - mr, tol)
        if margin > best_margin:
            best_margin, best_m = margin, mr

    checks = {
        "le_S": _max_eig(best_m - sh, tol),
        "le_T": _max_eig(best_m - th, tol),
        "not_le_c": _min_eig(c - best_m, tol),
    }
    feasible = checks["le_S"] <= tol.tol_psd * max(1.0, frob(sh)) and \
        checks["le_T"] <= tol.tol_psd * max(1.0, frob(th))
    found = feasible and best_margin >= margin_min
    return WitnessResult(found, hermitian_matrix(best_m), float(best_margin), checks)
