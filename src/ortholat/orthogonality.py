"""Orthogonality predicates on Hermitian and general complex matrices:
algebraic, infinity-norm, and absolute infinity-norm variants, plus the
equivalence checks tying them together and order-interval sampling.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotPositive,
    PreconditionFailed,
)
from .linalg import (
    abs_general,
    complex_matrix,
    embed_offdiag,
    frob,
    hermitian_matrix,
    hermitian_norm,
    jordan_decompose,
    psd_defect,
    rel_diff,
    rng_for,
    sqrt_psd,
    zero_product_residual,
)
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "OrthReport",
    "KGrid",
    "alg_orth_positive",
    "alg_orth_sa",
    "alg_orth_general",
    "check_prop2_equivalence",
    "infty_deviations",
    "infty_orth",
    "OrderIntervalSampler",
    "abs_infty_orth_sampled",
    "hereditary_check",
]


@dataclass
class OrthReport:
    """Outcome of one predicate evaluation.

    holds is decided against the predicate's governing tolerance;
    max_violation is the worst residual over all sub-checks; details keeps
    every (check-name, residual) pair for diagnosis.
    """

    relation: str
    holds: bool
    max_violation: float
    details: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "holds": bool(self.holds),
            "max_violation": float(self.max_violation),
            "details": [[name, float(r)] for name, r in self.details],
        }


@dataclass(frozen=True)
class KGrid:
    """Finite sample of the real scalar k quantified over in the
    infinity-orthogonality definition."""

    values: np.ndarray

    @staticmethod
    def for_norms(u_norm: float, v_norm: float) -> "KGrid":
        """Log grid plus refinement near the crossing point |k| = ||u||/||v||."""
        ks = [0.0, 1.0, -1.0]
        ks += [s * 2.0 ** i for i in range(-6, 7) for s in (1.0, -1.0)]
        if v_norm > 0.0:
            rho = u_norm / v_norm
            for off in (-0.10, -0.075, -0.05, -0.025, 0.0, 0.025, 0.05, 0.075, 0.10):
                ks.append(rho * (1.0 + off))
                ks.append(-rho * (1.0 + off))
        return KGrid(np.unique(np.asarray(ks, dtype=float)))


def infty_deviations(u, v, norm, grid: KGrid | None = None):
    """Relative deviations |lhs - rhs| / max(1, rhs) from the identity
    lhs = ||u + k v|| = max(||u||, |k| ||v||) = rhs, one per k on the grid.

    `norm` is the carrier's batched norm: it maps a stack of elements along
    the leading axis to their norms, so the whole grid is one evaluation.
    The grid defaults to KGrid.for_norms(||u||, ||v||). Returns the grid
    values and the deviations.
    """
    nu, nv = norm(np.stack((u, v)))
    if grid is None:
        grid = KGrid.for_norms(nu, nv)
    ks = grid.values
    lhs = norm(u + ks.reshape((-1,) + (1,) * np.ndim(u)) * v)
    rhs = np.maximum(nu, np.abs(ks) * nv)
    return ks, np.abs(lhs - rhs) / np.maximum(1.0, rhs)


def _require_psd(x, name: str, tol: Tolerances):
    d = psd_defect(x, tol)
    if d > tol.tol_psd:
        raise NotPositive(f"{name} is not PSD (defect {d:.3e})")


def _check_dims(a, b):
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")


def alg_orth_positive(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Algebraic orthogonality of positives: ab = 0."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _check_dims(ah, bh)
    _require_psd(ah, "a", tol)
    _require_psd(bh, "b", tol)
    r = zero_product_residual(ah, bh)
    return OrthReport("alg_orth_positive", r <= tol.tol_zero, r, [("ab", r)])


def alg_orth_sa(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Algebraic orthogonality of self-adjoints: |a||b| = 0."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _check_dims(ah, bh)
    _, _, abs_a = jordan_decompose(ah, tol)
    _, _, abs_b = jordan_decompose(bh, tol)
    r = zero_product_residual(abs_a, abs_b)
    return OrthReport("alg_orth_sa", r <= tol.tol_zero, r, [("|a||b|", r)])


def alg_orth_general(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Algebraic orthogonality of arbitrary elements: ab* = 0 = a*b.

    Also evaluates the two equivalent routes (|a||b| = 0 = |a*||b*|, and the
    doubled-dimension off-diagonal embedding) and flags disagreement as
    InternalInconsistency.
    """
    am, bm = complex_matrix(a), complex_matrix(b)
    _check_dims(am, bm)
    r_ab_star = zero_product_residual(am, bm.conj().T)
    r_astar_b = zero_product_residual(am.conj().T, bm)
    primary = max(r_ab_star, r_astar_b)

    r_abs = zero_product_residual(abs_general(am, tol), abs_general(bm, tol))
    r_abs_star = zero_product_residual(
        abs_general(am.conj().T, tol), abs_general(bm.conj().T, tol))
    route_abs = max(r_abs, r_abs_star)

    m2 = alg_orth_sa(embed_offdiag(am), embed_offdiag(bm), tol)

    verdicts = [primary <= tol.tol_zero,
                route_abs <= tol.tol_zero,
                m2.holds]
    details = [
        ("ab*", r_ab_star),
        ("a*b", r_astar_b),
        ("|a||b|", r_abs),
        ("|a*||b*|", r_abs_star),
        ("M2_embed", m2.max_violation),
    ]
    if len(set(verdicts)) != 1:
        raise InternalInconsistency(
            f"orthogonality routes disagree: {details}")
    return OrthReport("alg_orth_general", verdicts[0], primary, details)


def check_prop2_equivalence(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Three equivalent faces of self-adjoint orthogonality:
    (1) |a||b| = 0; (2) the four Jordan parts are mutually algebraically
    orthogonal; (3) |a +/- b| = |a| + |b|. Verdicts must coincide.
    """
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _check_dims(ah, bh)
    ap, an, abs_a = jordan_decompose(ah, tol)
    bp, bn, abs_b = jordan_decompose(bh, tol)

    r1 = zero_product_residual(abs_a, abs_b)

    parts = [ap, an, bp, bn]
    r2 = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            r2 = max(r2, zero_product_residual(parts[i], parts[j]))

    _, _, abs_sum = jordan_decompose(ah + bh, tol)
    _, _, abs_dif = jordan_decompose(ah - bh, tol)
    r3 = max(rel_diff(abs_sum, abs_a + abs_b), rel_diff(abs_dif, abs_a + abs_b))

    verdicts = [r1 <= tol.tol_zero, r2 <= tol.tol_zero, r3 <= tol.tol_eq]
    details = [("|a||b|", r1), ("jordan_parts", r2), ("|a+-b|=|a|+|b|", r3)]
    if len(set(verdicts)) != 1:
        raise InternalInconsistency(f"Prop2 verdicts disagree: {details}")
    return OrthReport("prop2_equivalence", verdicts[0], max(r1, r2, r3), details)


def infty_orth(u, v, grid: KGrid | None = None,
               tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """||u + kv|| = max(||u||, |k| ||v||) for every k on the grid."""
    um, vm = hermitian_matrix(u), hermitian_matrix(v)
    _check_dims(um, vm)
    ks, dev = infty_deviations(um, vm, hermitian_norm, grid)
    worst = float(dev.max(initial=0.0))
    # the first k attaining the maximum; 0 when the identity holds exactly
    worst_k = float(ks[np.argmax(dev)]) if worst > 0.0 else 0.0
    return OrthReport("infty_orth", worst <= tol.tol_eq, worst,
                      [("worst_k", worst_k), ("deviation", worst)])


class OrderIntervalSampler:
    """Draws elements of the order interval [0, a] via a^(1/2) w a^(1/2)
    with w a seeded random contraction 0 <= w <= 1."""

    def __init__(self, a, tol: Tolerances = DEFAULT_TOL):
        ah = hermitian_matrix(a)
        _require_psd(ah, "a", tol)
        self.root = sqrt_psd(ah, tol)
        self.n = ah.shape[0]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        from .linalg import random_unitary  # local import to avoid cycle noise
        u = random_unitary(self.n, rng)
        t = rng.uniform(0.0, 1.0, size=self.n)
        w = (u * t) @ u.conj().T
        return hermitian_matrix(self.root @ w @ self.root)


def abs_infty_orth_sampled(a, b, trials: int = 200, seed: int = 0,
                           tol: Tolerances = DEFAULT_TOL,
                           stop_on_violation: bool = False) -> OrthReport:
    """Falsification-only sampling test of absolute infinity-orthogonality.

    Draws pairs from [0,a] x [0,b] (the endpoints (a, b) are trial zero) and
    grid-checks the norm identity on each. The exact decision procedure on
    positives is alg_orth_positive; its residual is recorded alongside.
    """
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _check_dims(ah, bh)
    sampler_a = OrderIntervalSampler(ah, tol)
    sampler_b = OrderIntervalSampler(bh, tol)
    exact = zero_product_residual(ah, bh)

    worst = 0.0
    first_violation = -1
    for i in range(trials):
        if i == 0:
            c, d = ah, bh
        else:
            rng = rng_for(seed, i)
            c, d = sampler_a.draw(rng), sampler_b.draw(rng)
        rep = infty_orth(c, d, None, tol)
        if rep.max_violation > worst:
            worst = rep.max_violation
        if first_violation < 0 and not rep.holds:
            first_violation = i
            if stop_on_violation:
                break
    return OrthReport(
        "abs_infty_orth_sampled", worst <= tol.tol_eq, worst,
        [("exact_alg_orth", exact),
         ("sampled_deviation", worst),
         ("first_violation_trial", float(first_violation))])


def hereditary_check(a, b, trials: int = 100, seed: int = 0,
                     tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """cd = 0 for sampled 0 <= c <= a, 0 <= d <= b, given ab = 0."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _check_dims(ah, bh)
    pre = alg_orth_positive(ah, bh, tol)
    if not pre.holds:
        raise PreconditionFailed(
            f"a and b are not algebraically orthogonal (residual {pre.max_violation:.3e})")
    sampler_a = OrderIntervalSampler(ah, tol)
    sampler_b = OrderIntervalSampler(bh, tol)
    worst = 0.0
    for i in range(trials):
        rng = rng_for(seed, i)
        c, d = sampler_a.draw(rng), sampler_b.draw(rng)
        worst = max(worst, zero_product_residual(c, d))
    return OrthReport("hereditary", worst <= tol.tol_zero, worst,
                      [("worst_cd", worst)])
