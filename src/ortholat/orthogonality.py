"""Orthogonality predicates: algebraic orthogonality on Hermitian and
general complex matrices with the equivalence checks tying its routes
together, the infinity-norm identity, and the sampled absolute
infinity-orthogonality test, written once over the carrier models.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .carriers import MatrixSaModel, carrier_operands, require_positive
from .errors import DimensionMismatch, InternalInconsistency, PreconditionFailed
from .linalg import (
    abs_general,
    complex_matrix,
    embed_offdiag,
    rngs_for,
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
    "sample_chunks",
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
        # sorted, one of each value and one NaN, as np.unique gives them
        # without importing numpy.ma on its first call
        ks = np.sort(np.asarray(ks, dtype=float))
        first = np.ones(ks.shape, dtype=bool)
        first[1:] = (ks[1:] != ks[:-1]) & ~np.isnan(ks[:-1])
        return KGrid(ks[first])


def infty_deviations(u, v, norm):
    """Relative deviations |lhs - rhs| / max(1, rhs) from the identity
    lhs = ||u + k v|| = max(||u||, |k| ||v||) = rhs, for a stack of pairs
    (u[i], v[i]) along the leading axis, one deviation per pair and k of
    the pair's grid KGrid.for_norms(||u[i]||, ||v[i]||).

    `norm` is the carrier's batched norm: it maps a stack of elements along
    the leading axes to their norms, so all pairs and the whole grid are one
    evaluation. Grids shorter than the longest are padded with copies of
    their last value, which leaves the first k of the largest deviation
    unchanged. Returns the deviations, of shape (pairs, grid points).
    """
    nu, nv = norm(np.stack((u, v)))
    grids = [KGrid.for_norms(a, b).values for a, b in zip(nu, nv)]
    ks = np.empty((len(grids), max(g.size for g in grids)))
    for row, g in zip(ks, grids):
        row[:g.size] = g
        row[g.size:] = g[-1]
    # k v for every pair and k, with the elements flattened so that one
    # broadcast serves vectors and matrices alike
    kv = (ks[..., None] * v.reshape(len(v), 1, -1)).reshape(ks.shape + v.shape[1:])
    lhs = norm(u[:, None] + kv)
    rhs = np.maximum(nu[:, None], np.abs(ks) * nv[:, None])
    return np.abs(lhs - rhs) / np.maximum(1.0, rhs)


# A chunk of stacked samples holds at most this many entries of its elements,
# so the k-grid stack of one chunk (at most 47 times larger) stays near 3 MB.
_CHUNK_ENTRIES = 4096


def sample_chunks(start: int, stop: int, entries: int):
    """Consecutive ranges covering start, ..., stop - 1, each as long as
    _CHUNK_ENTRIES entries at `entries` per sample allow (the last may be
    shorter)."""
    size = max(1, _CHUNK_ENTRIES // max(1, entries))
    return (range(i, min(stop, i + size)) for i in range(start, stop, size))


def alg_orth_positive(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Algebraic orthogonality of positives, on either carrier: ab = 0."""
    model, x, y = carrier_operands(a, b, tol)
    require_positive(model.cone_defect(x), "a", tol)
    require_positive(model.cone_defect(y), "b", tol)
    r = model.zero_product(x, y)
    return OrthReport("alg_orth_positive", r <= tol.tol_zero, r, [("ab", r)])


def alg_orth_sa(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Algebraic orthogonality of self-adjoints, on either carrier: |a||b| = 0."""
    model, x, y = carrier_operands(a, b, tol)
    r = model.orth_residual(x, y)
    return OrthReport("alg_orth_sa", r <= tol.tol_zero, r, [("|a||b|", r)])


def _sole(outcomes):
    """The report of a stack of one pair, or the error its check raised."""
    outcome, = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _matrix(m) -> np.ndarray:
    """m validated as one square complex matrix, not a stack."""
    x = complex_matrix(m)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {x.shape}")
    return x


def alg_orth_general(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Algebraic orthogonality of arbitrary elements: ab* = 0 = a*b.

    Also evaluates the two equivalent routes (|a||b| = 0 = |a*||b*|, and the
    doubled-dimension off-diagonal embedding) and flags disagreement as
    InternalInconsistency. The routes run on different kernels: matrix
    products, the singular value decomposition (|x|), and the Hermitian
    eigensolver (the embedding).
    """
    am, bm = _matrix(a), _matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return _sole(_alg_orth_general_stack(am[None], bm[None], tol))


def _alg_orth_general_stack(a, b, tol: Tolerances) -> list:
    """alg_orth_general on each pair (a[i], b[i]) of two stacks of square
    complex matrices: the report of each pair, or the InternalInconsistency
    its check raises. The four |x| of all pairs are one stacked SVD, and
    the two embeddings one stacked eigendecomposition."""
    a_star, b_star = a.conj().mT, b.conj().mT
    abs_a, abs_b, abs_a_star, abs_b_star = np.split(
        abs_general(np.concatenate((a, b, a_star, b_star))), 4)
    model = MatrixSaModel(2 * a.shape[-1], tol)
    abs_ea, abs_eb = np.split(
        model.jordan(model.element(embed_offdiag(np.concatenate((a, b)))))[2], 2)
    routes = (zero_product_residual(a, b_star), zero_product_residual(a_star, b),
              zero_product_residual(abs_a, abs_b),
              zero_product_residual(abs_a_star, abs_b_star),
              model.zero_product(abs_ea, abs_eb))

    outcomes = []
    for r_ab_star, r_astar_b, r_abs, r_abs_star, r_m2 in zip(*(r.tolist() for r in routes)):
        primary = max(r_ab_star, r_astar_b)
        route_abs = max(r_abs, r_abs_star)
        verdicts = [primary <= tol.tol_zero,
                    route_abs <= tol.tol_zero,
                    r_m2 <= tol.tol_zero]
        details = [
            ("ab*", r_ab_star),
            ("a*b", r_astar_b),
            ("|a||b|", r_abs),
            ("|a*||b*|", r_abs_star),
            ("M2_embed", r_m2),
        ]
        outcomes.append(
            OrthReport("alg_orth_general", verdicts[0], primary, details)
            if len(set(verdicts)) == 1 else
            InternalInconsistency(f"orthogonality routes disagree: {details}"))
    return outcomes


def check_prop2_equivalence(a, b, tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Three equivalent faces of self-adjoint orthogonality, on either
    carrier: (1) |a||b| = 0; (2) pq = 0 for p in {a+, a-}, q in {b+, b-}
    (the four products sum to |a||b|; a+ a- = 0 and b+ b- = 0 are the
    Jordan decomposition's own, stated by check_axioms); (3) |a +/- b| =
    |a| + |b|. Verdicts must coincide.
    """
    model, x, y = carrier_operands(a, b, tol)
    return _sole(_prop2_stack(model, x[None], y[None]))


def _prop2_stack(model, x, y) -> list:
    """check_prop2_equivalence on each pair (x[i], y[i]) of two stacks of
    elements of the model, at the model's tolerances: the report of each
    pair, or the InternalInconsistency its check raises. The Jordan parts
    of x, y, x + y and x - y of all pairs are one stacked decomposition."""
    tol = model.tol
    pos, neg, absv = (np.split(part, 4)
                      for part in model.jordan(np.concatenate((x, y, x + y, x - y))))
    (xp, yp, _, _), (xn, yn, _, _), (abs_x, abs_y, abs_sum, abs_dif) = pos, neg, absv
    faces = (
        model.zero_product(abs_x, abs_y),
        *(model.zero_product(p, q) for p in (xp, xn) for q in (yp, yn)),
        model.rel_diff(abs_sum, abs_x + abs_y), model.rel_diff(abs_dif, abs_x + abs_y),
    )

    outcomes = []
    for r1, *r in zip(*(f.tolist() for f in faces)):
        r2, r3 = max(r[:4]), max(r[4:])
        verdicts = [r1 <= tol.tol_zero, r2 <= tol.tol_zero, r3 <= tol.tol_eq]
        details = [("|a||b|", r1), ("jordan_parts", r2), ("|a+-b|=|a|+|b|", r3)]
        outcomes.append(
            OrthReport("prop2_equivalence", verdicts[0], max(r1, r2, r3), details)
            if len(set(verdicts)) == 1 else
            InternalInconsistency(f"Prop2 verdicts disagree: {details}"))
    return outcomes


def abs_infty_orth_sampled(a, b, trials: int = 200, seed: int = 0,
                           tol: Tolerances = DEFAULT_TOL,
                           stop_on_violation: bool = False) -> OrthReport:
    """Falsification-only sampling test of absolute infinity-orthogonality
    of positive a and b, on either carrier.

    Draws pairs from [0,a] x [0,b] (the endpoints (a, b) are trial zero) and
    grid-checks the norm identity on each. The exact decision procedure on
    positives is the carrier's zero-product residual, recorded alongside.

    Trial zero is checked alone and the later trials in chunks. With
    stop_on_violation no chunk after the one that holds the first violation
    is drawn, and the worst deviation covers the trials up to that
    violation.
    """
    model, ah, bh = carrier_operands(a, b, tol)
    sampler_a = model.interval_sampler(ah, "a")
    sampler_b = model.interval_sampler(bh, "b")
    exact = model.zero_product(ah, bh)

    worst = 0.0
    first_violation = -1
    rngs = rngs_for(seed, np.arange(trials))   # trial 0's is not drawn from
    for chunk in [range(1), *sample_chunks(1, trials, ah.size)] if trials > 0 else []:
        if chunk.start == 0:
            cs, ds = ah[None], bh[None]
        else:
            drawn = [rngs[i] for i in chunk]
            cs, ds = sampler_a.draw(drawn), sampler_b.draw(drawn)
        dev = infty_deviations(cs, ds, model.norm).max(-1)
        violations = np.flatnonzero(~(dev <= tol.tol_eq))
        if first_violation < 0 and violations.size:
            first_violation = chunk.start + int(violations[0])
            if stop_on_violation:
                worst = max(worst, float(dev[:violations[0] + 1].max()))
                break
        worst = max(worst, float(dev.max()))
    return OrthReport(
        "abs_infty_orth_sampled", worst <= tol.tol_eq, worst,
        [("exact_alg_orth", exact),
         ("sampled_deviation", worst),
         ("first_violation_trial", float(first_violation))])


def hereditary_check(a, b, trials: int = 100, seed: int = 0,
                     tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """cd = 0 for sampled 0 <= c <= a, 0 <= d <= b, given ab = 0, on
    either carrier (Lemma 1)."""
    model, x, y = carrier_operands(a, b, tol)
    # the samplers raise NotPositive unless a, b >= 0
    sampler_a, sampler_b = model.interval_sampler(x, "a"), model.interval_sampler(y, "b")
    r = model.zero_product(x, y)
    if r > tol.tol_zero:
        raise PreconditionFailed(
            f"a and b are not algebraically orthogonal (residual {r:.3e})")
    worst = 0.0
    rngs = rngs_for(seed, np.arange(trials))
    for chunk in sample_chunks(0, trials, x.size):
        drawn = [rngs[i] for i in chunk]
        cs, ds = sampler_a.draw(drawn), sampler_b.draw(drawn)
        worst = max([worst, *model.zero_product(cs, ds).tolist()])
    return OrthReport("hereditary", worst <= tol.tol_zero, worst,
                      [("worst_cd", worst)])
