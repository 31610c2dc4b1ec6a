"""Orthogonality checks: algebraic orthogonality of general complex
matrices and of self-adjoints (Prop 2's equivalent faces), each with the
routes that must agree with it, the infinity-norm identity, and the sampled
absolute infinity-orthogonality test, written once over the carrier models.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .carriers import MatrixSaModel, carrier_operands
from .errors import DimensionMismatch, InternalInconsistency, PreconditionFailed
from .linalg import (
    _KEY_BLOCK,
    _unit_floor,
    _worst,
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


# The k-grid: a log grid, then the refinement +/-rho (1 + off) around the
# crossing point |k| = rho = ||u|| / ||v|| of each pair
_FIXED_KS = np.array([0.0, 1.0, -1.0]
                     + [s * 2.0 ** i for i in range(-6, 7) for s in (1.0, -1.0)])
_CROSSING_FACTORS = np.array([s * (1.0 + off)
                              for off in (-0.10, -0.075, -0.05, -0.025, 0.0,
                                          0.025, 0.05, 0.075, 0.10)
                              for s in (1.0, -1.0)])


@dataclass(frozen=True)
class KGrid:
    """Finite sample of the real scalar k quantified over in the
    infinity-orthogonality definition, one row per pair."""

    values: np.ndarray

    @staticmethod
    def for_norms(u_norms: np.ndarray, v_norms: np.ndarray) -> "KGrid":
        """The grids of a stack of pairs with norms (u_norms[i], v_norms[i]):
        the fixed values of _FIXED_KS, then rho * _CROSSING_FACTORS, with
        rho = 0 where ||v|| is not positive. Duplicates are kept, so every
        row has the same length."""
        rho = np.divide(u_norms, v_norms, out=np.zeros(u_norms.shape), where=v_norms > 0.0)
        fixed = np.broadcast_to(_FIXED_KS, (len(rho), _FIXED_KS.size))
        return KGrid(np.concatenate((fixed, rho[:, None] * _CROSSING_FACTORS), axis=1))


def infty_deviations(u, v, norm):
    """Relative deviations |lhs - rhs| / max(1, rhs) from the identity
    lhs = ||u + k v|| = max(||u||, |k| ||v||) = rhs, for a stack of pairs
    (u[i], v[i]) along the leading axis, one deviation per pair and k of
    the pairs' grids KGrid.for_norms(||u||, ||v||).

    `norm` is the carrier's batched norm: it maps a stack of elements along
    the leading axes to their norms, so the pairs and their grids are
    evaluated in slices of at most _GRID_ENTRIES entries of u + k v. Returns
    the deviations, of shape (pairs, grid points). A grid is neither sorted
    nor free of duplicates, so only a row's maximum is its pair's verdict.
    """
    nu, nv = norm(np.stack((u, v)))
    ks = KGrid.for_norms(nu, nv).values
    lhs = np.empty(ks.shape)
    step = max(1, _GRID_ENTRIES // max(1, ks.shape[1] * u[0].size))
    for rows in (slice(i, i + step) for i in range(0, len(ks), step)):
        # k v + u for every pair and k, with the elements flattened so that
        # one broadcast serves vectors and matrices alike
        kv = ks[rows, :, None] * v[rows].reshape(len(v[rows]), 1, -1)
        kv = kv.reshape(kv.shape[:2] + v.shape[1:])
        kv += u[rows, None]
        lhs[rows] = norm(kv)
    rhs = np.maximum(nu[:, None], np.abs(ks) * nv[:, None])
    return np.abs(lhs - rhs) / _unit_floor(rhs)


# A chunk of stacked samples holds at most this many entries of its elements.
# The chunks of the sampled checks also hold at most _CHUNK_SAMPLES samples,
# each with its own generator and k-grid. A k-grid stack, 47 times larger
# than its chunk, is evaluated in slices of at most _GRID_ENTRIES
# entries (128 kB of complex numbers).
_CHUNK_ENTRIES = 4096
_CHUNK_SAMPLES = 64
_GRID_ENTRIES = 2 * _CHUNK_ENTRIES


def sample_chunks(start: int, stop: int, entries: int):
    """Consecutive ranges covering start, ..., stop - 1, each as long as
    _CHUNK_ENTRIES entries at `entries` per sample allow (the last may be
    shorter)."""
    size = max(1, _CHUNK_ENTRIES // max(1, entries))
    return (range(i, min(stop, i + size)) for i in range(start, stop, size))


def _trial_chunks(seeds, trials: range, entries: int, live):
    """Trial j in `trials` of each pair i with live(i), pair by pair, in the
    chunks of sample_chunks at `entries` entries a trial, less the pairs no
    longer live: per chunk, each row's pair (an array) and trial, and the
    rows' generators rng_for(seeds[i], j), built as they are read."""
    todo = [(i, j) for i in range(len(seeds)) if live(i) for j in trials]
    rngs = rngs_for([seeds[i] for i, _ in todo], np.array([j for _, j in todo], dtype=int))
    for part in sample_chunks(0, len(todo), entries):
        rows = [k for k in part if live(todo[k][0])]
        if rows:
            yield (np.array([todo[k][0] for k in rows]), [todo[k][1] for k in rows],
                   (rngs[k] for k in rows))


def _trial_walk(key, trials: int, entries, dims=None):
    """The one walk over the trials 0, ..., trials - 1 of a suite or a
    check: per chunk, its trials in trial order, their n and their fresh
    generators rng_for(*key, i). With `dims`, n = dims(rng) is read from
    each trial's generator (a trial reads it again from the one yielded),
    and only trials of equal n share a chunk; without, n is None and each
    generator is built once. A chunk holds at most _CHUNK_SAMPLES trials
    and, unless it holds one, at most _CHUNK_ENTRIES of the entries(n) that
    each trial stacks. The keys go in blocks of _KEY_BLOCK, hashed by one
    rngs_for; no generator is kept (500 kept raised the peak memory of a
    theorem4 run at --dim 64 by 0.4 MB)."""
    for start in range(0, trials, _KEY_BLOCK):
        rngs = rngs_for(*key, np.arange(start, min(trials, start + _KEY_BLOCK)))
        groups = {}
        for r in range(len(rngs)):
            groups.setdefault(dims(rngs[r]) if dims else None, []).append(r)
        for n, rows in groups.items():
            cap = max(entries(n), _CHUNK_ENTRIES // _CHUNK_SAMPLES)   # entries a trial counts as
            for part in sample_chunks(0, len(rows), cap):
                chunk = rows[part.start:part.stop]
                yield [start + r for r in chunk], n, map(rngs.__getitem__, chunk)


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
                           tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Falsification-only sampling test of absolute infinity-orthogonality
    of positive a and b, on either carrier.

    Draws pairs from [0,a] x [0,b] (the endpoints (a, b) are trial zero) and
    grid-checks the norm identity on each. The exact decision procedure on
    positives is the carrier's zero-product residual, recorded alongside.

    Trial zero is checked alone and the later trials in chunks. No chunk
    after the one that holds the first violation is drawn, and the worst
    deviation covers the trials up to that violation. A NaN deviation is a
    violation, and the worst deviation is then NaN.
    """
    model, ah, bh = carrier_operands(a, b, tol)
    (exact,), (worst,), (first,) = _sampled_stack(model, ah[None], bh[None], [seed], trials)
    return OrthReport(
        "abs_infty_orth_sampled", worst <= tol.tol_eq, worst,
        [("exact_alg_orth", exact),
         ("sampled_deviation", worst),
         ("first_violation_trial", float(first))])


def hereditary_check(a, b, trials: int = 100, seed: int = 0,
                     tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """cd = 0 for sampled 0 <= c <= a, 0 <= d <= b, given ab = 0, on
    either carrier (Lemma 1)."""
    model, x, y = carrier_operands(a, b, tol)
    (worst,) = _sampled_stack(model, x[None], y[None], [seed], trials, hereditary=True)[1]
    return OrthReport("hereditary", worst <= tol.tol_zero, worst,
                      [("worst_cd", worst)])


def _sampled_stack(model, a, b, seeds, trials: int, hereditary: bool = False):
    """The sampled checks on each pair (a[i], b[i]) of two stacks of elements
    of the model, at its tolerances, with trial j of pair i drawn from
    rng_for(seeds[i], j): lists of the exact zero product, the worst
    residual and the first trial whose residual breaks its bound (-1 for
    none) of each pair.

    The residual is the deviation from the infinity-norm identity (bound
    tol_eq), and trial 0 is the pair itself, checked for all pairs in one
    stack; or, with `hereditary`, Lemma 1's zero product of the samples
    (bound tol_zero), every trial sampled, after a PreconditionFailed for
    the first pair whose ab is not within tol_zero. The samplers raise
    NotPositive for the first a that is not positive, else for the first b.
    The samples go in chunks of at most _CHUNK_SAMPLES, pair by pair in
    trial order. A pair draws no chunk after the one that holds its first
    violation, and its worst residual covers the trials up to it; a NaN
    residual is a violation, and makes the worst NaN.
    """
    tol = model.tol
    sampler_a = model.interval_sampler(a, "a")
    sampler_b = model.interval_sampler(b, "b")
    exact = model.zero_product(a, b)
    if hereditary:
        for r in exact.tolist():
            if not r <= tol.tol_zero:
                raise PreconditionFailed(
                    f"a and b are not algebraically orthogonal (residual {r:.3e})")
        bound, start, residual = tol.tol_zero, 0, model.zero_product
    else:
        bound, start = tol.tol_eq, 1
        residual = lambda c, d: infty_deviations(c, d, model.norm).max(-1)

    worst = [0.0] * len(a)
    first = [-1] * len(a)

    def judge(i, trial, seg):
        """Fold the residuals of pair i's trials trial, trial + 1, ... up to
        its first violation."""
        violations = np.flatnonzero(~(seg <= bound))
        if violations.size:
            first[i] = trial + int(violations[0])
            seg = seg[:violations[0] + 1]
        worst[i] = _worst(worst[i], seg)

    if start and trials > 0:
        for i, seg in enumerate(residual(a, b)[:, None]):
            judge(i, 0, seg)
    cap = max(a[0].size, _CHUNK_ENTRIES // _CHUNK_SAMPLES)   # at most _CHUNK_SAMPLES a chunk
    for owners, trial, rngs in _trial_chunks(seeds, range(start, trials), cap,
                                             lambda i: first[i] < 0):
        drawn = list(rngs)   # each draws a sample of a, then one of b
        values = residual(sampler_a.draw(drawn, owners), sampler_b.draw(drawn, owners))
        # each pair's trials of a chunk are consecutive rows
        edges = [0, *(np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist(), len(owners)]
        for lo, hi in zip(edges, edges[1:]):
            judge(int(owners[lo]), trial[lo], values[lo:hi])
    return exact.tolist(), worst, first
