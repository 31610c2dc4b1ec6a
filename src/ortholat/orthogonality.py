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
    _SEED_MASK,
    _draw_rows,
    _generator,
    _seed_words,
    _unit_floor,
    _worst,
    abs_general,
    complex_matrix,
    embed_offdiag,
    zero_product_residual,
)
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "OrthReport",
    "KGrid",
    "alg_orth_general",
    "check_prop2_equivalence",
    "infty_deviations",
    "abs_infty_orth_sampled",
    "hereditary_check",
]


@dataclass
class OrthReport:
    """The one verdict record of a check. details keeps every (name, value)
    pair; bounds maps each deciding detail to its bound (0 for a count; a
    value recorded alongside has none). The check holds when every bounded
    value is at most its bound, NaN failing. worst_ratio is the largest
    value / bound over them, a count read against 1/2 (the largest bound
    only a count of 0 meets), NaN if one is NaN, and worst_check names its
    detail (0.0 and None without a bounded detail).
    """

    relation: str
    details: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)

    def _holds(self, names) -> bool:
        return all(value <= self.bounds[name] for name, value in self.details if name in names)

    def _peak_ratio(self) -> tuple:
        return _peak((value / (self.bounds[name] or 0.5), name) for name, value in self.details
                     if name in self.bounds)

    holds = property(lambda self: self._holds(self.bounds))
    worst_ratio = property(lambda self: self._peak_ratio()[0])
    worst_check = property(lambda self: self._peak_ratio()[1])

    def _agreed(self, *routes):
        """The record, if each route (a group of its bounded details) gives
        the same verdict, else the InternalInconsistency of the routes."""
        if len({self._holds(route) for route in routes}) == 1:
            return self
        return InternalInconsistency(f"{self.relation} routes disagree: {self.details}")

    def to_json(self) -> dict:
        ratio, check = self._peak_ratio()
        return {"relation": self.relation, "holds": self.holds,
                "worst_ratio": float(ratio), "worst_check": check,
                "bounds": {name: float(bound) for name, bound in self.bounds.items()},
                "details": [[name, float(r)] for name, r in self.details]}


def _peak(ratios) -> tuple:
    """The worst of (ratio, name) pairs: the first whose ratio is NaN, else
    the first of the largest; (0.0, None) of none."""
    ratios = list(ratios)
    return next((r for r in ratios if r[0] != r[0]),
                max(ratios, key=lambda r: r[0], default=(0.0, None)))


# The k-grid: a log grid, then the refinement +/-rho (1 + off) around the
# crossing point |k| = rho = ||u|| / ||v|| of each pair
_FIXED_KS = np.array([0.0] + [s * 2.0 ** i for i in range(-6, 7) for s in (1.0, -1.0)])
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


# A chunk of stacked samples holds at most _CHUNK_SAMPLES samples, each with
# its own generator (and in the sampled checks its own k-grid), and unless
# it holds one, at most _CHUNK_ENTRIES entries of its elements. A k-grid
# stack, 45 times larger than its chunk, is evaluated in slices of at most
# _GRID_ENTRIES entries (128 kB of complex numbers). The generators' keys are
# hashed _KEY_BLOCK at a time.
_CHUNK_ENTRIES = 4096
_CHUNK_SAMPLES = 64
_GRID_ENTRIES = 2 * _CHUNK_ENTRIES
_KEY_BLOCK = 1024


def _trial_walk(prefixes, trials: range, entries, dims=None, live=None):
    """The one walk over the trials of a suite or a check: trial j of pair
    p, for j in `trials` (a range of step 1), draws from the generator of
    the key (*prefixes[p], j), that is rng_for(*prefixes[p], j), and the
    keys go pair by pair in trial order. Per chunk it yields the pairs (an
    array) and the trials of its keys, their n and their fresh generators,
    which draw into the chunk's rows (linalg._draw_rows).

    With `dims`, n = dims(rng) is read from each key's generator (a trial
    reads it again from the one yielded), and only keys of equal n share a
    chunk; without, n is None. With `live`, a chunk holds only the keys of
    pairs p with live(p) when it is cut. A chunk holds at most
    _CHUNK_SAMPLES keys and, unless it holds one, at most _CHUNK_ENTRIES of
    the entries(n) that each trial stacks. The keys are hashed in blocks of
    _KEY_BLOCK, and a chunk holds keys of one block; the walk keeps the
    block's seed words, not its generators (500 kept raised the peak
    memory of a theorem4 run at --dim 64 by 0.4 MB)."""
    prefix = np.array([(int(seed) & _SEED_MASK, *rest) for seed, *rest in prefixes],
                      dtype=np.uint64)
    count = len(prefix) * len(trials)
    for start in range(0, count, _KEY_BLOCK):
        pair, at = np.divmod(np.arange(start, min(count, start + _KEY_BLOCK)), len(trials))
        trial = at.astype(np.uint64) + np.uint64(trials.start)
        words = _seed_words(np.vstack((prefix[pair].T, trial)))
        owner = pair.tolist()
        groups = {}
        for r in range(len(owner)):
            groups.setdefault(dims(_generator(words[r])) if dims else None, []).append(r)
        for n, rows in groups.items():
            size = max(1, _CHUNK_ENTRIES // max(entries(n), _CHUNK_ENTRIES // _CHUNK_SAMPLES))
            for lo in range(0, len(rows), size):
                chunk = [r for r in rows[lo:lo + size] if live is None or live(owner[r])]
                if chunk:
                    yield pair[chunk], trial[chunk].tolist(), n, map(_generator, words[chunk])


def _sole(outcomes):
    """The report of a stack of one pair; a returned InternalInconsistency is raised."""
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
    abs_ea, abs_eb = np.split(model.jordan(embed_offdiag(np.concatenate((a, b))))[2], 2)
    routes = (zero_product_residual(a, b_star), zero_product_residual(a_star, b),
              zero_product_residual(abs_a, abs_b),
              zero_product_residual(abs_a_star, abs_b_star),
              model.zero_product(abs_ea, abs_eb))

    names = ("ab*", "a*b", "|a||b|", "|a*||b*|", "M2_embed")
    bounds = dict.fromkeys(names, tol.tol_zero)
    return [OrthReport("alg_orth_general", list(zip(names, r)), bounds)
            ._agreed(names[:2], names[2:4], names[4:]) for r in zip(*(r.tolist() for r in routes))]


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
    # faces (2) and (3) are the worst of their four and two residuals, NaN if one is
    faces = (
        model.zero_product(abs_x, abs_y),
        np.max([model.zero_product(p, q) for p in (xp, xn) for q in (yp, yn)], axis=0),
        np.max([model.rel_diff(abs_sum, abs_x + abs_y), model.rel_diff(abs_dif, abs_x + abs_y)],
               axis=0),
    )
    bounds = {"|a||b|": tol.tol_zero, "jordan_parts": tol.tol_zero, "|a+-b|=|a|+|b|": tol.tol_eq}
    return [OrthReport("prop2_equivalence", list(zip(bounds, r)), bounds)
            ._agreed(*([name] for name in bounds)) for r in zip(*(f.tolist() for f in faces))]


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
    return _sole(_sampled_stack(model, ah[None], bh[None], [seed], trials))


def hereditary_check(a, b, trials: int = 100, seed: int = 0,
                     tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """cd = 0 for sampled 0 <= c <= a, 0 <= d <= b, given ab = 0, on
    either carrier (Lemma 1)."""
    model, x, y = carrier_operands(a, b, tol)
    return _sole(_sampled_stack(model, x[None], y[None], [seed], trials, hereditary=True))


def _sampled_stack(model, a, b, seeds, trials: int, hereditary: bool = False):
    """The sampled checks on each pair (a[i], b[i]) of two stacks of elements
    of the model, at its tolerances, with trial j of pair i drawn from
    rng_for(seeds[i], j): the report of each pair.

    The residual is the deviation from the infinity-norm identity (bound
    tol_eq), and trial 0 is the pair itself, checked for all pairs in one
    stack. A report is abs_infty_orth_sampled's: the exact zero product, the
    worst residual and the first trial whose residual breaks its bound (-1
    for none). With `hereditary`, the residual is Lemma 1's zero product of
    the samples (bound tol_zero), every trial sampled, and a report is
    hereditary_check's, the worst residual alone; a PreconditionFailed comes
    first for the first pair whose ab is not within tol_zero. The model's
    interval_root raises NotPositive for the first a that is not positive,
    else for the first b.
    The samples go in chunks of at most _CHUNK_SAMPLES, pair by pair in
    trial order, a trial drawing the rows of a sample of a, then of b, and
    each operand's samples one interval_samples stack. A pair draws no chunk
    after the one that holds its first violation, and its worst residual
    covers the trials up to it; a NaN residual is a violation and makes the
    worst NaN.
    """
    tol = model.tol
    root_a = model.interval_root(a, "a")
    root_b = model.interval_root(b, "b")
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
    for owners, trial, _, rngs in _trial_walk([(s,) for s in seeds], range(start, trials),
                                              lambda _: a[0].size, live=lambda i: first[i] < 0):
        draws_a, draws_b = _draw_rows(rngs, *[(model.interval_width, model.interval_draw)] * 2)
        samples = (model.interval_samples(root_a, draws_a, owners),
                   model.interval_samples(root_b, draws_b, owners))
        del draws_a, draws_b   # freed before the residuals
        values = residual(*samples)
        # each pair's trials of a chunk are consecutive rows
        edges = [0, *(np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist(), len(owners)]
        for lo, hi in zip(edges, edges[1:]):
            judge(int(owners[lo]), trial[lo], values[lo:hi])
    if hereditary:
        return [OrthReport("hereditary", [("worst_cd", w)], {"worst_cd": bound}) for w in worst]
    return [OrthReport("abs_infty_orth_sampled",
                       [("exact_alg_orth", e), ("sampled_deviation", w),
                        ("first_violation_trial", float(f))], {"sampled_deviation": bound})
            for e, w, f in zip(exact.tolist(), worst, first)]
