"""Ortho-infimum and ortho-supremum and Theorem 4's check of their defining
properties and uniqueness, written once over the carrier models: on
Hermitian matrices this is Theorem 4, on R^n (the commuting case) it is
Corollary 5, where the ortho-infimum and ortho-supremum are the lattice
meet and join. Also a closed-form common lower bound of two Hermitian
matrices that beats the ortho-infimum (the anti-lattice phenomenon).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .carriers import MatrixSaModel, carrier_operands
from .errors import ComparablePair, PreconditionFailed
from .linalg import (_draw_rows, _eigenvalues, _pymax, _uniform_from, _uniforms, _unit_floor,
                     frob, hermitian_matrix, matrix_to_json)
from .orthogonality import OrthReport, _sole, _trial_walk
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "ortho_inf_sup",
    "verify_theorem4",
    "WitnessResult",
    "kadison_witness_search",
]


class _Pair:
    """A pair (a, b) of elements of a carrier model, or each pair of two
    stacks, with x = a - b and its spectrum; the Jordan parts (pos, neg, abs)
    of x, the ortho-infimum c and ortho-supremum d are formed when read."""

    def __init__(self, model, a, b):
        self.model, self.a, self.b, self.x = model, a, b, a - b
        self.spectrum = model.spectrum(self.x)

    parts = cached_property(lambda self: self.spectrum.jordan_parts())
    c = cached_property(lambda self: (self.a + self.b - self.parts[2]) / 2.0)
    d = cached_property(lambda self: (self.a + self.b + self.parts[2]) / 2.0)


def ortho_inf_sup(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(inf, sup) = ((a + b - |a - b|) / 2, (a + b + |a - b|) / 2), the
    ortho-infimum and ortho-supremum, from one absolute value of a - b;
    `ortholat ortho` reads them off its verify_theorem4 check's."""
    pair = _Pair(*carrier_operands(a, b))
    return pair.c, pair.d


def verify_theorem4(a, b, trials: int = 10, seed: int = 0,
                    tol: Tolerances = DEFAULT_TOL) -> OrthReport:
    """Theorem 4 for (a, b): c = (a + b - |a - b|)/2 is the unique element
    with c <= a, c <= b and (a-c) orth (b-c), checked on one decomposition
    of a - b.

    Existence is the three conditions plus spectral_residual, the relative
    distance of (a-b)^+ - (a-b)^- from a - b, bounded by tol_psd, tol_psd,
    tol_zero and tol_eq; the worst ratio is over these four. With x = a - b,
    a - c - x^+ = (x - (x^+ - x^-))/2 = x^- - (b - c),
    so both parts of c rest on that one residual. The ortho-supremum d needs
    no check of its own: d = c + |a - b|, so d - a = b - c and d - b = a - c
    are the inf-side matrices again. (The negation duality is left to the
    tests: it would need a second decomposition of a - b.)

    Uniqueness: each of `trials` perturbations c_i of c (the carrier's
    sample from rng_for(seed, i), scaled to a random fraction of the gap
    ||a - b|| in the carrier's vector norm; none when a = b) must break a
    condition, that is have a residual-to-tolerance ratio above 1. They are
    settled cheapest first: a certificate that the zero product exceeds
    tol_zero (two mat-vecs on matrices), the zero product (one matmul), then
    c_i <= a and c_i <= b (one eigvalsh each). uniqueness_survivors counts
    those that break none (bound 0). PreconditionFailed names the first
    perturbation that is not finite or has a NaN ratio and none above 1.
    """
    return _checked_inf_sup(a, b, trials, seed, tol)[2]


def _checked_inf_sup(a, b, trials: int = 10, seed: int = 0, tol: Tolerances = DEFAULT_TOL):
    """ortho_inf_sup(a, b) and verify_theorem4's report, of one decomposition."""
    model, ah, bh = carrier_operands(a, b, tol)
    pair = _Pair(model, ah[None], bh[None])
    inf, sup = pair.c[0], pair.d[0]   # before the check drops the Jordan parts
    return inf, sup, _sole(_theorem4_stack(pair, [seed], trials))


_EXISTENCE = ("c_le_a", "c_le_b", "inf_residuals_orth", "spectral_residual")
_RATIOS = ("zero-product", "a - c_i", "b - c_i")


def _theorem4_stack(pair: _Pair, seeds, trials: int) -> list:
    """verify_theorem4 on each pair (a[i], b[i]) of a stacked _Pair, at its
    model's tolerances, with perturbation j of pair i drawn from
    rng_for(seeds[i], j): the report of each pair. As _sampled_stack does,
    it raises the first error it meets (pairs in order, each pair's
    perturbations in order). Once the _Pair drops x, its spectrum and its
    parts, each chunk of _trial_walk draws a row per perturbation (normals,
    fraction), which the model builds into one stack of c + delta (not
    validated again), settled cheapest first and folded in row order."""
    model, a, b, x = pair.model, pair.a, pair.b, pair.x
    tol = model.tol
    bounds = dict(zip((*_EXISTENCE, "uniqueness_survivors"),
                      (tol.tol_psd, tol.tol_psd, tol.tol_zero, tol.tol_eq, 0.0)))
    xp, xn, _ = pair.parts
    del pair.spectrum   # the eigenvectors are not needed once the parts are formed
    c = pair.c
    ra, rb = a - c, b - c
    existence = zip(*(r.tolist() for r in (
        model.cone_defect(ra), model.cone_defect(rb), model.zero_product(ra, rb),
        model.rel_diff(xp - xn, x))))

    gap = model.vector_norm(x)
    del pair.x, pair.parts, x, xp, xn, ra, rb   # held no longer than the existence half
    survivors = [0] * len(a)
    live = lambda i: gap[i] > tol.tol_eq   # a = b draws nothing: its perturbation window is empty
    spread = (...,) + (None,) * (c.ndim - 1)   # one value per perturbation
    for owner, trial, _, rngs in _trial_walk([(s,) for s in seeds], range(trials),
                                             lambda _: c[0].size, live=live):
        normals, fractions = _draw_rows(rngs, (model.sample_width, model.sample_draw),
                                        (1, _uniforms))
        scale = _uniform_from(1e-4, 1.0, fractions[:, 0]) * gap[owner]
        draw = model.samples(normals)
        del normals, fractions   # the chunk's draws, freed once built
        draw *= (scale / _pymax(model.vector_norm(draw), 1e-300))[spread]
        np.add(c[owner], draw, out=draw)   # c + delta, a sum of elements: not validated
        finite = np.isfinite(draw).all(axis=tuple(range(1, draw.ndim)))
        left = finite.copy()   # checked: the finite rows
        ra = a[owner] - draw
        rb = np.subtract(b[owner], draw, out=draw)   # in the memory of c_i
        rows = ... if left.all() else left   # the certificate settles most rows cheaply
        left[rows] &= ~model.zero_product_exceeds(ra[rows], rb[rows], tol.tol_zero)
        ratios = np.full((len(_RATIOS), len(owner)), np.nan)
        residuals = (lambda m: model.zero_product(ra[m], rb[m]) / bounds["inf_residuals_orth"],
                     lambda m: model.cone_defect(ra[m]) / bounds["c_le_a"],
                     lambda m: model.cone_defect(rb[m]) / bounds["c_le_b"])
        for ratio, residual in zip(ratios, residuals):
            if not left.any():
                break
            rows = ... if left.all() else left   # none settled yet: read views, not copies
            ratio[rows] = residual(rows)
            left &= ~(ratio > 1.0)
        del ra, rb, draw   # freed before the next chunk is drawn
        # a row not finite, or left (it broke no condition) with a NaN ratio, raises
        for row in np.flatnonzero(left | ~finite).tolist():
            if not finite[row]:
                raise PreconditionFailed(f"perturbation {trial[row]} is not finite")
            if not (ratios[:, row] <= 1.0).all():
                name = _RATIOS[int(np.argmin(ratios[:, row] <= 1.0))]
                raise PreconditionFailed(f"perturbation {trial[row]}: the {name} residual is NaN")
            survivors[int(owner[row])] += 1

    return [OrthReport("theorem4", list(zip(bounds, (*residuals, float(count)))), bounds)
            for residuals, count in zip(existence, survivors)]


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
    pair = _Pair(MatrixSaModel(len(sh), tol), sh, th)
    w, u = pair.spectrum.eigenvalues, pair.spectrum.eigenvectors
    # 0 for an empty spectrum, which is comparable
    lam = min(w.max(initial=0.0), -w.min(initial=0.0))
    if lam <= tol.tol_psd * _unit_floor(np.abs(w).max(initial=0.0)):
        raise ComparablePair("S and T are comparable; their minimum is the infimum")
    c = pair.c
    x = (u[:, -1] + u[:, 0]) / np.sqrt(2.0)
    m = hermitian_matrix(c + (4.0 / 3.0 * lam) * np.outer(x, x.conj())
                         - lam * np.eye(len(w)))
    checks = {
        "le_S": float(_eigenvalues(m - sh)[-1]),
        "le_T": float(_eigenvalues(m - th)[-1]),
        "not_le_c": float(_eigenvalues(c - m)[0]),
    }
    margin = -checks["not_le_c"]
    # norms taken at unit scale, so that they cannot overflow
    scale = max(np.abs(sh).max(), np.abs(th).max())
    slack = tol.tol_psd * scale * max(frob(sh / scale), frob(th / scale))
    found = checks["le_S"] <= slack and checks["le_T"] <= slack and margin > slack
    return WitnessResult(found, m, margin, checks)
