"""Order-unit norms and the absolutely-ordered-vector-space axiom suite,
instantiated on two carriers: Hermitian n x n matrices with unit I, and
R^n with coordinatewise order and unit (1, ..., 1).

On positives both models decide absolute infinity-orthogonality exactly via
the algebraic test (zero product / disjoint support); grid sampling runs
alongside as a consistency check, never as the decider.
"""
from __future__ import annotations

import numpy as np

from .errors import NotOrderUnit, PreconditionFailed
from .linalg import (
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    hermitian_norm,
    jordan_decompose,
    psd_defect,
    random_hermitian,
    random_unitary,
    rng_for,
    sqrt_psd,
    zero_product_residual,
)
from .lattice import BoxSampler, sup_norm
from .orthogonality import (
    OrderIntervalSampler,
    OrthReport,
    infty_deviations,
    interval_pairs,
    sample_chunks,
)
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "MatrixSaModel",
    "CoordinateModel",
    "BrokenOrthModel",
    "make_model",
    "order_unit_norm",
    "check_axioms",
    "check_theorem7",
]


class MatrixSaModel:
    """Hermitian matrices with the Loewner order and unit I."""

    carrier = "matrix-sa"

    def __init__(self, n: int, tol: Tolerances = DEFAULT_TOL):
        self.n = n
        self.tol = tol

    def unit(self):
        return np.eye(self.n, dtype=complex)

    def zero(self):
        return np.zeros((self.n, self.n), dtype=complex)

    def sample(self, rng):
        return random_hermitian(self.n, rng)

    def sample_positive(self, rng):
        p, _, _ = jordan_decompose(random_hermitian(self.n, rng), self.tol)
        return p

    def cone_defect(self, x) -> float:
        return psd_defect(x, self.tol)

    def pos_neg(self, x):
        p, m, _ = jordan_decompose(x, self.tol)
        return p, m

    def absolute(self, x):
        _, _, a = jordan_decompose(x, self.tol)
        return a

    def orth_residual(self, x, y) -> float:
        return zero_product_residual(self.absolute(x), self.absolute(y))

    norm = staticmethod(hermitian_norm)

    def vector_norm(self, x) -> float:
        return frob(x)

    def interval_sampler(self, a):
        return OrderIntervalSampler(a, self.tol)

    def dominated_sample(self, v, rng):
        """w with |w| <= |v|: shrink and sign-flip eigenvalues of |v| in place."""
        s = hermitian_eigendecompose(self.absolute(v), self.tol)
        t = rng.uniform(0.0, 1.0, size=self.n) * rng.choice([-1.0, 1.0], size=self.n)
        u = s.eigenvectors
        return hermitian_matrix((u * (t * s.eigenvalues)) @ u.conj().T)

    def orthogonal_triple(self, rng):
        """u positive on one block, v and w arbitrary on the complement,
        conjugated by a random unitary to avoid purely diagonal structure."""
        n1 = int(rng.integers(1, self.n))
        q = random_unitary(self.n, rng)
        gu = random_hermitian(n1, rng)
        up = np.zeros((self.n, self.n), dtype=complex)
        up[:n1, :n1] = jordan_decompose(gu, self.tol)[2]  # |gu| is positive
        v = np.zeros((self.n, self.n), dtype=complex)
        w = np.zeros((self.n, self.n), dtype=complex)
        v[n1:, n1:] = random_hermitian(self.n - n1, rng)
        w[n1:, n1:] = random_hermitian(self.n - n1, rng)
        conj = lambda x: hermitian_matrix(q @ x @ q.conj().T)
        return conj(up), conj(v), conj(w)

    def to_json(self):
        return {"carrier": self.carrier, "n": self.n}


class CoordinateModel:
    """R^n with coordinatewise order, sup norm, and unit (1, ..., 1)."""

    carrier = "coordinate"

    def __init__(self, n: int, tol: Tolerances = DEFAULT_TOL):
        self.n = n
        self.tol = tol

    def unit(self):
        return np.ones(self.n)

    def zero(self):
        return np.zeros(self.n)

    def sample(self, rng):
        return rng.standard_normal(self.n)

    def sample_positive(self, rng):
        return np.abs(rng.standard_normal(self.n))

    def cone_defect(self, x) -> float:
        lo = float(np.min(x, initial=0.0))
        return max(0.0, -lo) / max(1.0, float(np.max(np.abs(x), initial=0.0)))

    def pos_neg(self, x):
        return np.maximum(x, 0.0), np.maximum(-x, 0.0)

    def absolute(self, x):
        return np.abs(x)

    def orth_residual(self, x, y) -> float:
        overlap = float(np.max(np.minimum(np.abs(x), np.abs(y)), initial=0.0))
        return overlap / max(1.0, float(np.max(np.abs(x), initial=0.0))
                             * float(np.max(np.abs(y), initial=0.0)))

    norm = staticmethod(sup_norm)

    def vector_norm(self, x) -> float:
        return self.norm(x)

    def interval_sampler(self, a):
        return BoxSampler(a)

    def dominated_sample(self, v, rng):
        t = rng.uniform(0.0, 1.0, size=self.n) * rng.choice([-1.0, 1.0], size=self.n)
        return t * np.abs(v)

    def orthogonal_triple(self, rng):
        n1 = int(rng.integers(1, self.n))
        u = np.zeros(self.n)
        u[:n1] = np.abs(rng.standard_normal(n1))
        v = np.zeros(self.n)
        w = np.zeros(self.n)
        v[n1:] = rng.standard_normal(self.n - n1)
        w[n1:] = rng.standard_normal(self.n - n1)
        perm = rng.permutation(self.n)
        return u[perm], v[perm], w[perm]

    def to_json(self):
        return {"carrier": self.carrier, "n": self.n}


class BrokenOrthModel(CoordinateModel):
    """Negative control: the orthogonality relation is always true, which
    destroys uniqueness of positive decompositions (axiom 4)."""

    carrier = "broken"

    def orth_residual(self, x, y) -> float:
        return 0.0


def make_model(carrier: str, n: int, tol: Tolerances = DEFAULT_TOL):
    if carrier == "matrix-sa":
        return MatrixSaModel(n, tol)
    if carrier == "coordinate":
        return CoordinateModel(n, tol)
    if carrier == "broken":
        return BrokenOrthModel(n, tol)
    raise ValueError(f"unknown carrier {carrier!r}")


def order_unit_norm(v, model, e=None, tol: Tolerances | None = None) -> float:
    """inf{k > 0 : k e +/- v in the cone}, with certification.

    For the default unit this is the spectral max (matrix carrier) or the
    sup norm (coordinate carrier); a general positive-definite e is handled
    by rescaling. Certifies cone membership at k(1 + tol_eq) and failure at
    k(1 - 10 tol_eq).
    """
    tol = tol or model.tol
    if e is None:
        e = model.unit()
    if model.carrier == "matrix-sa":
        eh = hermitian_matrix(e)
        s = hermitian_eigendecompose(eh, tol)
        if s.eigenvalues[0] <= tol.tol_psd:
            raise NotOrderUnit("order unit must be positive definite")
        root_inv = (s.eigenvectors * (1.0 / np.sqrt(s.eigenvalues))) @ \
            s.eigenvectors.conj().T
        x = hermitian_matrix(root_inv @ hermitian_matrix(v) @ root_inv)
        result = model.norm(x)
        probe = lambda k: max(model.cone_defect(k * eh + hermitian_matrix(v)),
                              model.cone_defect(k * eh - hermitian_matrix(v)))
    else:
        ev = np.asarray(e, dtype=float)
        if np.min(ev, initial=np.inf) <= tol.tol_psd:
            raise NotOrderUnit("order unit must be strictly positive")
        vv = np.asarray(v, dtype=float)
        result = float(np.max(np.abs(vv) / ev, initial=0.0))
        probe = lambda k: max(model.cone_defect(k * ev + vv),
                              model.cone_defect(k * ev - vv))
    # certification: membership just above, failure just below
    if probe(result * (1.0 + tol.tol_eq) if result > 0 else 0.0) > tol.tol_psd:
        raise NotOrderUnit(f"certification failed at k = {result:.6g}")
    if result > 0 and probe(result * (1.0 - 10.0 * tol.tol_eq)) <= 0.0:
        raise NotOrderUnit(f"k = {result:.6g} is not the infimum")
    return float(result)


def _falsify_decomposition(model, u, up, un, rng, tol) -> bool:
    """True if a perturbed decomposition (up + d, un + d) of u, with d > 0 in
    the cone, still passes the model's orthogonality test: uniqueness fails."""
    d = model.sample_positive(rng)
    scale = max(model.vector_norm(u), 1.0)
    d = d * (rng.uniform(0.05, 0.5) * scale / max(model.vector_norm(d), 1e-300))
    # a zero draw (the positive part of a negative definite sample) is no
    # perturbation, so it cannot survive
    return bool(np.any(d)) and model.orth_residual(up + d, un + d) <= tol.tol_zero


def check_axioms(model, trials: int = 200, seed: int = 0,
                 tol: Tolerances | None = None) -> OrthReport:
    """The five axioms of an absolutely ordered vector space, sampled.

    Each detail is a violation (0 = good): residuals for the must-hold
    axioms, and a survivor count for the uniqueness half of axiom 4.
    """
    tol = tol or model.tol
    r1 = r2 = r3 = r4 = r5 = 0.0
    survivors = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        u = model.sample(rng)

        # (1) u orth 0
        r1 = max(r1, model.orth_residual(u, model.zero()))

        # (2) symmetry, on a constructed orthogonal pair
        ut, vt, wt = model.orthogonal_triple(rng)
        r2 = max(r2, abs(model.orth_residual(ut, vt) - model.orth_residual(vt, ut)))

        # (3) u orth v, u orth w  =>  u orth (k v + w)
        k = float(rng.uniform(-4.0, 4.0))
        r3 = max(r3, model.orth_residual(ut, k * vt + wt))

        # (4) existence of the orthogonal decomposition ...
        up, un = model.pos_neg(u)
        r4 = max(r4, model.cone_defect(up), model.cone_defect(un),
                 model.vector_norm(up - un - u) / max(1.0, model.vector_norm(u)),
                 model.orth_residual(up, un))
        # ... and its uniqueness, by perturbation falsification
        if _falsify_decomposition(model, u, up, un, rng, tol):
            survivors += 1

        # (5) u orth v and |w| <= |v|  =>  u orth w
        w5 = model.dominated_sample(vt, rng)
        r5 = max(r5, model.orth_residual(ut, w5))

    details = [
        ("ax1_orth_zero", r1),
        ("ax2_symmetry", r2),
        ("ax3_linear_closure", r3),
        ("ax4_decomposition", r4),
        ("ax4_uniqueness_survivors", float(survivors)),
        ("ax5_hereditary", r5),
    ]
    holds = max(r1, r2, r3, r4, r5) <= tol.tol_zero and survivors == 0
    return OrthReport("axioms", holds, max(max(r1, r2, r3, r4, r5), float(survivors)),
                      details)


def check_theorem7(model, trials: int = 200, seed: int = 0,
                   tol: Tolerances | None = None, inner: int = 8) -> OrthReport:
    """Sampled check that the order-unit space with the absolute-value
    decomposition satisfies: (a) the positive parts are absolutely
    infinity-orthogonal (exact test plus grid sampling), (b) orthogonality
    of u to v and w forces orthogonality to |v + w| and |v - w|, and the
    full axiom suite for the derived relation.
    """
    tol = tol or model.tol
    ra_exact = ra_sampled = rb = 0.0
    # `inner` = interval/grid samples per decomposition
    for i in range(trials):
        rng = rng_for(seed, i)
        u = model.sample(rng)
        up, un = model.pos_neg(u)

        # (1)(a) exact orthogonality of the parts
        ra_exact = max(ra_exact, model.orth_residual(up, un))
        # plus sampled infinity-orthogonality on interval sub-pairs, all
        # drawn from this trial's generator
        sampler_p, sampler_n = model.interval_sampler(up), model.interval_sampler(un)
        for chunk in sample_chunks(0, inner, up.size):
            cs, ds = interval_pairs(sampler_p, sampler_n, [rng] * len(chunk))
            _, dev = infty_deviations(cs, ds, model.norm)
            ra_sampled = max(ra_sampled, float(dev.max()))

        # (1)(b) block triple: u orth v, u orth w => u orth |v +/- w|
        ut, vt, wt = model.orthogonal_triple(rng)
        rb = max(rb, model.orth_residual(ut, model.absolute(vt + wt)),
                 model.orth_residual(ut, model.absolute(vt - wt)))

    derived = check_axioms(model, trials, seed + 1, tol)

    details = [
        ("parts_exact_orth", ra_exact),
        ("parts_infty_sampled", ra_sampled),
        ("block_triple_abs_orth", rb),
        ("derived_relation_axioms", derived.max_violation),
    ]
    worst = max(r for _, r in details)
    holds = ra_exact <= tol.tol_zero and ra_sampled <= tol.tol_eq and \
        rb <= tol.tol_zero and derived.holds
    return OrthReport("theorem7", holds, worst, details)
