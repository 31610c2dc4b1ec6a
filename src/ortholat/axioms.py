"""The absolutely-ordered-vector-space axiom suite and the Theorem 7
checks, run on a carrier model (see carriers): Hermitian n x n matrices
with unit I, or R^n with coordinatewise order and unit (1, ..., 1).

On positives both models decide absolute infinity-orthogonality exactly via
the algebraic test (zero product / disjoint support); grid sampling runs
alongside as a consistency check, never as the decider.
"""
from __future__ import annotations

import numpy as np

from .linalg import rngs_for
from .orthogonality import OrthReport, abs_infty_orth_sampled

__all__ = [
    "check_axioms",
    "check_theorem7",
]


def check_axioms(model, trials: int = 200, seed: int = 0) -> OrthReport:
    """The five axioms of an absolutely ordered vector space, sampled, with
    the model's tolerances.

    Each detail is a violation (0 = good): residuals for the must-hold
    axioms, and a survivor count for the uniqueness half of axiom 4.

    A trial takes each element's |.| once with model.jordan; the Jordan parts
    and their perturbations are positive, so each is its own |.|. A matrix
    trial makes 8 eigh. dominated_sample decomposes vt again, as it needs
    vt's eigenbasis.
    """
    tol = model.tol
    r1 = r2 = r3 = r4 = r5 = 0.0
    survivors = 0
    for rng in rngs_for(seed, np.arange(trials)):
        u = model.sample(rng)
        up, un, au = model.jordan(u)

        # (1) u orth 0
        r1 = max(r1, model.zero_product(au, np.zeros_like(au)))

        # (2) symmetry, on a constructed orthogonal pair
        ut, vt, wt = model.orthogonal_triple(rng)
        aut, avt = model.jordan(ut)[2], model.jordan(vt)[2]
        r2 = max(r2, abs(model.zero_product(aut, avt) - model.zero_product(avt, aut)))

        # (3) u orth v, u orth w  =>  u orth (k v + w)
        k = float(rng.uniform(-4.0, 4.0))
        r3 = max(r3, model.zero_product(aut, model.jordan(k * vt + wt)[2]))

        # (4) existence of the orthogonal decomposition ...
        r4 = max(r4, model.cone_defect(up), model.cone_defect(un),
                 model.vector_norm(up - un - u) / max(1.0, model.vector_norm(u)),
                 model.zero_product(up, un))
        # ... and its uniqueness: the decomposition (up + d, un + d) of u, with
        # d > 0, survives if still orthogonal; a zero d (the positive part of
        # a negative definite sample) is no perturbation, so it cannot survive
        d = model.sample_positive(rng)
        scale = max(model.vector_norm(u), 1.0)
        d = d * (rng.uniform(0.05, 0.5) * scale / max(model.vector_norm(d), 1e-300))
        if np.any(d) and model.zero_product(up + d, un + d) <= tol.tol_zero:
            survivors += 1

        # (5) u orth v and |w| <= |v|  =>  u orth w
        w5 = model.dominated_sample(vt, rng)
        r5 = max(r5, model.zero_product(aut, model.jordan(w5)[2]))

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
                   inner: int = 8) -> OrthReport:
    """Sampled check that the order-unit space with the absolute-value
    decomposition satisfies: (a) the positive parts are absolutely
    infinity-orthogonal (abs_infty_orth_sampled: its exact zero product, and
    the endpoints plus `inner` interval sub-pairs per trial) and (b)
    orthogonality of u to v and w forces orthogonality to |v + w| and
    |v - w|. The axioms of the relation are check_axioms' part. Uses the
    model's tolerances. A trial takes |ut| once and compares it with
    |vt +/- wt|: 7 eigh on the matrix carrier.
    """
    tol = model.tol
    ra_exact = ra_sampled = rb = 0.0
    for rng in rngs_for(seed, np.arange(trials)):
        u = model.sample(rng)
        up, un, _ = model.jordan(u)

        # (1)(a) |up| = up and |un| = un, so the exact half is up un = 0
        parts = abs_infty_orth_sampled(up, un, trials=inner + 1,
                                       seed=int(rng.integers(1 << 62)), tol=tol)
        ra_exact = max(ra_exact, dict(parts.details)["exact_alg_orth"])
        ra_sampled = max(ra_sampled, parts.max_violation)

        # (1)(b) block triple: u orth v, u orth w => u orth |v +/- w|
        ut, vt, wt = model.orthogonal_triple(rng)
        aut = model.jordan(ut)[2]
        rb = max(rb, model.zero_product(aut, model.jordan(vt + wt)[2]),
                 model.zero_product(aut, model.jordan(vt - wt)[2]))

    details = [
        ("parts_exact_orth", ra_exact),
        ("parts_infty_sampled", ra_sampled),
        ("block_triple_abs_orth", rb),
    ]
    worst = max(r for _, r in details)
    holds = ra_exact <= tol.tol_zero and ra_sampled <= tol.tol_eq and rb <= tol.tol_zero
    return OrthReport("theorem7", holds, worst, details)
