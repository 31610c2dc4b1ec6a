"""The absolutely-ordered-vector-space axiom suite and the Theorem 7
checks, run on a carrier model (see carriers): Hermitian n x n matrices
with unit I, or R^n with coordinatewise order and unit (1, ..., 1).

On positives both models decide absolute infinity-orthogonality exactly via
the algebraic test (zero product / disjoint support); grid sampling runs
alongside as a consistency check, never as the decider.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import _draw_rows, _pymax, _uniform_from, _uniforms, _unit_floor, _worst
from .orthogonality import OrthReport, _sampled_stack, _trial_walk

__all__ = [
    "check_axioms",
    "check_theorem7",
]


def _require_block_split(model):
    """DimensionMismatch unless the model's n splits into two blocks, as the
    orthogonal triples of both checks need: n >= 2."""
    if model.n < 2:
        raise DimensionMismatch(f"an orthogonal triple needs n >= 2, got n = {model.n}")


def check_axioms(model, trials: int = 200, seed: int = 0) -> OrthReport:
    """The five axioms of an absolutely ordered vector space, sampled, with
    the model's tolerances.

    Each detail is a violation (0 = good): residuals for the must-hold
    axioms, bounded by tol_zero, and axiom 4's uniqueness survivors, by 0.

    Trial i draws its random numbers from rng_for(seed, i) into its rows of
    the chunk's draws (u, the triple, k, the perturbation's sample and
    fraction, the dominated sample), and the trials of a chunk of
    _trial_walk([(seed,)], ...), at one element of the model a trial, are
    then built and checked in stacks. A residual
    that is NaN fails the check and is its worst. A trial takes each
    element's |.| once with model.jordan; the Jordan parts and their
    perturbations are positive, so each is its own |.|. A matrix trial
    decomposes 7 matrices: u, the triple's block, ut, vt (whose eigenbasis
    also makes the dominated sample), k vt + wt, the perturbation's sample
    and w5. DimensionMismatch for n < 2, before any trial is drawn.
    """
    _require_block_split(model)
    tol = model.tol
    r1 = r2 = r3 = r4 = r5 = 0.0
    survivors = 0
    sample = (model.sample_width, model.sample_draw)
    for *_, rngs in _trial_walk([(seed,)], range(trials), lambda _: model.n ** model.rank):
        u, triples, k, d, fraction, t = _draw_rows(
            rngs, sample, (model.triple_width, model.triple_draw), (1, _uniforms), sample,
            (1, _uniforms), (model.dominated_width, model.dominated_draw))
        u, d = model.samples(u), model.samples(d)
        k, fraction = _uniform_from(-4.0, 4.0, k[:, 0]), _uniform_from(0.05, 0.5, fraction[:, 0])
        ut, vt, wt = model.orthogonal_triples(triples)
        up, un, au = model.jordan(u)
        aut = model.jordan(ut)[2]
        avt, w5 = model.dominated_sample(vt, t)
        spread = (...,) + (None,) * (u.ndim - 1)   # one value per trial

        # the uniqueness perturbation (up + d, un + d) of u, with d > 0 scaled
        # to a fraction of u; a zero d (the positive part of a negative
        # definite sample) is no perturbation, so it cannot survive
        d = model.positive(d)
        scale_u = _unit_floor(model.vector_norm(u))
        d = d * (fraction * scale_u / _pymax(model.vector_norm(d), 1e-300))[spread]
        perturbed = d.reshape(len(d), -1).any(-1) & \
            (model.zero_product(up + d, un + d) <= tol.tol_zero)

        zp = model.zero_product
        # (1) u orth 0
        r1 = _worst(r1, zp(au, np.zeros_like(au)))
        # (2) symmetry, on a constructed orthogonal pair
        r2 = _worst(r2, np.abs(zp(aut, avt) - zp(avt, aut)))
        # (3) u orth v, u orth w  =>  u orth (k v + w)
        r3 = _worst(r3, zp(aut, model.jordan(k[spread] * vt + wt)[2]))
        # (4) existence of the orthogonal decomposition
        r4 = _worst(r4, model.cone_defect(up), model.cone_defect(un),
                    model.vector_norm(up - un - u) / scale_u, zp(up, un))
        # (5) u orth v and |w| <= |v|  =>  u orth w
        r5 = _worst(r5, zp(aut, model.jordan(w5)[2]))
        survivors += int(perturbed.sum())

    details = [
        ("ax1_orth_zero", r1),
        ("ax2_symmetry", r2),
        ("ax3_linear_closure", r3),
        ("ax4_decomposition", r4),
        ("ax4_uniqueness_survivors", float(survivors)),
        ("ax5_hereditary", r5),
    ]
    bounds = {name: tol.tol_zero for name, _ in details}
    return OrthReport("axioms", details, {**bounds, "ax4_uniqueness_survivors": 0.0})


# The interval sub-pairs that Theorem 7's part (a) samples per trial,
# besides the endpoints.
_THEOREM7_INNER = 8


def check_theorem7(model, trials: int = 200, seed: int = 0) -> OrthReport:
    """Sampled check that the order-unit space with the absolute-value
    decomposition satisfies: (a) the positive parts are absolutely
    infinity-orthogonal (the sampled check of abs_infty_orth_sampled on the
    carrier: its exact zero product, and the endpoints plus _THEOREM7_INNER
    interval sub-pairs per trial) and (b) orthogonality of u to v and w
    forces orthogonality to |v + w| and |v - w|. The axioms of the relation
    are check_axioms' part. Uses the model's tolerances.

    The trials are drawn and checked in stacks as in check_axioms, from the
    same keys (trial i from rng_for(seed, i)), and part (a) of a chunk is
    one call of the sampled check. A trial takes |ut| once and compares it
    with |vt +/- wt|: a matrix trial decomposes 7 matrices (u, a square
    root per part, the triple's block, ut and vt +/- wt). DimensionMismatch
    for n < 2, before any trial is drawn.
    """
    _require_block_split(model)
    tol = model.tol
    ra_exact = ra_sampled = rb = 0.0
    for *_, rngs in _trial_walk([(seed,)], range(trials), lambda _: model.n ** model.rank):
        seeds = []   # 62-bit keys, which a row of floats cannot hold
        u, _, triples = _draw_rows(rngs, (model.sample_width, model.sample_draw),
                                   (0, lambda rng, _: seeds.append(int(rng.integers(1 << 62)))),
                                   (model.triple_width, model.triple_draw))
        up, un, _ = model.jordan(model.samples(u))
        ut, vt, wt = model.orthogonal_triples(triples)

        # (1)(a) |up| = up and |un| = un, so the exact half is up un = 0
        parts = [dict(rep.details) for rep in
                 _sampled_stack(model, up, un, seeds, _THEOREM7_INNER + 1)]
        ra_exact = _worst(ra_exact, [p["exact_alg_orth"] for p in parts])
        ra_sampled = _worst(ra_sampled, [p["sampled_deviation"] for p in parts])

        # (1)(b) block triple: u orth v, u orth w => u orth |v +/- w|
        abs_sum_dif = model.jordan(np.concatenate((ut, vt + wt, vt - wt)))[2]
        aut, a_sum, a_dif = np.split(abs_sum_dif, 3)
        rb = _worst(rb, model.zero_product(aut, a_sum), model.zero_product(aut, a_dif))

    details = [
        ("parts_exact_orth", ra_exact),
        ("parts_infty_sampled", ra_sampled),
        ("block_triple_abs_orth", rb),
    ]
    bounds = {"parts_exact_orth": tol.tol_zero, "parts_infty_sampled": tol.tol_eq,
              "block_triple_abs_orth": tol.tol_zero}
    return OrthReport("theorem7", details, bounds)

