"""Named verification suites behind `ortholat verify`: each runs one of the
library's propositions over seeded random instances and reports pass/fail
with worst residuals.
"""
from __future__ import annotations

import numpy as np

from .axioms import check_axioms, check_theorem7
from .carriers import BrokenOrthModel, CoordinateModel, MatrixSaModel
from .errors import InternalInconsistency
from .linalg import (
    _KEY_BLOCK,
    _rebuild,
    complex_matrix,
    hermitian_matrix,
    jordan_decompose,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
    rngs_for,
    zero_product_residual,
)
from .orthogonality import (
    _alg_orth_general_stack,
    _prop2_stack,
    _sample_entries,
    _sampled_stack,
    sample_chunks,
)
from .ortholattice import _Pair, _theorem4_stack, ortho_inf_sup
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = ["SUITES", "run_suite", "run_suites"]


def _dim_for(rng, dim: int) -> int:
    return int(rng.integers(2, max(dim, 2) + 1))


def _orthogonal_sa_pair(n, rng):
    """Hermitian pair with |a||b| = 0 by a common-eigenbasis block split."""
    u = random_unitary(n, rng)
    split = int(rng.integers(1, n))
    da, db = np.zeros((2, n))
    da[:split] = rng.standard_normal(split)
    db[split:] = rng.standard_normal(n - split)
    return _rebuild(u, da), _rebuild(u, db)


def _orthogonal_general_pair(n, rng):
    """Complex pair with ab* = 0 = a*b via disjoint singular supports."""
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    split = int(rng.integers(1, n))
    da = np.zeros(n)
    db = np.zeros(n)
    da[:split] = rng.standard_normal(split)
    db[split:] = rng.standard_normal(n - split)
    a = (u * da) @ v.conj().T
    b = (u * db) @ v.conj().T
    return a, b


def _orthogonal_psd_pair(n, rng):
    a, b = _orthogonal_sa_pair(n, rng)
    return jordan_decompose(a)[2], jordan_decompose(b)[2]


def suite_lemma1(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Hereditarity of algebraic orthogonality on order intervals:
    hereditary_check with seed seed + i on the pair of each trial i, the
    pairs of equal n in stacks, a pair counted as a sample of the check."""
    pairs = max(1, trials // 10)
    samples = min(trials, 100)

    def check(chunk, a, b):
        return _sampled_stack(hermitian_matrix(a), hermitian_matrix(b),
                              [seed + i for i in chunk], samples, tol, hereditary=True)[1]

    worst = 0.0
    for w in _checked_in_stacks(pairs, seed, 1, lambda rng: _dim_for(rng, dim),
                                lambda i, n, rng: _orthogonal_psd_pair(n, rng), check,
                                lambda n: _sample_entries(n * n)):
        worst = max(worst, w)
    return {"suite": "lemma1", "pass": worst <= tol.tol_zero,
            "trials": pairs * samples, "max_violation": worst}


def _checked_in_stacks(trials, seed, stream, dims, draw, check, entries) -> list:
    """The outcome of each trial i, in trial order. Its pair is draw(i, n,
    rng), where rng = rng_for(seed, stream, i) and n = dims(rng) is read from
    it first. The pairs of equal n are checked together: check(chunk, a, b)
    gets the trials of a chunk in order and the stacks of their first and
    second elements (and of any further ones that draw gives, as further
    arguments), and returns one outcome per pair. A chunk holds at most
    _CHUNK_ENTRIES of the entries that its check stacks, entries(n) per
    pair, as sample_chunks allows. The trials go in blocks of _KEY_BLOCK,
    whose keys one rngs_for hashes. A trial's generator is made to read n
    and made again from the same seed words to draw the pair, so none is
    kept: 500 kept generators raised the peak memory of a theorem4 run at
    --dim 64 by 0.4 MB."""
    outcomes = [None] * trials
    for start in range(0, trials, _KEY_BLOCK):
        block = np.arange(start, min(trials, start + _KEY_BLOCK))
        rngs = rngs_for(seed, stream, block)
        groups = {}
        for i, rng in zip(block.tolist(), rngs):
            groups.setdefault(dims(rng), []).append(i)

        def pair(i, n):
            rng = rngs[i - start]
            dims(rng)   # the n read above; the pair comes after it
            return draw(i, n, rng)

        for n, members in groups.items():
            for part in sample_chunks(0, len(members), entries(n)):
                chunk = [members[j] for j in part]
                stacks = [np.stack(part) for part in zip(*(pair(i, n) for i in chunk))]
                for i, outcome in zip(chunk, check(chunk, *stacks)):
                    outcomes[i] = outcome
    return outcomes


def _routes_suite(name, stream, pairs, check, stacked, dim, trials, seed):
    """check(a, b) on stacks of equal-n pairs from pairs[0] and pairs[1] in
    turn, `stacked` times n * n entries a pair: a returned
    InternalInconsistency is a disagreement of the routes, and only pairs
    the check calls orthogonal carry a residual."""
    worst = 0.0
    disagreements = 0
    for rep in _checked_in_stacks(trials, seed, stream, lambda rng: _dim_for(rng, dim),
                                  lambda i, n, rng: pairs[i % 2](n, rng),
                                  lambda chunk, a, b: check(a, b),
                                  lambda n: stacked * n * n):
        if isinstance(rep, InternalInconsistency):
            disagreements += 1
        elif rep.holds:
            worst = max(worst, rep.max_violation)
    return {"suite": name, "pass": disagreements == 0, "trials": trials,
            "max_violation": worst, "disagreements": disagreements}


def _theorem4_suite(name, carrier, stream, dims, trials, seed, tol):
    """verify_theorem4 with seed seed + i on the pair of each trial i: two
    samples of carrier(n) from rng_for(seed, stream, i), after dims reads n
    from it. The pairs of equal n are checked in stacks."""
    def draw(i, n, rng):
        model = carrier(n, tol)
        return model.sample(rng), model.sample(rng)

    def check(chunk, a, b):
        model = carrier(a.shape[-1], tol)
        return _theorem4_stack(_Pair(model, model.element(a), model.element(b)),
                               [seed + i for i in chunk], 10)

    worst = 0.0
    failures = 0
    for rep in _checked_in_stacks(trials, seed, stream, dims, draw, check,
                                  lambda n: n ** carrier.rank):
        if isinstance(rep, Exception):
            raise rep
        worst = max(worst, rep.max_violation)
        if not rep.holds:
            failures += 1
    return {"suite": name, "pass": failures == 0, "trials": trials,
            "max_violation": worst, "failures": failures}


def suite_prop2(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Three-way equivalence of self-adjoint orthogonality."""
    pairs = (_orthogonal_sa_pair,
             lambda n, rng: (random_hermitian(n, rng), random_hermitian(n, rng)))

    def check(a, b):
        model = MatrixSaModel(a.shape[-1], tol)
        return _prop2_stack(model, model.element(a), model.element(b))
    # the Jordan parts of x, y, x + y and x - y: three each
    return _routes_suite("prop2", 2, pairs, check, 12, dim, trials, seed)


def suite_prop3(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Agreement of the four routes to general algebraic orthogonality."""
    pairs = (_orthogonal_general_pair,
             lambda n, rng: (random_complex(n, rng), random_complex(n, rng)))
    return _routes_suite(
        "prop3", 3, pairs,
        lambda a, b: _alg_orth_general_stack(complex_matrix(a), complex_matrix(b), tol),
        24, dim, trials, seed)   # |x| of a, b, a*, b*; 2n x 2n embeddings, and their parts


def suite_theorem4(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Defining properties and uniqueness of ortho-inf/sup."""
    return _theorem4_suite("theorem4", MatrixSaModel, 4, lambda rng: _dim_for(rng, dim),
                           trials, seed, tol)


def suite_corollary5(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Theorem 4 on R^n: meet/join as unique disjoint-residual bounds."""
    n = max(2, min(16, 2 * dim))
    return _theorem4_suite("corollary5", CoordinateModel, 5, lambda rng: n, trials, seed, tol)


def suite_prop6(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Prop 6's overlapping direction: for u, v >= 0 with common support,
    w = u inf v, in [0, u] and [0, v], is non-zero and breaks the identity
    for (w, w) at k = 1. The disjoint direction holds bit for bit in this
    arithmetic (each entry of u + k v is u_i or k v_i), so it is checked
    where rounding can break it: on the matrix carrier by the infty suite.
    Each chunk of trials takes its w from one ortho-infimum and its
    verdicts from one sampled check of the endpoints (w, w)."""
    n = max(2, min(16, 2 * dim))
    model = CoordinateModel(n, tol)
    failures = 0
    rngs = rngs_for(seed, 6, np.arange(trials))
    for chunk in sample_chunks(0, trials, _sample_entries(n)):
        uv = np.abs([(rng.standard_normal(n), rng.standard_normal(n))
                     for rng in (rngs[i] for i in chunk)])
        w = _Pair(model, uv[:, 0], uv[:, 1]).c
        worst = _sampled_stack(w, w, [0] * len(w), 1, tol)[1]
        failures += sum(r <= tol.tol_eq for r in worst)
    return {"suite": "prop6", "pass": failures == 0, "trials": trials,
            "failures": failures}


def suite_theorem7(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Order-unit decomposition and block-triple suite on both carriers."""
    per = max(1, trials // 10)
    reports = {}
    for model in (MatrixSaModel(max(2, min(dim, 4)), tol),
                  CoordinateModel(max(2, 2 * dim), tol)):
        reports[model.carrier] = check_theorem7(model, trials=per, seed=seed)
    worst = max(r.max_violation for r in reports.values())
    ok = all(r.holds for r in reports.values())
    return {"suite": "theorem7", "pass": ok, "trials": 2 * per,
            "max_violation": worst,
            "carriers": {k: v.to_json() for k, v in reports.items()}}


def suite_axioms(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Five-axiom suite on both carriers plus the broken negative control."""
    per = max(1, trials // 2)
    reports = {}
    for model in (MatrixSaModel(max(2, min(dim, 4)), tol),
                  CoordinateModel(max(2, 2 * dim), tol)):
        reports[model.carrier] = check_axioms(model, trials=per, seed=seed)
    broken = check_axioms(BrokenOrthModel(max(2, dim), tol), trials=min(per, 50), seed=seed)
    ok = all(r.holds for r in reports.values()) and not broken.holds
    worst = max(r.max_violation for r in reports.values())
    return {"suite": "axioms", "pass": ok, "trials": 2 * per,
            "max_violation": worst,
            "carriers": {k: v.to_json() for k, v in reports.items()},
            "negative_control_failed_as_expected": not broken.holds}


def suite_bridge(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """The matrix carrier's ortho-inf/sup of diagonal matrices is diagonal
    and matches the coordinate carrier's on their diagonals."""
    worst = 0.0
    for rng in rngs_for(seed, 8, np.arange(trials)):
        n = _dim_for(rng, dim)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        c, d = ortho_inf_sup(np.diag(x).astype(complex), np.diag(y).astype(complex))
        cx, dx = ortho_inf_sup(x, y)
        worst = max(worst, float(np.max(np.abs(np.diag(c).real - cx))),
                    float(np.max(np.abs(np.diag(d).real - dx))),
                    float(np.max(np.abs(c - np.diag(np.diag(c))))))
    return {"suite": "bridge", "pass": worst <= tol.tol_eq, "trials": trials,
            "max_violation": worst}


def suite_infty_consistency(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Algebraic orthogonality implies (and its failure falsifies) the
    sampled absolute infinity-orthogonality test: abs_infty_orth_sampled
    with seed seed + i on the orthogonal pair of each trial i, and on its
    overlapping pair if the zero product is above 0.1. The pairs of equal n
    are checked in stacks, a pair counted as a sample of the sampled check."""
    pairs = max(1, trials // 10)
    samples = 40

    def draw(i, n, rng):
        return (*_orthogonal_psd_pair(n, rng), random_psd(n, rng), random_psd(n, rng))

    def check(chunk, a, b, c, d):
        seeds = [seed + i for i in chunk]
        worst = _sampled_stack(hermitian_matrix(a), hermitian_matrix(b), seeds, samples,
                               tol)[1]
        missed = [False] * len(chunk)
        overlapping = np.flatnonzero(zero_product_residual(c, d) > 0.1).tolist()
        if overlapping:
            # only the verdict is read, and any violation decides it
            held = _sampled_stack(hermitian_matrix(c[overlapping]),
                                  hermitian_matrix(d[overlapping]),
                                  [seeds[k] for k in overlapping], samples, tol,
                                  stop_on_violation=True)[1]
            for k, r in zip(overlapping, held):
                missed[k] = r <= tol.tol_eq
        return zip(worst, missed)

    worst = 0.0
    missed = 0
    for w, m in _checked_in_stacks(pairs, seed, 9, lambda rng: _dim_for(rng, dim), draw,
                                   check, lambda n: _sample_entries(n * n)):
        worst = max(worst, w)
        missed += m
    return {"suite": "infty", "pass": worst <= tol.tol_eq and missed == 0,
            "trials": pairs * samples, "max_violation": worst, "missed": missed}


SUITES = {
    "lemma1": suite_lemma1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "theorem4": suite_theorem4,
    "corollary5": suite_corollary5,
    "prop6": suite_prop6,
    "theorem7": suite_theorem7,
    "axioms": suite_axioms,
    "bridge": suite_bridge,
    "infty": suite_infty_consistency,
}


def run_suite(name, dim, trials, seed, tol: Tolerances = DEFAULT_TOL) -> dict:
    result = SUITES[name](dim, trials, seed, tol)
    result["seed"] = int(seed)
    return result


def run_suites(names, dim, trials, seed, tol: Tolerances = DEFAULT_TOL) -> list[dict]:
    return [run_suite(name, dim, trials, seed, tol) for name in names]
