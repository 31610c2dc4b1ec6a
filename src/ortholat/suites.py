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
    _rebuild,
    _worst,
    complex_matrix,
    hermitian_eigendecompose,
    hermitian_matrix,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
    zero_product_residual,
)
from .orthogonality import (
    _alg_orth_general_stack,
    _prop2_stack,
    _sampled_stack,
    _trial_walk,
    infty_deviations,
)
from .ortholattice import _Pair, _theorem4_stack
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
    return (hermitian_eigendecompose(a).jordan_parts()[2],
            hermitian_eigendecompose(b).jordan_parts()[2])


def suite_lemma1(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Hereditarity of algebraic orthogonality on order intervals:
    hereditary_check with seed seed + i on the pair of each trial i, the
    pairs of equal n in stacks, a pair counted as a sample of the check."""
    pairs = max(1, trials // 10)
    samples = min(trials, 100)

    def check(chunk, a, b):
        return _sampled_stack(MatrixSaModel(a.shape[-1], tol), hermitian_matrix(a),
                              hermitian_matrix(b), [seed + i for i in chunk], samples,
                              hereditary=True)[1]

    worst = _worst(_checked_in_stacks(pairs, seed, 1, lambda rng: _dim_for(rng, dim),
                                      lambda i, n, rng: _orthogonal_psd_pair(n, rng), check,
                                      lambda n: n * n))
    return {"suite": "lemma1", "pass": worst <= tol.tol_zero,
            "trials": pairs * samples, "max_violation": worst}


def _checked_in_stacks(trials, seed, stream, dims, draw, check, entries) -> list:
    """The outcome of each trial i, in trial order. Its pair is draw(i, n,
    rng), where rng is its generator of _trial_walk((seed, stream), trials,
    entries, dims), once n = dims(rng) is read from it. The pairs of a chunk
    are checked together: check(chunk, a, b) gets the chunk's trials and the
    stacks of their first and second elements (and of any further ones that
    draw gives, as further arguments), and returns one outcome per pair."""
    outcomes = [None] * trials
    for chunk, _, rngs in _trial_walk((seed, stream), trials, entries, dims):
        stacks = map(np.stack, zip(*(draw(i, dims(rng), rng) for i, rng in zip(chunk, rngs))))
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

    reports = _checked_in_stacks(trials, seed, stream, dims, draw, check,
                                 lambda n: n ** carrier.rank)
    for rep in reports:
        if isinstance(rep, Exception):
            raise rep
    worst = _worst([rep.max_violation for rep in reports])
    failures = sum(not rep.holds for rep in reports)
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
    Each chunk of _trial_walk((seed, 6), ...) takes its w from one
    ortho-infimum and its verdicts from one evaluation of the identity at
    (w, w); a pair fails unless its deviation exceeds tol_eq, so a NaN
    deviation fails."""
    n = max(2, min(16, 2 * dim))
    model = CoordinateModel(n, tol)
    failures = 0
    for _, _, rngs in _trial_walk((seed, 6), trials, lambda _: n):
        uv = np.abs([(rng.standard_normal(n), rng.standard_normal(n)) for rng in rngs])
        w = _Pair(model, uv[:, 0], uv[:, 1]).c
        broken = infty_deviations(w, w, model.norm).max(-1) > tol.tol_eq
        failures += int(np.count_nonzero(~broken))
    return {"suite": "prop6", "pass": failures == 0, "trials": trials,
            "failures": failures}


def _carriers_suite(name, check, per, dim, seed, tol):
    """check(model, trials=per, seed=seed) on the matrix carrier at n = dim
    (2 to 4) and on the coordinate carrier at n = 2 dim (at least 2)."""
    reports = {model.carrier: check(model, trials=per, seed=seed)
               for model in (MatrixSaModel(max(2, min(dim, 4)), tol),
                             CoordinateModel(max(2, 2 * dim), tol))}
    return {"suite": name, "pass": all(r.holds for r in reports.values()), "trials": 2 * per,
            "max_violation": _worst([r.max_violation for r in reports.values()]),
            "carriers": {k: v.to_json() for k, v in reports.items()}}


def suite_theorem7(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Order-unit decomposition and block-triple suite on both carriers."""
    return _carriers_suite("theorem7", check_theorem7, max(1, trials // 10), dim, seed, tol)


def suite_axioms(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Five-axiom suite on both carriers plus the broken negative control."""
    per = max(1, trials // 2)
    report = _carriers_suite("axioms", check_axioms, per, dim, seed, tol)
    broken = check_axioms(BrokenOrthModel(max(2, dim), tol), trials=min(per, 50), seed=seed)
    report["pass"] = report["pass"] and not broken.holds
    report["negative_control_failed_as_expected"] = not broken.holds
    return report


def suite_bridge(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """The matrix carrier's ortho-inf/sup of diagonal matrices is diagonal
    and matches the coordinate carrier's on their diagonals. The pairs of
    equal n are checked in stacks: one matrix _Pair of the diagonal
    matrices and one coordinate _Pair of their diagonals."""
    def check(chunk, x, y):
        n = x.shape[-1]
        diagonal = np.zeros((2,) + x.shape + (n,), dtype=complex)
        diagonal[..., range(n), range(n)] = x, y
        matrices = _Pair(MatrixSaModel(n, tol), *hermitian_matrix(diagonal))
        vectors = _Pair(CoordinateModel(n, tol), x, y)
        # per pair: the largest entry of c off its diagonal, and the distances
        # of c's and d's diagonals from the coordinate carrier's inf and sup
        return np.stack([np.abs(matrices.c * (1.0 - np.eye(n))).max((-2, -1)),
                         *(np.abs(m.diagonal(0, -2, -1).real - v).max(-1)
                           for m, v in ((matrices.c, vectors.c), (matrices.d, vectors.d)))], 1)

    worst = _worst(_checked_in_stacks(trials, seed, 8, lambda rng: _dim_for(rng, dim),
                                      lambda i, n, rng: (rng.standard_normal(n),
                                                         rng.standard_normal(n)),
                                      check, lambda n: n * n))
    return {"suite": "bridge", "pass": worst <= tol.tol_eq, "trials": trials,
            "max_violation": worst}


def suite_infty_consistency(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Algebraic orthogonality implies (and its failure falsifies) the
    sampled absolute infinity-orthogonality test: abs_infty_orth_sampled
    with seed seed + i on the orthogonal pair of each trial i, and on its
    overlapping pair if the zero product is above 0.1. The pairs of equal n
    are checked in stacks, a pair counted as a sample of the sampled check,
    which stops at a pair's first violation. The worst deviation of the
    orthogonal pairs, NaN if any is NaN, must be within tol_eq, and an
    overlapping pair that the check passes is missed."""
    pairs = max(1, trials // 10)
    samples = 40

    def draw(i, n, rng):
        return (*_orthogonal_psd_pair(n, rng), random_psd(n, rng), random_psd(n, rng))

    def check(chunk, a, b, c, d):
        model = MatrixSaModel(a.shape[-1], tol)
        seeds = [seed + i for i in chunk]
        worst = _sampled_stack(model, hermitian_matrix(a), hermitian_matrix(b), seeds,
                               samples)[1]
        missed = [False] * len(chunk)
        overlapping = np.flatnonzero(zero_product_residual(c, d) > 0.1).tolist()
        if overlapping:
            held = _sampled_stack(model, hermitian_matrix(c[overlapping]),
                                  hermitian_matrix(d[overlapping]),
                                  [seeds[k] for k in overlapping], samples)[1]
            for k, r in zip(overlapping, held):
                missed[k] = r <= tol.tol_eq
        return zip(worst, missed)

    worst, missed = zip(*_checked_in_stacks(pairs, seed, 9, lambda rng: _dim_for(rng, dim),
                                            draw, check, lambda n: n * n))
    worst, missed = _worst(worst), sum(missed)
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
