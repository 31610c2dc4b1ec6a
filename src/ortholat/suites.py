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
    _draw_rows,
    _normals,
    _rebuild,
    _unitary,
    complex_from_normals,
    hermitian_eigendecompose,
    hermitian_from_normals,
    hermitian_matrix,
    zero_product_residual,
)
from .orthogonality import (
    OrthReport,
    _alg_orth_general_stack,
    _peak,
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


# A sampler maps n to (width, draw, build): draw(rng, row) fills a trial's
# row of `width` entries of the sampler's array for the chunk with out=
# draws, in the order in which the trial reads its generator, and
# build(rows) makes the stacks of the elements of the chunk's rows, one
# stacked call an object.

def _block_split(n, unitaries, build):
    """The sampler of build(u, da, db): `unitaries` random unitaries u, one
    axis each in front, and diagonals da and db of normals on complementary
    blocks of a random split. A trial draws the normals of the unitaries,
    the split, then n normals: da's block, then db's."""
    w = 2 * unitaries * n * n

    def draw(rng, row):
        rng.standard_normal(out=row[:w])
        row[w] = rng.integers(1, n)
        rng.standard_normal(out=row[w + 1:])

    def split(rows):
        low, z = np.arange(n) < rows[:, w, None], rows[:, w + 1:]
        u = _unitary(rows[:, :w].reshape(len(rows), -1, 2, n, n))
        return build(u.swapaxes(0, 1), np.where(low, z, 0.0), np.where(low, 0.0, z))
    return w + 1 + n, draw, split


def _orthogonal_sa_pair(n):
    """Hermitian pairs with |a||b| = 0 by a common-eigenbasis block split."""
    return _block_split(n, 1, lambda u, da, db: (_rebuild(u[0], da), _rebuild(u[0], db)))


def _orthogonal_general_pair(n):
    """Complex pairs with ab* = 0 = a*b via disjoint singular supports."""
    return _block_split(n, 2, lambda u, da, db: ((u[0] * da[:, None]) @ u[1].conj().mT,
                                                 (u[0] * db[:, None]) @ u[1].conj().mT))


def _orthogonal_psd_pair(n):
    """|a| and |b| of _orthogonal_sa_pair's pairs, from one stacked decomposition."""
    width, draw, build = _orthogonal_sa_pair(n)
    return width, draw, lambda rows: np.split(
        hermitian_eigendecompose(np.concatenate(build(rows))).jordan_parts()[2], 2)


def _normal_matrices(n, make):
    """The sampler of matrices make(g) of (x, y) blocks g of n x n normals."""
    return 2 * n * n, _normals, lambda g: (make(g.reshape(len(g), 2, n, n)),)


def _psd_from_normals(g):
    """z z* / n, symmetrized, of the complex n x n matrix z of normals g or of each of a stack."""
    z = complex_from_normals(g)
    return hermitian_matrix(z @ z.conj().mT / z.shape[-1])


def suite_lemma1(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Hereditarity of algebraic orthogonality on order intervals:
    hereditary_check with seed seed + i on the pair of each trial i, the
    pairs of equal n in stacks, a pair counted as a sample of the check."""
    pairs = max(1, trials // 10)
    samples = min(trials, 100)

    def check(chunk, a, b):
        return _sampled_stack(MatrixSaModel(a.shape[-1], tol), a, b,
                              [seed + i for i in chunk], samples, hereditary=True)

    return _suite("lemma1", pairs * samples,
                  _checked_in_stacks(pairs, seed, 1, lambda rng: _dim_for(rng, dim),
                                     [(_orthogonal_psd_pair,)], check, lambda n: n * n))


def _suite(name, trials, records=None, negative_control=None, **counts) -> dict:
    """The report of a suite from its checks' verdict records and its counts
    (failures, disagreements, missed): worst_ratio and worst_check are its
    worst record's, NaN first. It passes when every record holds (so
    worst_ratio is at most 1), every count is 0 and a `negative_control` fails."""
    report = {"suite": name, "trials": trials, **counts}
    if records is not None:
        report["worst_ratio"], report["worst_check"] = _peak(r._peak_ratio() for r in records)
    if negative_control is not None:
        report["negative_control_failed_as_expected"] = not negative_control.holds
    report["pass"] = (not any(counts.values()) and all(r.holds for r in records or ())
                      and report.get("negative_control_failed_as_expected", True))
    return report


def _checked_in_stacks(trials, seed, stream, dims, kinds, check, entries) -> list:
    """The outcome of each trial i, in trial order. Its generator is its one
    of _trial_walk([(seed, stream)], range(trials), entries, dims), from
    which n = dims(rng) is read again; then the samplers (see above) of
    kinds[i % len(kinds)] in turn draw its rows. The trials of a chunk and
    kind are built and checked together: check(trials, a, b, ...) gets their
    trials and the stacks that the samplers build, and returns one outcome
    per trial."""
    outcomes = [None] * trials
    for _, chunk, n, rngs in _trial_walk([(seed, stream)], range(trials), entries, dims):
        rngs = list(rngs)
        for rng in rngs:
            dims(rng)
        for kind, samplers in enumerate(kinds):
            mine = [r for r, i in enumerate(chunk) if i % len(kinds) == kind]
            if mine:
                made = [sampler(n) for sampler in samplers]
                rows = _draw_rows([rngs[r] for r in mine], *[(w, draw) for w, draw, _ in made])
                stacks = [x for (*_, build), block in zip(made, rows) for x in build(block)]
                del rows   # the draws, freed before the check
                ids = [chunk[r] for r in mine]
                for i, outcome in zip(ids, check(ids, *stacks)):
                    outcomes[i] = outcome
    return outcomes


def _routes_suite(name, stream, pairs, check, stacked, dim, trials, seed):
    """check(a, b) on stacks of equal-n pairs of the kinds pairs[0] and
    pairs[1] in turn, `stacked` times n * n entries a pair: a returned
    InternalInconsistency is a disagreement of the routes, and only pairs
    the check calls orthogonal carry a residual."""
    reports = _checked_in_stacks(trials, seed, stream, lambda rng: _dim_for(rng, dim), pairs,
                                 lambda chunk, a, b: check(a, b), lambda n: stacked * n * n)
    orthogonal = [rep for rep in reports if isinstance(rep, OrthReport) and rep.holds]
    return _suite(name, trials, orthogonal,
                  disagreements=sum(isinstance(rep, InternalInconsistency) for rep in reports))


def _theorem4_suite(name, carrier, stream, dims, trials, seed, tol):
    """verify_theorem4 with seed seed + i on the pair of each trial i: two
    samples of carrier(n) from rng_for(seed, stream, i), after dims reads n
    from it. The pairs of equal n are checked in stacks, and the first error
    in the walk's order (which groups the trials by n) is raised."""
    def sample(n):
        model = carrier(n, tol)
        return model.sample_width, model.sample_draw, lambda rows: (model.samples(rows),)

    def check(chunk, a, b):
        return _theorem4_stack(_Pair(carrier(a.shape[-1], tol), a, b),
                               [seed + i for i in chunk], 10)

    reports = _checked_in_stacks(trials, seed, stream, dims, [(sample, sample)], check,
                                 lambda n: n ** carrier.rank)
    return _suite(name, trials, reports, failures=sum(not rep.holds for rep in reports))


def suite_prop2(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Three-way equivalence of self-adjoint orthogonality."""
    hermitian = lambda n: _normal_matrices(n, hermitian_from_normals)
    pairs = [(_orthogonal_sa_pair,), (hermitian, hermitian)]

    def check(a, b):
        return _prop2_stack(MatrixSaModel(a.shape[-1], tol), a, b)
    # the Jordan parts of x, y, x + y and x - y: three each
    return _routes_suite("prop2", 2, pairs, check, 12, dim, trials, seed)


def suite_prop3(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Agreement of the four routes to general algebraic orthogonality."""
    general = lambda n: _normal_matrices(n, complex_from_normals)
    pairs = [(_orthogonal_general_pair,), (general, general)]
    return _routes_suite(
        "prop3", 3, pairs,
        lambda a, b: _alg_orth_general_stack(a, b, tol),
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
    Each chunk of _trial_walk([(seed, 6)], ...) takes its w from one
    ortho-infimum and its verdicts from one evaluation of the identity at
    (w, w); a pair fails unless its deviation exceeds tol_eq, so a NaN
    deviation fails."""
    n = max(2, min(16, 2 * dim))
    model = CoordinateModel(n, tol)
    failures = 0
    for *_, rngs in _trial_walk([(seed, 6)], range(trials), lambda _: n):
        u, v = _draw_rows(rngs, (n, _normals), (n, _normals))
        w = _Pair(model, np.abs(u), np.abs(v)).c
        broken = infty_deviations(w, w, model.norm).max(-1) > tol.tol_eq
        failures += int(np.count_nonzero(~broken))
    return _suite("prop6", trials, failures=failures)


def _carriers_suite(name, check, per, dim, seed, tol, negative_control=None):
    """check(model, trials=per, seed=seed) on the matrix carrier at n = dim
    (2 to 4) and on the coordinate carrier at n = 2 dim (at least 2)."""
    reports = {model.carrier: check(model, trials=per, seed=seed)
               for model in (MatrixSaModel(max(2, min(dim, 4)), tol),
                             CoordinateModel(max(2, 2 * dim), tol))}
    return {**_suite(name, 2 * per, list(reports.values()), negative_control),
            "carriers": {k: v.to_json() for k, v in reports.items()}}


def suite_theorem7(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Order-unit decomposition and block-triple suite on both carriers."""
    return _carriers_suite("theorem7", check_theorem7, max(1, trials // 10), dim, seed, tol)


def suite_axioms(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Five-axiom suite on both carriers plus the broken negative control."""
    per = max(1, trials // 2)
    broken = check_axioms(BrokenOrthModel(max(2, dim), tol), trials=min(per, 50), seed=seed)
    return _carriers_suite("axioms", check_axioms, per, dim, seed, tol, broken)


def suite_bridge(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """The matrix carrier's ortho-inf/sup of diagonal matrices is diagonal
    and matches the coordinate carrier's on their diagonals. The pairs of
    equal n are checked in stacks: one matrix _Pair of the diagonal
    matrices and one coordinate _Pair of their diagonals."""
    bounds = {"carrier_gap": tol.tol_eq}

    def check(chunk, x, y):
        n = x.shape[-1]
        diagonal = np.zeros((2,) + x.shape + (n,), dtype=complex)
        diagonal[..., range(n), range(n)] = x, y
        matrices = _Pair(MatrixSaModel(n, tol), *hermitian_matrix(diagonal))
        vectors = _Pair(CoordinateModel(n, tol), x, y)
        # per pair: the largest entry of c off its diagonal, and the distances
        # of c's and d's diagonals from the coordinate carrier's inf and sup;
        # its gap is the largest of the three, NaN if one is NaN
        gaps = np.max([np.abs(matrices.c * (1.0 - np.eye(n))).max((-2, -1)),
                       *(np.abs(m.diagonal(0, -2, -1).real - v).max(-1)
                         for m, v in ((matrices.c, vectors.c), (matrices.d, vectors.d)))], 0)
        return [OrthReport("bridge", [("carrier_gap", g)], bounds) for g in gaps.tolist()]

    def vector(n):   # a vector of normals
        return n, _normals, lambda g: (g,)

    return _suite("bridge", trials,
                  _checked_in_stacks(trials, seed, 8, lambda rng: _dim_for(rng, dim),
                                     [(vector, vector)], check, lambda n: n * n))


def suite_infty_consistency(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Algebraic orthogonality implies (and its failure falsifies) the
    sampled absolute infinity-orthogonality test: abs_infty_orth_sampled
    with seed seed + i on the orthogonal pair of each trial i, and on its
    overlapping pair if the zero product is above 0.1. The pairs of equal n
    are checked in stacks, a pair counted as a sample of the sampled check,
    which stops at a pair's first violation. The report of every orthogonal
    pair must hold, and an overlapping pair whose report holds is missed."""
    pairs = max(1, trials // 10)
    samples = 40
    psd = lambda n: _normal_matrices(n, _psd_from_normals)   # a random z z* / n

    def check(chunk, a, b, c, d):
        model = MatrixSaModel(a.shape[-1], tol)
        seeds = [seed + i for i in chunk]
        reports = _sampled_stack(model, a, b, seeds, samples)
        missed = [False] * len(chunk)
        overlapping = np.flatnonzero(zero_product_residual(c, d) > 0.1).tolist()
        if overlapping:
            held = _sampled_stack(model, c[overlapping], d[overlapping],
                                  [seeds[k] for k in overlapping], samples)
            for k, rep in zip(overlapping, held):
                missed[k] = rep.holds
        return zip(reports, missed)

    reports, missed = zip(*_checked_in_stacks(pairs, seed, 9, lambda rng: _dim_for(rng, dim),
                                              [(_orthogonal_psd_pair, psd, psd)], check,
                                              lambda n: n * n))
    return _suite("infty", pairs * samples, reports, missed=sum(missed))


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
