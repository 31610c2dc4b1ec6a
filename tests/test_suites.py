"""The grouped suites against the fold of their public single-pair checks:
theorem4, corollary5, prop2, prop3 and bridge check each stack of equal-n
pairs in one call, and must report bit for bit what one call per pair, in
trial order, reports."""
import hashlib
import json

import numpy as np
import pytest

import ortholat.linalg
import ortholat.orthogonality
import ortholat.suites
from ortholat.carriers import CoordinateModel
from ortholat.errors import InternalInconsistency
from ortholat.linalg import rng_for
from ortholat.orthogonality import (OrthReport, _trial_walk, alg_orth_general,
                                    check_prop2_equivalence, infty_deviations)
from ortholat.ortholattice import _Pair, ortho_inf_sup, verify_theorem4
from ortholat.suites import (
    SUITES,
    _dim_for,
    run_suite,
    run_suites,
)
from ortholat.tolerances import DEFAULT_TOL

from helpers import random_complex, random_hermitian

from references import orthogonal_general_pair, orthogonal_sa_pair, prop6_sampled_worst, worst_of

SEEDS = [42, 1, 2]
# dim 64 draws n up to 64, where a chunk of _CHUNK_ENTRIES entries holds one pair
DIMS_TRIALS = [(4, 60), (16, 30), (64, 12)]


def _draws(stream, dims, draw, trials, seed):
    """(i, a, b) for each trial in order, drawn as the suite draws it."""
    for i in range(trials):
        rng = rng_for(seed, stream, i)
        yield (i, *draw(i, dims(rng), rng))


def _theorem4_fold(name, stream, dims, sample, trials, seed):
    """The theorem4 suite as one verify_theorem4 call per pair."""
    reports = [verify_theorem4(a, b, seed=seed + i) for i, a, b in _draws(
        stream, dims, lambda i, n, rng: (sample(n, rng), sample(n, rng)), trials, seed)]
    failures = sum(not rep.holds for rep in reports)
    worst_ratio, worst_check = worst_of(reports)
    return {"suite": name, "pass": failures == 0, "trials": trials, "worst_ratio": worst_ratio,
            "worst_check": worst_check, "failures": failures, "seed": seed}


def _routes_fold(name, stream, pairs, check, dim, trials, seed):
    """The prop2 or prop3 suite as one check call per pair: its worst
    covers the pairs that the check calls orthogonal."""
    orthogonal = []
    disagreements = 0
    for _, a, b in _draws(stream, lambda rng: _dim_for(rng, dim),
                          lambda i, n, rng: pairs[i % 2](n, rng), trials, seed):
        try:
            rep = check(a, b)
        except InternalInconsistency:
            disagreements += 1
            continue
        if rep.holds:
            orthogonal.append(rep)
    worst_ratio, worst_check = worst_of(orthogonal)
    return {"suite": name, "pass": disagreements == 0, "trials": trials,
            "worst_ratio": worst_ratio, "worst_check": worst_check,
            "disagreements": disagreements, "seed": seed}


def _bridge_fold(dim, trials, seed):
    """The bridge suite as two ortho_inf_sup calls per pair, one on the
    diagonal matrices and one on their diagonals."""
    worst = 0.0
    for _, x, y in _draws(8, lambda rng: _dim_for(rng, dim),
                          lambda i, n, rng: (rng.standard_normal(n), rng.standard_normal(n)),
                          trials, seed):
        c, d = ortho_inf_sup(np.diag(x).astype(complex), np.diag(y).astype(complex))
        cx, dx = ortho_inf_sup(x, y)
        worst = max(worst, float(np.max(np.abs(np.diag(c).real - cx))),
                    float(np.max(np.abs(np.diag(d).real - dx))),
                    float(np.max(np.abs(c - np.diag(np.diag(c))))))
    return {"suite": "bridge", "pass": worst <= DEFAULT_TOL.tol_eq, "trials": trials,
            "worst_ratio": worst / DEFAULT_TOL.tol_eq, "worst_check": "carrier_gap", "seed": seed}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim, trials", DIMS_TRIALS)
class TestGroupedSuitesAreTheFold:
    def test_theorem4(self, dim, trials, seed):
        want = _theorem4_fold("theorem4", 4, lambda rng: _dim_for(rng, dim),
                              random_hermitian, trials, seed)
        assert run_suite("theorem4", dim, trials, seed) == want

    def test_corollary5(self, dim, trials, seed):
        n = max(2, min(16, 2 * dim))
        want = _theorem4_fold("corollary5", 5, lambda rng: n,
                              lambda n, rng: rng.standard_normal(n), trials, seed)
        assert run_suite("corollary5", dim, trials, seed) == want

    def test_prop2(self, dim, trials, seed):
        pairs = (orthogonal_sa_pair,
                 lambda n, rng: (random_hermitian(n, rng), random_hermitian(n, rng)))
        want = _routes_fold("prop2", 2, pairs, check_prop2_equivalence, dim, trials, seed)
        assert run_suite("prop2", dim, trials, seed) == want

    def test_prop3(self, dim, trials, seed):
        pairs = (orthogonal_general_pair,
                 lambda n, rng: (random_complex(n, rng), random_complex(n, rng)))
        want = _routes_fold("prop3", 3, pairs, alg_orth_general, dim, trials, seed)
        assert run_suite("prop3", dim, trials, seed) == want

    def test_bridge(self, dim, trials, seed, monkeypatch):
        # the report is the fold's, and each pair of a stacked _Pair has the
        # ortho-inf and ortho-sup that ortho_inf_sup gives it alone
        pairs = []
        monkeypatch.setattr(ortholat.suites, "_Pair",
                            lambda *args: pairs.append(_Pair(*args)) or pairs[-1])
        assert run_suite("bridge", dim, trials, seed) == _bridge_fold(dim, trials, seed)
        assert sum(len(pair.a) for pair in pairs) == 2 * trials
        for pair in pairs:
            for a, b, c, d in zip(pair.a, pair.b, pair.c, pair.d):
                inf, sup = ortho_inf_sup(a, b)
                assert np.array_equal(c, inf) and np.array_equal(d, sup)


@pytest.mark.parametrize("entries", [16, 4096])
def test_stacks_group_by_n_within_the_cap(monkeypatch, entries):
    # every trial once, in trial order within a chunk, each chunk of one n
    # and within the caps on its trials and on the entries that it stacks
    # (`stacked` n x n matrices a trial) unless it holds a single trial; the
    # generators yielded are fresh, so that each reads its n again
    monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_ENTRIES", entries)
    cap = ortholat.orthogonality._CHUNK_SAMPLES
    for stacked in (1, 12, 24):
        seen = []
        for _, chunk, n, rngs in _trial_walk([(7, 4)], range(40), lambda n: stacked * n * n,
                                             lambda rng: _dim_for(rng, 6)):
            assert chunk == sorted(chunk)
            assert len(chunk) == 1 or len(chunk) <= cap and stacked * n * n * len(chunk) <= entries
            for i, rng in zip(chunk, rngs):
                want = rng_for(7, 4, i)
                assert _dim_for(want, 6) == _dim_for(rng, 6) == n
                assert rng.random() == want.random()
            seen.extend(chunk)
        assert sorted(seen) == list(range(40))


@pytest.mark.parametrize("dims", [None, lambda rng: _dim_for(rng, 6)], ids=["fixed-n", "read-n"])
def test_walk_builds_generators_as_read(monkeypatch, dims):
    # a fixed-n walk builds one generator per trial, and a walk that reads n
    # from the generators two: one to read n, and the fresh one it yields
    built = []
    generator = ortholat.orthogonality._generator
    monkeypatch.setattr(ortholat.orthogonality, "_generator",
                        lambda words: built.append(words) or generator(words))
    drawn = {}
    for _, chunk, n, rngs in _trial_walk([(3,)], range(300), lambda n: 16, dims):
        assert (n is None) == (dims is None)
        drawn.update((i, rng.random()) for i, rng in zip(chunk, rngs))
    assert len(built) == (1 if dims is None else 2) * 300
    monkeypatch.undo()
    assert drawn == {i: rng_for(3, i).random() for i in range(300)}


def test_trials_past_one_block(monkeypatch):
    # the walk hashes each block of trials' keys in one pass;
    # the pairs and the outcomes are those of one block
    monkeypatch.setattr(ortholat.orthogonality, "_KEY_BLOCK", 7)
    want = run_suite("prop2", 4, 30, 5)
    monkeypatch.undo()
    assert run_suite("prop2", 4, 30, 5) == want
    assert want == _routes_fold("prop2", 2, (orthogonal_sa_pair, lambda n, rng: (
        random_hermitian(n, rng), random_hermitian(n, rng))), check_prop2_equivalence, 4, 30, 5)


# what each suite's core stacks per pair, in entries of the pair's first
# element, and where that element stands in the core's arguments (the
# theorem4 core takes them as one _Pair, made from (model, a, b); bridge
# makes a _Pair of matrices and one of vectors, prop6 one of vectors)
@pytest.mark.parametrize("suite, core, operand, stacked", [
    ("prop2", "_prop2_stack", 1, 12),   # the three Jordan parts of x, y, x + y, x - y
    ("prop3", "_alg_orth_general_stack", 0, 24),   # two 2n x 2n embeddings, three parts each
    ("theorem4", "_theorem4_stack", 1, 1),
    ("corollary5", "_theorem4_stack", 1, 1),
    ("bridge", "_Pair", 1, 1),
    ("prop6", "_Pair", 1, 1),
])
def test_suite_chunks_within_the_cap(monkeypatch, suite, core, operand, stacked):
    shapes = []
    original = getattr(ortholat.suites, core)

    def recording(*args):
        operands = (args[0].model, args[0].a, args[0].b) if isinstance(args[0], _Pair) else args
        shapes.append(operands[operand].shape)
        return original(*args)

    monkeypatch.setattr(ortholat.suites, core, recording)
    assert run_suite(suite, 8, 200, 3)["pass"]
    # each carrier's stacks hold every trial once
    for rank in {len(shape) for shape in shapes}:
        assert sum(shape[0] for shape in shapes if len(shape) == rank) == 200
    assert any(shape[0] > 1 for shape in shapes)
    for shape in shapes:
        assert shape[0] <= ortholat.orthogonality._CHUNK_SAMPLES
        assert shape[0] == 1 or stacked * np.prod(shape) <= ortholat.orthogonality._CHUNK_ENTRIES


@pytest.mark.parametrize("suite", ["lemma1", "infty"])
def test_nan_worst_fails_the_suite(monkeypatch, suite):
    # a NaN worst residual of one pair is the suite's worst, and fails it
    def nan_first(model, a, b, seeds, trials, hereditary=False):
        name, bound = (("worst_cd", model.tol.tol_zero) if hereditary
                       else ("sampled_deviation", model.tol.tol_eq))
        worst = [np.nan] + [0.0] * (len(seeds) - 1)
        return [OrthReport("sampled", [(name, r)], {name: bound}) for r in worst]
    monkeypatch.setattr(ortholat.suites, "_sampled_stack", nan_first)
    rep = run_suite(suite, 4, 50, 42)
    assert rep["pass"] is False
    assert np.isnan(rep["worst_ratio"])


@pytest.mark.parametrize("seed", SEEDS)
def test_prop6_verdicts_are_the_sampled_check(monkeypatch, seed):
    # each chunk's deviations at (w, w), and so its failures, are those of
    # the one-trial sampled check of the endpoints that the suite once ran
    chunks = []

    def recording(u, v, norm):
        deviations = infty_deviations(u, v, norm)
        chunks.append((u, deviations.max(-1)))
        return deviations
    monkeypatch.setattr(ortholat.suites, "infty_deviations", recording)
    rep = run_suite("prop6", 4, 500, seed)
    monkeypatch.undo()
    assert len(chunks) > 1
    failures = 0
    for w, worst in chunks:
        want = prop6_sampled_worst(CoordinateModel(w.shape[-1]), w)
        assert worst.tolist() == want
        failures += sum(r <= DEFAULT_TOL.tol_eq for r in want)
    assert rep["failures"] == failures


# sha256 of json.dumps(run_suites(all), sort_keys=True), as the suites
# reported it when they looped one trial at a time (numpy 2.4.6, x86-64
# OpenBLAS), with the verdict record's worst_ratio, worst_check and bounds in
# place of max_violation: stacked, they must report every trial, sample and
# residual bit for bit. The ids leave the digest out, so that a digest can
# move without renaming its test.
@pytest.mark.parametrize("dim, trials, seed, digest", [
    (4, 500, 42, "9b1625b100fe43eb017c4be4c934e9e5e0ed588b61a099d81ed2faa100bc34d1"),
    (4, 500, 18446744073709551610,
     "262306e42377d7906b0cd8687c5acd823699cf92d0829b584f190644302f348d"),
    (16, 50, 1, "cbe438b5bcc2fb3c0256a225cca522dc16cb0037964c7e2ac830bcb6d0a62279"),
    # n up to 64: each slice of the k-grid stacks holds one pair
    (64, 10, 7, "763eb8b842212a1fbf3a301b90130c9accbfdf56b312d4bf7c05e0c0c7bcca65"),
], ids=["4-500-42", "4-500-18446744073709551610", "16-50-1", "64-10-7"])
def test_reports_are_pinned(dim, trials, seed, digest):
    report = json.dumps(run_suites(list(SUITES), dim, trials, seed), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


# sha256 of json.dumps(run_suite(...), sort_keys=True), as the theorem4 core
# reported it when it settled each chunk of perturbations in a function of
# its own: at n = 64 a chunk of the uniqueness half holds one perturbation,
# and at corollary5's n = 16 it holds 256
@pytest.mark.parametrize("suite, dim, trials, seed, digest", [
    ("theorem4", 64, 100, 1, "1c69654522505db13ca0042a8c56728a12ccee73d40753633b4e7192acbbd0d7"),
    ("corollary5", 64, 500, 3, "548d6a5882622f6c1fa5428afa823aa989bfce2836edb6a60b811623b8b1ba1d"),
], ids=["theorem4-64-100-1", "corollary5-64-500-3"])
def test_theorem4_reports_are_pinned(suite, dim, trials, seed, digest):
    report = json.dumps(run_suite(suite, dim, trials, seed), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest
