import numpy as np
import pytest

import ortholat.axioms
import ortholat.orthogonality
from ortholat.axioms import check_axioms, check_theorem7
from ortholat.orthogonality import OrthReport, _sampled_stack
from ortholat.errors import DimensionMismatch
from ortholat.carriers import (
    BrokenOrthModel,
    CoordinateModel,
    MatrixSaModel,
)
from ortholat.linalg import (
    hermitian_eigendecompose,
    rel_diff,
    rng_for,
)

from helpers import abs_zero_product, draw_rows, loewner_le, random_hermitian, sample
from references import axioms_loop, same_report, theorem7_loop


class TestModels:
    def test_decomposition_matches_jordan(self):
        model = MatrixSaModel(4)
        v = random_hermitian(4, rng_for(81))
        up, un, _ = model.jordan(v)
        jp, jn, _ = hermitian_eigendecompose(v).jordan_parts()
        assert np.array_equal(up, jp) and np.array_equal(un, jn)

    def test_coordinate_decomposition(self):
        model = CoordinateModel(3)
        v = np.array([1.0, -2.0, 0.0])
        up, un, _ = model.jordan(v)
        assert np.array_equal(up, [1.0, 0.0, 0.0])
        assert np.array_equal(un, [0.0, 2.0, 0.0])

    @pytest.mark.parametrize("model", [MatrixSaModel, CoordinateModel])
    def test_orth_matches_exact_predicate_on_positives(self, model):
        # check_axioms and check_theorem7 judge positives by zero_product
        # alone: each positive is its own absolute value
        model = model(4)
        for i in range(50):
            rng = rng_for(82, i)
            a = model.positive(sample(model, rng))
            b = model.positive(sample(model, rng))
            exact = model.zero_product(a, b) <= model.tol.tol_zero
            derived = abs_zero_product(model, a, b) <= model.tol.tol_zero
            assert exact == derived

    def test_dominated_sample(self):
        model = MatrixSaModel(4)
        v = random_hermitian(4, rng_for(83))
        abs_v = model.jordan(v)[2]
        draws = draw_rows([rng_for(84, i) for i in range(20)], model.dominated_width,
                          model.dominated_draw)
        for i in range(20):
            got_abs, w = model.dominated_sample(v, draws[i])
            assert np.array_equal(got_abs, abs_v)
            assert loewner_le(model.jordan(w)[2], abs_v)

    def test_dominated_sample_decomposes_v_once(self, eigen_calls):
        # |v| and the sample from one decomposition, of one element or a stack
        model = MatrixSaModel(4)
        draws = draw_rows([rng_for(84, i) for i in range(5)], model.dominated_width,
                          model.dominated_draw)
        model.dominated_sample(random_hermitian(4, rng_for(83)), draws[0])
        vs = np.array([random_hermitian(4, rng_for(83, i)) for i in range(5)])
        model.dominated_sample(vs, draws)
        assert dict(eigen_calls) == {"eigh": 2}
        assert eigen_calls.stacks["eigh"] == [1, 5]

    def test_orthogonal_triple(self):
        for model in (MatrixSaModel(4), CoordinateModel(4)):
            triples = model.orthogonal_triples(draw_rows(
                [rng_for(85, i) for i in range(20)], model.triple_width, model.triple_draw))
            for u, v, w in zip(*triples):
                assert model.cone_defect(u) <= model.tol.tol_psd
                assert abs_zero_product(model, u, v) <= model.tol.tol_zero
                assert abs_zero_product(model, u, w) <= model.tol.tol_zero


class TestCheckAxioms:
    def test_matrix_carrier(self):
        rep = check_axioms(MatrixSaModel(4), trials=100, seed=1)
        assert rep.holds

    def test_coordinate_carrier(self):
        rep = check_axioms(CoordinateModel(8), trials=100, seed=2)
        assert rep.holds

    def test_zero_perturbation_is_no_survivor(self):
        # one of these trials draws a negative definite matrix, whose positive
        # part, the uniqueness perturbation, is exactly zero
        rep = check_axioms(MatrixSaModel(4), trials=250, seed=5000020)
        assert dict(rep.details)["ax4_uniqueness_survivors"] == 0.0
        assert rep.holds

    def test_broken_model_fails_uniqueness(self):
        rep = check_axioms(BrokenOrthModel(4), trials=50, seed=3)
        assert not rep.holds
        assert dict(rep.details)["ax4_uniqueness_survivors"] > 0

    def test_one_decomposition_per_axiom4_trial(self, eigen_calls):
        # a trial decomposes 7 matrices: u, whose parts serve axioms 1 and 4,
        # the triple's block, ut and vt (shared by axioms 2, 3 and 5; vt's
        # eigenbasis also makes the dominated sample), k vt + wt, the
        # perturbation's sample and w5; the Jordan parts and their
        # perturbations are positive, so none of them is decomposed. The
        # trials are decomposed in stacks: one call for each of the six, and
        # one for each block size of the triples (1, 2 or 3 at n = 4)
        for trials in (10, 30):
            eigen_calls.clear()
            eigen_calls.stacks.clear()
            check_axioms(MatrixSaModel(4), trials=trials)
            assert sum(eigen_calls.stacks["eigh"]) == 7 * trials
            assert eigen_calls["eigh"] == 6 + 3


class TestCheckTheorem7:
    def test_diagonal_triple(self):
        model = MatrixSaModel(3)
        u = np.diag([1.0, 0.0, 0.0]).astype(complex)
        v = np.diag([0.0, 1.0, 0.0]).astype(complex)
        w = np.diag([0.0, 0.0, 1.0]).astype(complex)
        assert abs_zero_product(model, u, model.jordan(v + w)[2]) <= model.tol.tol_zero
        assert abs_zero_product(model, u, model.jordan(v - w)[2]) <= model.tol.tol_zero

    def test_block_triple(self):
        model = MatrixSaModel(3)
        for i in range(20):
            rng = rng_for(86, i)
            u = np.zeros((3, 3), dtype=complex)
            u[0, 0] = 1.0
            v = np.zeros((3, 3), dtype=complex)
            w = np.zeros((3, 3), dtype=complex)
            v[1:, 1:] = random_hermitian(2, rng)
            w[1:, 1:] = random_hermitian(2, rng)
            assert abs_zero_product(model, u, model.jordan(v + w)[2]) <= model.tol.tol_zero
            assert abs_zero_product(model, u, model.jordan(v - w)[2]) <= model.tol.tol_zero

    def test_matrix_carrier(self):
        rep = check_theorem7(MatrixSaModel(3), trials=30, seed=4)
        assert rep.holds

    def test_coordinate_carrier(self):
        rep = check_theorem7(CoordinateModel(6), trials=50, seed=5)
        assert rep.holds

    def test_eigensolver_calls(self, eigen_calls):
        # a trial decomposes 7 matrices with eigh (u, a square root per part,
        # the triple's block, ut, v + w and v - w) and makes 17 qr (the 8
        # samples of each part, the triple's unitary); the trials are
        # decomposed in stacks, one call each and one for each block size of
        # the triples (1, 2 or 3 at n = 4); the k-grids of the samples go to
        # eigvalsh in slices of at most _GRID_ENTRIES entries, 16 a matrix
        for trials in (10, 20):
            eigen_calls.clear()
            eigen_calls.stacks.clear()
            check_theorem7(MatrixSaModel(4), trials=trials, seed=3)
            assert sum(eigen_calls.stacks["eigh"]) == 7 * trials
            assert sum(eigen_calls.stacks["qr"]) == 17 * trials
            assert eigen_calls["eigh"] == 4 + 3
            # the samples of each part in chunks of 64, and the triples' unitaries
            assert eigen_calls["qr"] == 2 * (trials * 8 // 64 + 1) + 1
            assert max(eigen_calls.stacks["eigvalsh"]) <= \
                ortholat.orthogonality._GRID_ENTRIES // 16

    def test_parts_verdict_is_the_shared_sampled_check(self, monkeypatch):
        calls = []

        def violating(model, a, b, seeds, trials):
            calls.append((len(a), trials))
            return [OrthReport("abs_infty_orth_sampled",
                               [("exact_alg_orth", 0.25), ("sampled_deviation", 0.5),
                                ("first_violation_trial", 0.0)],
                               {"sampled_deviation": model.tol.tol_eq})] * len(a)
        monkeypatch.setattr(ortholat.axioms, "_sampled_stack", violating)
        rep = check_theorem7(CoordinateModel(4), trials=3, seed=6)
        assert not rep.holds
        assert dict(rep.details)["parts_infty_sampled"] == 0.5
        # the exact half is the sampled check's own, not computed again
        assert dict(rep.details)["parts_exact_orth"] == 0.25
        # the three trials' parts in one stack, the endpoints and 8 samples each
        assert calls == [(3, 9)]

    @pytest.mark.parametrize("model", [MatrixSaModel(3), CoordinateModel(4),
                                       BrokenOrthModel(4)],
                             ids=["matrix", "coordinate", "broken"])
    def test_sampled_check_gets_the_model(self, model, monkeypatch):
        # the sampled check runs on the caller's model and its tolerances,
        # not on a model guessed from the operands
        seen = []

        def recording(*args, **kwargs):
            seen.append(args[0])
            return _sampled_stack(*args, **kwargs)
        monkeypatch.setattr(ortholat.axioms, "_sampled_stack", recording)
        assert check_theorem7(model, trials=3, seed=6).holds
        assert len(seen) == 1 and seen[0] is model

    @pytest.mark.parametrize("model", [MatrixSaModel, CoordinateModel])
    def test_zero_product_calls(self, model, monkeypatch):
        # the exact half inside the sampled check, then the orthogonality
        # residuals to |v + w| and |v - w|: each one stacked call for all trials
        calls = []
        zero_product = model.zero_product
        monkeypatch.setattr(model, "zero_product",
                            lambda self, x, y: calls.append(len(x)) or zero_product(self, x, y))
        assert check_theorem7(model(4), trials=10, seed=3).holds
        assert calls == [10] * 3


class NanTrialModel(CoordinateModel):
    """R^n whose zero product is NaN on the second element of a stack, one
    trial of a block of the stacked checks."""

    carrier = "nan-trial"

    def zero_product(self, x, y):
        r = super().zero_product(x, y)
        if np.ndim(r):
            r = np.where(np.arange(len(r)) == 1, np.nan, r)
        return r


@pytest.mark.parametrize("check", [check_axioms, check_theorem7])
def test_nan_residual_fails(check):
    # a NaN residual is a violation and the worst, not passed over
    rep = check(NanTrialModel(4), trials=10, seed=3)
    assert not rep.holds
    assert np.isnan(rep.worst_ratio)
    assert check(CoordinateModel(4), trials=10, seed=3).holds


@pytest.mark.parametrize("check", [check_axioms, check_theorem7], ids=["axioms", "theorem7"])
@pytest.mark.parametrize("carrier", [MatrixSaModel, CoordinateModel])
def test_one_dimension_is_a_typed_error(check, carrier, monkeypatch):
    # an orthogonal triple needs a block split, so n >= 2: n = 1 is a
    # DimensionMismatch that names n, raised before any trial is drawn
    monkeypatch.setattr(ortholat.axioms, "_trial_walk",
                        lambda *args: pytest.fail("a trial was drawn"))
    with pytest.raises(DimensionMismatch, match=r"^an orthogonal triple needs n >= 2, got n = 1$"):
        check(carrier(1), trials=5, seed=1)


# the stacked checks against their loops one trial at a time, at 0, 1 and
# an odd count of trials; a small chunk cap splits the trials into blocks
# and the samples of theorem7's parts into chunks that span trials
REFERENCE_MODELS = [MatrixSaModel(2), MatrixSaModel(4), CoordinateModel(8), BrokenOrthModel(4)]
REFERENCE_IDS = ["matrix-2", "matrix-4", "coordinate-8", "broken-4"]


@pytest.mark.parametrize("samples", [5, 64], ids=["chunks-5", "chunks-64"])
@pytest.mark.parametrize("trials", [0, 1, 13])
@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=REFERENCE_IDS)
class TestStackedChecksAreTheLoops:
    def test_check_axioms(self, model, trials, samples, monkeypatch):
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_SAMPLES", samples)
        for seed in (42, 4294967290):
            assert same_report(check_axioms(model, trials, seed), axioms_loop(model, trials, seed))

    def test_check_theorem7(self, model, trials, samples, monkeypatch):
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_SAMPLES", samples)
        for seed in (42, 4294967290):
            assert same_report(check_theorem7(model, trials, seed),
                               theorem7_loop(model, trials, seed))
