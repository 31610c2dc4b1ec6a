"""The buffered draws: every random object is drawn into a row of its
chunk's buffer with out= draws and built for the whole chunk in one stacked
call. These tests pin the numpy equivalences the rows rely on, so that a
numpy change fails a named test rather than a pinned digest, and check that
each buffered draw plus its stacked build is, bit for bit and to the last
number drawn, the construction of one trial at a time."""
import numpy as np
import pytest

import ortholat.orthogonality
from ortholat.axioms import check_axioms, check_theorem7
from ortholat.carriers import CoordinateModel, MatrixSaModel
from ortholat.linalg import (_draw_rows, _uniform_from, complex_from_normals,
                             hermitian_from_normals, rng_for, sqrt_psd)
from ortholat.suites import (SUITES, _normal_matrices, _orthogonal_general_pair,
                             _orthogonal_psd_pair, _orthogonal_sa_pair, _psd_from_normals,
                             run_suite)

import references
from helpers import (draw_rows, interval_samples, random_complex, random_hermitian, random_psd,
                     sample)

SIZES = [1, 2, 8, 64]
SPLIT_SIZES = [2, 8, 64]   # an orthogonal pair or triple splits n into two blocks


def _keys(tag, n, count=5):
    return [(97, tag, n, i) for i in range(count)]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


class TestNumpyEquivalences:
    """What numpy must keep for a row's draws to be the per-trial draws."""

    @pytest.mark.parametrize("n", SIZES)
    def test_normals_into_a_row(self, n):
        # out= into a slice of a wider row, and consecutive draws merged
        # into one, read the stream as standard_normal(shape) calls do
        for i in range(20):
            one, two = rng_for(98, n, i), rng_for(98, n, i)
            want = [one.standard_normal((2, n, n)), one.standard_normal(n), one.standard_normal(3)]
            row = np.full(2 * n * n + n + 5, np.nan)
            two.standard_normal(out=row[1:1 + 2 * n * n])
            two.standard_normal(out=row[1 + 2 * n * n:4 + 2 * n * n + n])
            assert _same_bits(row[1:1 + 2 * n * n].reshape(2, n, n), want[0])
            assert _same_bits(row[1 + 2 * n * n:4 + 2 * n * n + n], np.concatenate(want[1:]))
            assert np.isnan(row[0]) and np.isnan(row[-1])
            assert _states([one]) == _states([two])

    @pytest.mark.parametrize("n", SIZES)
    def test_uniforms_into_a_row(self, n):
        for i in range(20):
            one, two = rng_for(99, n, i), rng_for(99, n, i)
            want = one.uniform(0.0, 1.0, size=n)
            row = np.empty(n + 1)
            two.random(out=row[1:])
            assert _same_bits(row[1:], want)
            assert _states([one]) == _states([two])

    @pytest.mark.parametrize("lo, hi", [(1e-4, 1.0), (-4.0, 4.0), (0.05, 0.5)])
    def test_scaled_uniforms(self, lo, hi):
        # Generator.uniform(lo, hi) is lo + (hi - lo) random() to the bit,
        # for the bounds the checks draw
        for i in range(2000):
            one, two = rng_for(100, i), rng_for(100, i)
            r = np.empty(1)
            two.random(out=r)
            assert _same_bits(_uniform_from(lo, hi, r)[0], np.float64(one.uniform(lo, hi)))

    @pytest.mark.parametrize("n", SIZES)
    def test_signs_as_bits(self, n):
        # choice([-1.0, 1.0]) draws integers(0, 2) and indexes with them
        for i in range(50):
            one, two = rng_for(101, n, i), rng_for(101, n, i)
            want = one.choice([-1.0, 1.0], size=n)
            bits = np.empty(n)
            bits[:] = two.integers(0, 2, size=n)
            assert _same_bits(np.where(bits, 1.0, -1.0), want)
            assert _states([one]) == _states([two])


def _built(kind, n, keys):
    """The stacks that the suite samplers of `kind` build from one row per
    key, drawn in turn as the suites draw them, and the generators after."""
    rngs = [rng_for(*key) for key in keys]
    made = [sampler(n) for sampler in kind]
    blocks = _draw_rows(rngs, *[(width, draw) for width, draw, _ in made])
    return [np.asarray(x) for (*_, build), rows in zip(made, blocks) for x in build(rows)], rngs


def _alone(make, keys):
    """The objects make(rng) of each key, drawn and built one at a time, as
    stacks per element, and the generators after."""
    rngs = [rng_for(*key) for key in keys]
    return [np.array(x) for x in zip(*(make(rng) for rng in rngs))], rngs


def _assert_same(kind, make, n, tag):
    got, drawn = _built(kind, n, _keys(tag, n))
    want, alone = _alone(make, _keys(tag, n))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    assert _states(drawn) == _states(alone)


class TestSuitePairs:
    """The suites' samplers against their pairs built one trial at a time."""

    @pytest.mark.parametrize("n", SPLIT_SIZES)
    @pytest.mark.parametrize("sampler, make", [
        (_orthogonal_sa_pair, references.orthogonal_sa_pair),
        (_orthogonal_general_pair, references.orthogonal_general_pair),
        (_orthogonal_psd_pair, references.orthogonal_psd_pair),
    ], ids=["sa", "general", "psd"])
    def test_orthogonal_pairs(self, sampler, make, n):
        _assert_same([sampler], lambda rng: make(n, rng), n, 1)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("make, one", [
        (hermitian_from_normals, random_hermitian),
        (complex_from_normals, random_complex),
        (_psd_from_normals, random_psd),
    ], ids=["hermitian", "complex", "psd"])
    def test_random_pairs(self, make, one, n):
        # two samplers of one matrix each, drawn in turn
        _assert_same([lambda n: _normal_matrices(n, make)] * 2,
                     lambda rng: (one(n, rng), one(n, rng)), n, 2)

    @pytest.mark.parametrize("n", SPLIT_SIZES)
    def test_infty_draws_an_orthogonal_and_a_random_pair(self, n):
        psd = lambda n: _normal_matrices(n, _psd_from_normals)
        _assert_same([_orthogonal_psd_pair, psd, psd],
                     lambda rng: (*references.orthogonal_psd_pair(n, rng), random_psd(n, rng),
                                  random_psd(n, rng)), n, 3)


@pytest.mark.parametrize("carrier", [MatrixSaModel, CoordinateModel])
class TestModelDraws:
    """The carrier models' draws against one trial at a time."""

    @pytest.mark.parametrize("n", SIZES)
    def test_samples(self, carrier, n):
        # one sample a row, and two samples in one row (the theorem4 suites' pairs)
        model = carrier(n)
        w = model.sample_width
        for per in (1, 2):
            rngs = [rng_for(*key) for key in _keys(4, n)]
            rows = draw_rows(rngs, per * w, model.sample_draw)
            got = [model.samples(rows[:, k * w:(k + 1) * w]) for k in range(per)]
            want, alone = _alone(lambda rng: [sample(model, rng) for _ in range(per)],
                                 _keys(4, n))
            assert all(_same_bits(g, x) for g, x in zip(got, want))
            assert _states(rngs) == _states(alone)

    @pytest.mark.parametrize("n", SPLIT_SIZES)
    def test_orthogonal_triples(self, carrier, n):
        model = carrier(n)
        rngs = [rng_for(*key) for key in _keys(5, n, 12)]
        got = model.orthogonal_triples(draw_rows(rngs, model.triple_width, model.triple_draw))
        want, alone = _alone(lambda rng: references._triple(model, rng), _keys(5, n, 12))
        assert all(_same_bits(g, w) for g, w in zip(got, want))
        assert _states(rngs) == _states(alone)

    @pytest.mark.parametrize("n", SIZES)
    def test_dominated_samples(self, carrier, n):
        model = carrier(n)
        v = np.array([sample(model, rng_for(*key)) for key in _keys(6, n)])
        rngs = [rng_for(*key) for key in _keys(7, n)]
        _, got = model.dominated_sample(v, draw_rows(rngs, model.dominated_width,
                                                     model.dominated_draw))
        alone = [rng_for(*key) for key in _keys(7, n)]
        want = [references._dominated_sample(model, x, rng) for x, rng in zip(v, alone)]
        assert _same_bits(got, np.array(want))
        assert _states(rngs) == _states(alone)

    @pytest.mark.parametrize("n", SIZES)
    def test_interval_samples_of_mixed_owners(self, carrier, n):
        model = carrier(n)
        operands = np.array([model.positive(sample(model, rng_for(102, n, k))) for k in range(3)])
        root = model.interval_root(operands, "a")
        owners = np.array([2, 0, 0, 1, 2, 2, 1])
        rngs = [rng_for(103, n, i) for i in range(len(owners))]
        got = interval_samples(model, root, rngs, owners)
        alone = [rng_for(103, n, i) for i in range(len(owners))]
        if model.rank == 1:
            want = [rng.uniform(0.0, 1.0, size=n) * operands[k] for rng, k in zip(alone, owners)]
        else:
            want = [references.draw_one(sqrt_psd(operands[k]), rng)
                    for rng, k in zip(alone, owners)]
        assert _same_bits(got, np.array(want))
        assert _states(rngs) == _states(alone)


@pytest.mark.parametrize("rows", [1, 2])
class TestChunksOfOneAndTwoRows:
    """Chunks of one and of two rows give what the default chunks give."""

    @pytest.mark.parametrize("model", [MatrixSaModel(2), MatrixSaModel(8), CoordinateModel(2),
                                       CoordinateModel(8), CoordinateModel(64)],
                             ids=["matrix-2", "matrix-8", "coordinate-2", "coordinate-8",
                                  "coordinate-64"])
    def test_checks_are_the_loops(self, model, rows, monkeypatch):
        # a chunk holds rows * n**rank entries of the model's elements
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_ENTRIES", rows * model.n ** model.rank)
        assert references.same_report(check_axioms(model, 5, 42),
                                      references.axioms_loop(model, 5, 42))
        assert references.same_report(check_theorem7(model, 3, 42),
                                      references.theorem7_loop(model, 3, 42))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_suites(self, rows, dim, monkeypatch):
        want = [run_suite(name, dim, 20, 7) for name in SUITES]
        # one row a chunk at any n, or two a chunk below a huge entry cap
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_ENTRIES", 1 if rows == 1 else 1 << 40)
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_SAMPLES", rows)
        assert [run_suite(name, dim, 20, 7) for name in SUITES] == want
