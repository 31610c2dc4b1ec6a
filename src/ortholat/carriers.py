"""The two carriers of the ortho-lattice: Hermitian n x n matrices with the
Loewner order, and R^n with the coordinatewise order. A model holds what the
carriers do differently (input checks, the spectrum, the cone defect, the
zero-product residual, the norms and the samples of order intervals), so
every check built on it is written once for both. `element`, `spectrum`,
`jordan`, `cone_defect`, `zero_product`, `rel_diff`, `norm`, `vector_norm`,
`interval_root` and `interval_samples` also take stacks of elements along
leading axes, and give each element of a stack bit for bit what it gets
alone.

A random object X is drawn in two steps: X_draw(rng, out) fills a trial's
row of X_width entries (linalg._draw_rows) with out= draws, in the order in
which the trial reads its generator, and one stacked call builds the
objects of a chunk's rows: samples, orthogonal_triples, dominated_sample
and interval_samples.

`carrier_operands` picks the model from the operands: a 1-D array is a
vector of R^n, anything else must be a square matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositive
from .linalg import (
    Spectrum,
    _cone_defect,
    _normals,
    _rebuild,
    _uniforms,
    _unit_floor,
    _unitary,
    frob,
    hermitian_eigendecompose,
    hermitian_from_normals,
    hermitian_matrix,
    hermitian_norm,
    psd_defect,
    rel_diff,
    sqrt_psd,
    zero_product_exceeds,
    zero_product_residual,
)
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "MatrixSaModel",
    "CoordinateModel",
    "BrokenOrthModel",
    "carrier_operands",
    "sup_norm",
    "lattice_vector",
]


def sup_norm(x):
    """max_i |x_i|, of a vector or of each vector of a stack along the last axis."""
    return np.abs(np.asarray(x, dtype=float)).max(-1, initial=0.0)


def lattice_vector(v) -> np.ndarray:
    """Validate a real vector, or a stack of them along leading axes, with
    finite entries."""
    x = np.asarray(v, dtype=float)
    if x.ndim < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


class _Carrier:
    """What the carriers share: the Jordan parts and dominated samples of a
    spectrum. An element has `rank` axes; `element` validates one or a stack."""

    def __init__(self, n: int, tol: Tolerances = DEFAULT_TOL):
        self.n = n
        self.tol = tol

    sample_draw = staticmethod(_normals)   # a sample's normals, or several samples'

    def jordan(self, x):
        """(pos, neg, abs) of x, or of each element of a stack, from its spectrum."""
        return self.spectrum(x).jordan_parts()

    dominated_width = property(lambda self: 2 * self.n)

    def dominated_draw(self, rng, out):
        """n uniform magnitudes, then n random signs as bits (which
        Generator.choice([-1.0, 1.0]) draws too), into out."""
        rng.random(out=out[:self.n])
        out[self.n:] = rng.integers(0, 2, size=self.n)

    def dominated_sample(self, v, draws):
        """(|v|, w) with |w| <= |v|, of v or of each element of a stack, from
        its spectrum: w shrinks and sign-flips the eigenvalues of |v| by the
        factors t in [-1, 1]^n of dominated_draw rows, on v's eigenvectors."""
        t = draws[..., :self.n] * np.where(draws[..., self.n:], 1.0, -1.0)
        s = self.spectrum(v)
        return s.jordan_parts()[2], _rebuild(s.eigenvectors, t * np.abs(s.eigenvalues))


class MatrixSaModel(_Carrier):
    """Hermitian matrices with the Loewner order and unit I."""

    carrier = "matrix-sa"
    rank, kind = 2, "a square matrix"
    element = staticmethod(hermitian_matrix)   # validated and symmetrized
    spectrum = staticmethod(hermitian_eigendecompose)
    norm = staticmethod(hermitian_norm)        # batched operator norm
    vector_norm = staticmethod(frob)
    rel_diff = staticmethod(rel_diff)
    zero_product_exceeds = staticmethod(zero_product_exceeds)
    sample_width = property(lambda self: 2 * self.n * self.n)
    interval_width = property(lambda self: 2 * self.n * self.n + self.n)
    triple_width = property(lambda self: 3 + 2 * self.n ** 2 + 4 * (self.n - 1) ** 2)   # n1 = 1

    def samples(self, normals):
        """hermitian_from_normals of each row (x, y) of normals, overwritten."""
        return hermitian_from_normals(normals.reshape(normals.shape[:-1] + (2, self.n, self.n)))

    def positive(self, x):
        """A positive element made from a sample x: its positive part."""
        return self.jordan(x)[0]

    def cone_defect(self, x):
        return psd_defect(x)

    def zero_product(self, x, y):
        return zero_product_residual(x, y)

    def interval_root(self, a, name: str):
        """a^(1/2), of an operand a or of each operand of a stack, from which
        interval_samples draws [0, a]; NotPositive names the operand `name`."""
        try:
            return sqrt_psd(a, self.tol)
        except NotPositive as exc:
            raise NotPositive(f"{name} is not positive ({exc})") from None

    def interval_draw(self, rng, out):
        """The normals of a random unitary, then the uniforms of its
        eigenvalues t, into out."""
        rng.standard_normal(out=out[:-self.n])
        rng.random(out=out[-self.n:])

    def interval_samples(self, root, draws, owners):
        """The stack of one element of [0, a] from each interval_draw row, row
        k's in the interval of the operand owners[k], given root =
        interval_root(a): a^(1/2) w a^(1/2) with w a random contraction
        0 <= w <= 1. The unitaries of all rows are one stacked qr. The
        product is symmetrized by hermitian_matrix, which halves before it
        adds, so a sample of an a near the float range is finite; ValueError
        if an entry is not."""
        n = self.n
        u = _unitary(draws[:, :-n].reshape(len(draws), 2, n, n))
        w = (u * draws[:, None, -n:]) @ u.conj().mT
        root = root[owners]
        return hermitian_matrix(root @ w @ root)

    def triple_draw(self, rng, out):
        """The block size n1, then the normals of the unitary and of the
        blocks gu (n1 x n1), gv and gw (n - n1 square), into out."""
        n, n1 = self.n, int(rng.integers(1, self.n))
        out[0] = n1
        rng.standard_normal(out=out[1:1 + 2 * n * n + 2 * n1 * n1 + 4 * (n - n1) ** 2])

    def orthogonal_triples(self, draws):
        """The stacks (u, v, w) of the triples of triple_draw rows: u positive
        on one block (|gu|, one stacked decomposition per block size), v and
        w arbitrary on the complement, conjugated by a random unitary to
        avoid purely diagonal structure."""
        n, sizes = self.n, draws[:, 0]
        u, v, w = np.zeros((3, len(draws), n, n), dtype=complex)
        for n1 in set(sizes.astype(int).tolist()):
            rows, m = sizes == n1, n - n1
            g = draws[rows, 1 + 2 * n * n:]
            u[rows, :n1, :n1] = self.jordan(
                hermitian_from_normals(g[:, :2 * n1 * n1].reshape(-1, 2, n1, n1)))[2]
            v[rows, n1:, n1:], w[rows, n1:, n1:] = hermitian_from_normals(
                g[:, 2 * n1 * n1:2 * n1 * n1 + 4 * m * m].reshape(-1, 2, 2, m, m)).swapaxes(0, 1)
        q = _unitary(draws[:, 1:1 + 2 * n * n].reshape(-1, 2, n, n))
        conj = lambda x: hermitian_matrix(q @ x @ q.conj().mT)
        return conj(u), conj(v), conj(w)


class CoordinateModel(_Carrier):
    """R^n with coordinatewise order, sup norm, and unit (1, ..., 1)."""

    carrier = "coordinate"
    rank, kind = 1, "a 1-D vector"
    element = staticmethod(lattice_vector)
    norm = staticmethod(sup_norm)
    vector_norm = staticmethod(sup_norm)
    sample_width = interval_width = property(lambda self: self.n)
    triple_width = property(lambda self: 3 * self.n)
    samples = staticmethod(lambda normals: normals)

    def positive(self, x):
        """A positive element made from a sample x: |x|."""
        return np.abs(x)

    def spectrum(self, x):
        """The entries of x on the coordinate axes."""
        return Spectrum(x, None)

    cone_defect = staticmethod(_cone_defect)   # the entries are the spectrum

    def zero_product(self, x, y):
        """max_i min(|x_i|, |y_i|) / max(1, ||x|| ||y||): the lattice meet
        |x| ^ |y| stands in for the product, which vanishes with it."""
        overlap = np.minimum(np.abs(x), np.abs(y)).max(-1, initial=0.0)
        return (overlap / _unit_floor(sup_norm(x) * sup_norm(y)))[()]

    def zero_product_exceeds(self, x, y, bound):   # the residual: as cheap as a bound
        return self.zero_product(x, y) > bound

    def rel_diff(self, x, y):
        """linalg.rel_diff of the vectors as one-column matrices, so in the
        Euclidean norm."""
        return rel_diff(x[..., None], y[..., None])

    def interval_root(self, a, name: str):
        """a itself, an operand or a stack of them, from which
        interval_samples draws [0, a]: NotPositive unless the cone defect of
        each operand is within tol_psd, naming the operand `name` and the
        first defect above."""
        defect = self.cone_defect(a)
        above = np.flatnonzero(np.asarray(defect) > self.tol.tol_psd)
        if above.size:
            raise NotPositive(f"{name} is not positive "
                              f"(defect {np.ravel(defect)[above[0]]:.3e})")
        return a

    interval_draw = staticmethod(_uniforms)   # factors t, uniform in the unit box

    def interval_samples(self, root, draws, owners):
        """The stack of t * a of the interval_draw rows t, as on matrices."""
        return draws * root[owners]

    def triple_draw(self, rng, out):
        """The block size n1, the normals of u on the block and of v and w
        off it (2n - n1), then a permutation, into out."""
        n, n1 = self.n, int(rng.integers(1, self.n))
        out[0] = n1
        rng.standard_normal(out=out[1:1 + 2 * n - n1])
        out[2 * n:] = rng.permutation(n)

    def orthogonal_triples(self, draws):
        """The triples of triple_draw rows: on R^n they are all drawn."""
        n, at, n1 = self.n, np.arange(self.n), draws[:, :1].astype(int)
        z, off = draws[:, 1:2 * n], at >= n1   # v's and w's normals follow u's
        u, v, w = (np.where(off, 0.0, np.abs(z[:, :n])), np.where(off, z[:, :n], 0.0),
                   np.where(off, np.take_along_axis(z, n + at - n1, 1), 0.0))
        return tuple(np.take_along_axis(x, draws[:, 2 * n:].astype(int), 1) for x in (u, v, w))


class BrokenOrthModel(CoordinateModel):
    """Negative control: the orthogonality relation is always true, which
    destroys uniqueness of positive decompositions (axiom 4)."""

    carrier = "broken"

    def zero_product(self, x, y):
        return np.zeros(np.shape(x)[:-1])[()]


def _operand(model, v):
    """v as one element of the model: its element() also takes stacks."""
    x = model.element(v)
    if x.ndim != model.rank:
        raise DimensionMismatch(f"expected {model.kind}, got shape {x.shape}")
    return x


def carrier_operands(a, b, tol: Tolerances = DEFAULT_TOL):
    """(model, x, y): the carrier model of the operands a and b, and the
    operands as its elements. Raises ValueError on a non-finite entry and
    DimensionMismatch on a shape outside the carrier or two shapes that
    differ."""
    model = CoordinateModel if np.ndim(a) == 1 else MatrixSaModel
    x, y = _operand(model, a), _operand(model, b)
    if x.shape != y.shape:
        raise DimensionMismatch(f"dimension mismatch: {x.shape} vs {y.shape}")
    return model(len(x), tol), x, y
