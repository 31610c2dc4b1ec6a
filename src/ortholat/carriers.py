"""The two carriers of the ortho-lattice: Hermitian n x n matrices with the
Loewner order, and R^n with the coordinatewise order. A model holds what the
carriers do differently (input checks, the spectrum, the cone defect, the
zero-product residual, the norms and the samples of order intervals), so
every check built on it is written once for both. `element`, `spectrum`,
`jordan`, `cone_defect`, `zero_product`, `rel_diff`, `norm`, `vector_norm`,
`interval_root` and `interval_samples` also take stacks of elements along
leading axes, and give each element of a stack bit for bit what it gets
alone.

`carrier_operands` picks the model from the operands: a 1-D array is a
vector of R^n, anything else must be a square matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositive
from .linalg import (
    Spectrum,
    _cone_defect,
    _rebuild,
    _unit_floor,
    _unitary,
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    hermitian_norm,
    psd_defect,
    random_complex,
    random_hermitian,
    rel_diff,
    sqrt_psd,
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

    def jordan(self, x):
        """(pos, neg, abs) of x, or of each element of a stack, from its spectrum."""
        return self.spectrum(x).jordan_parts()

    def dominated_sample(self, v, t):
        """(|v|, w) with |w| <= |v|, of v or of each element of a stack, from
        its spectrum: w shrinks and sign-flips the eigenvalues of |v| by the
        factors t of dominated_draw, on v's own eigenvectors."""
        s = self.spectrum(v)
        return s.jordan_parts()[2], _rebuild(s.eigenvectors, t * np.abs(s.eigenvalues))

    def dominated_draw(self, rng):
        """The factors t in [-1, 1]^n of one dominated_sample: uniform
        magnitudes, then random signs."""
        return rng.uniform(0.0, 1.0, size=self.n) * rng.choice([-1.0, 1.0], size=self.n)


class MatrixSaModel(_Carrier):
    """Hermitian matrices with the Loewner order and unit I."""

    carrier = "matrix-sa"
    rank, kind = 2, "a square matrix"
    element = staticmethod(hermitian_matrix)   # validated and symmetrized
    spectrum = staticmethod(hermitian_eigendecompose)
    norm = staticmethod(hermitian_norm)        # batched operator norm
    vector_norm = staticmethod(frob)
    rel_diff = staticmethod(rel_diff)

    def sample(self, rng):
        return random_hermitian(self.n, rng)

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

    def interval_samples(self, root, rngs, owners):
        """The stack of one element of [0, a] from each of a non-empty
        sequence of generators, generator k's in the interval of the operand
        owners[k], given root = interval_root(a): a^(1/2) w a^(1/2) with w a
        random contraction 0 <= w <= 1. Each generator draws the normals of
        a random unitary, then the uniforms of its eigenvalues t; the whole
        stack is one stacked LAPACK call. The product is symmetrized by
        hermitian_matrix, which halves before it adds, so a sample of an a
        near the float range is finite; ValueError if an entry is not."""
        n = root.shape[-1]
        g, t = map(np.array, zip(*[(random_complex(n, rng), rng.uniform(0.0, 1.0, size=n))
                                   for rng in rngs]))
        u = _unitary(g)
        w = (u * t[:, None, :]) @ u.conj().swapaxes(-1, -2)
        root = root[owners]
        return hermitian_matrix(root @ w @ root)

    def triple_draw(self, rng):
        """The random numbers of one orthogonal triple, in the order drawn:
        the block size n1, the normals of the unitary, then the blocks."""
        n1 = int(rng.integers(1, self.n))
        return (n1, random_complex(self.n, rng), random_hermitian(n1, rng),
                random_hermitian(self.n - n1, rng), random_hermitian(self.n - n1, rng))

    def orthogonal_triples(self, draws):
        """The stacks (u, v, w) of the triples of a non-empty sequence of
        triple_draw results: u positive on one block (|gu|, one stacked
        decomposition per block size), v and w arbitrary on the complement,
        conjugated by a random unitary to avoid purely diagonal structure."""
        sizes, g, gu, gv, gw = zip(*draws)
        u, v, w = np.zeros((3, len(draws), self.n, self.n), dtype=complex)
        for n1 in set(sizes):
            rows = [k for k, size in enumerate(sizes) if size == n1]
            u[rows, :n1, :n1] = self.jordan(np.array([gu[k] for k in rows]))[2]
        for k, n1 in enumerate(sizes):
            v[k, n1:, n1:] = gv[k]
            w[k, n1:, n1:] = gw[k]
        q = _unitary(np.array(g))
        conj = lambda x: hermitian_matrix(q @ x @ q.conj().mT)
        return conj(u), conj(v), conj(w)


class CoordinateModel(_Carrier):
    """R^n with coordinatewise order, sup norm, and unit (1, ..., 1)."""

    carrier = "coordinate"
    rank, kind = 1, "a 1-D vector"
    element = staticmethod(lattice_vector)
    norm = staticmethod(sup_norm)
    vector_norm = staticmethod(sup_norm)

    def sample(self, rng):
        return rng.standard_normal(self.n)

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

    def interval_samples(self, root, rngs, owners):
        """The stack of t * a with t uniform in the unit box, one sample from
        each generator as on matrices."""
        t = np.array([rng.uniform(0.0, 1.0, size=root.shape[-1]) for rng in rngs])
        return t * root[owners]

    def orthogonal_triples(self, draws):
        return tuple(map(np.array, zip(*draws)))

    def triple_draw(self, rng):
        """The triple itself: on R^n it is all drawn."""
        n1 = int(rng.integers(1, self.n))
        u, v, w = np.zeros((3, self.n))
        u[:n1] = np.abs(rng.standard_normal(n1))
        v[n1:] = rng.standard_normal(self.n - n1)
        w[n1:] = rng.standard_normal(self.n - n1)
        perm = rng.permutation(self.n)
        return u[perm], v[perm], w[perm]


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
