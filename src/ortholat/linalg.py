"""Dense complex matrix substrate: Hermitian spectral decomposition, Jordan
decomposition and square roots, norms, Loewner-order predicates, and JSON I/O.

All operations are pure functions of ndarrays; matrices are square complex
arrays and Hermitian inputs are symmetrized at the boundary. The validators,
the norms and residuals, the Jordan parts, `abs_general`, `embed_offdiag` and
`psd_defect` also take stacks of matrices along leading axes, and give each
matrix of a stack bit for bit what it gets alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotPositive
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "Spectrum",
    "complex_matrix",
    "hermitian_matrix",
    "frob",
    "rel_diff",
    "zero_product_residual",
    "hermitian_eigendecompose",
    "jordan_decompose",
    "sqrt_psd",
    "abs_general",
    "embed_offdiag",
    "hermitian_norm",
    "psd_defect",
    "rng_for",
    "random_complex",
    "random_hermitian",
    "random_unitary",
    "random_psd",
    "matrix_to_json",
    "matrix_from_json",
]


# ---------------------------------------------------------------------------
# construction / validation

def complex_matrix(m) -> np.ndarray:
    """Validate a square complex matrix, or a stack of them along leading
    axes, with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _pymax(first, *rest):
    """Python's max(first, *rest), elementwise over arrays: a later value
    replaces the running one only where it is larger, so a NaN after the
    first value is passed over and of two equal zeros the first is kept."""
    if all(isinstance(r, float) for r in (first, *rest)):
        return max(first, *rest)
    for r in rest:
        first = np.where(r > first, r, first)
    return first


def _scalar(r):
    """A kernel's result: a Python float for one element, as the kernels
    gave before they took stacks, and the array for a stack."""
    return r if isinstance(r, np.ndarray) and r.ndim else float(r)


def hermitian_matrix(m) -> np.ndarray:
    """Validate and symmetrize: returns M/2 + M*/2, which cannot overflow."""
    h = complex_matrix(m) / 2.0
    herm = np.conjugate(h.mT, order="C")   # M*/2 in one pass, not conj() then add
    herm += h
    return herm


# ---------------------------------------------------------------------------
# norms and residuals

def frob(x):
    """Frobenius norm of a matrix, or of each matrix of a stack along the
    leading axes: bit for bit np.linalg.norm of each, which sums the squares
    in memory order (so a transposed view is read column by column), real
    parts before imaginary parts. One matrix takes np.linalg.norm itself."""
    x = np.asarray(x)
    if x.ndim == 2:
        return float(np.linalg.norm(x))
    if x.strides[-2] < x.strides[-1]:   # column-major matrices
        x = x.mT
    flat = np.ascontiguousarray(x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)))
    if np.iscomplexobj(flat):
        re, im = flat.real, flat.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(flat, flat))


def rel_diff(x: np.ndarray, y: np.ndarray):
    """Relative Frobenius distance ||X-Y|| / max(1, ||X||, ||Y||), of two
    matrices or of each pair of two stacks."""
    return frob(x - y) / _pymax(1.0, frob(x), frob(y))


def zero_product_residual(a: np.ndarray, b: np.ndarray):
    """||ab|| / max(1, ||a||*||b||), the toleranced 'ab = 0' residual, of
    two matrices or of each pair of two stacks of one shape."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")
    return frob(a @ b) / _pymax(1.0, frob(a) * frob(b))


# ---------------------------------------------------------------------------
# spectral decomposition

@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) with an orthonormal eigenbasis in columns, of
    one matrix or of each matrix of a stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def jordan_parts(self):
        """(pos, neg, abs) of the decomposed matrix: pos - neg is the
        matrix, pos * neg = 0 and abs = pos + neg."""
        u = self.eigenvectors
        wp = np.maximum(self.eigenvalues, 0.0)[..., None, :]
        wn = np.maximum(-self.eigenvalues, 0.0)[..., None, :]
        pos = hermitian_matrix((u * wp) @ u.conj().mT)
        neg = hermitian_matrix((u * wn) @ u.conj().mT)
        return pos, neg, pos + neg


def hermitian_eigendecompose(a) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (LAPACK via numpy.linalg.eigh), eigenvalues ascending."""
    h = hermitian_matrix(a)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc
    return Spectrum(w, u)


def hermitian_norm(x):
    """Operator norm max |eigenvalue| of a Hermitian matrix, or of each
    matrix of a stack along the leading axes; computes eigenvalues only."""
    return np.abs(np.linalg.eigvalsh(x)).max(-1, initial=0.0)


# ---------------------------------------------------------------------------
# functional-calculus derived operations

def jordan_decompose(a):
    """Unique decomposition a = pos - neg with pos*neg = 0; abs = pos + neg."""
    return hermitian_eigendecompose(a).jordan_parts()


def sqrt_psd(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """PSD square root; eigenvalues in [-slack, slack) are clamped to zero.

    Clamping the whole band (not just the negatives) keeps round-off noise
    from being amplified by the square root near the kernel.
    """
    s = hermitian_eigendecompose(a)
    w = s.eigenvalues
    slack = tol.tol_psd * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if w.size and w[0] < -slack:
        raise NotPositive(f"minimum eigenvalue {w[0]:.3e} below -{slack:.3e}")
    u = s.eigenvectors
    return hermitian_matrix((u * np.sqrt(np.where(w < slack, 0.0, w))) @ u.conj().T)


def abs_general(x) -> np.ndarray:
    """|x| = (x* x)^(1/2) = V diag(s) V* for an arbitrary square complex x,
    or each matrix of a stack, from its singular value decomposition
    x = U diag(s) V* (LAPACK gesdd, not the eigensolver): no singular value
    is clamped, however small."""
    try:
        _, s, vh = np.linalg.svd(complex_matrix(x))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - svd rarely fails
        raise NoConvergence(str(exc)) from exc
    return hermitian_matrix((vh.conj().mT * s[..., None, :]) @ vh)


def embed_offdiag(a) -> np.ndarray:
    """The 2n x 2n Hermitian block matrix [[0, a], [a*, 0]], of a matrix or
    of each matrix of a stack."""
    m = complex_matrix(a)
    n = m.shape[-1]
    out = np.zeros(m.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, n:] = m
    out[..., n:, :n] = m.conj().mT
    return out


# ---------------------------------------------------------------------------
# cone defect

def psd_defect(a):
    """Relative depth of the most negative eigenvalue (0 for PSD input), of
    a matrix or of each matrix of a stack."""
    w = np.linalg.eigvalsh(hermitian_matrix(a))
    scale = _pymax(1.0, np.abs(w).max(-1, initial=0.0))
    lowest = w[..., 0] if w.shape[-1] else np.zeros(w.shape[:-1])
    return _scalar(_pymax(0.0, -lowest) / scale)


# ---------------------------------------------------------------------------
# seeded randomness

def rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic derived generator for (seed, index...) trials."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, indices)])


def random_complex(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex(n, rng)
    return (g + g.conj().T) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(n, rng))
    d = np.diag(r)
    return q * (d / np.abs(np.where(d == 0, 1.0, d)))


def random_psd(n: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex(n, rng)
    return hermitian_matrix(g @ g.conj().T / n)


# ---------------------------------------------------------------------------
# JSON wire format

def matrix_to_json(m) -> dict:
    """{"n": int, "re": [[...]], "im": [[...]]}; repr-exact floats."""
    a = complex_matrix(m)
    return {
        "n": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of an {"n", "re", "im"} object or its text ("im" defaults
    to zero); ValueError on a non-object, an n that is not an integer or a
    field of the wrong type, DimensionMismatch unless both parts are n x n."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"n is {n!r}, not an integer")
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float) if "im" in obj else np.zeros_like(re)
    except TypeError as exc:
        raise ValueError(f'matrix JSON must be an object with numeric "n", "re" '
                         f'and "im" ({exc})') from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise DimensionMismatch(f"matrix JSON shape mismatch for n={n}")
    return complex_matrix(re + 1j * im)
