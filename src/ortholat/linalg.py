"""Dense complex matrix substrate: Hermitian spectral decomposition, Jordan
decomposition and square roots, norms, Loewner-order predicates, and JSON I/O.

All operations are pure functions of ndarrays; matrices are square complex
arrays and Hermitian inputs are symmetrized at the boundary.
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
    "is_psd",
    "loewner_le",
    "is_comparable",
    "rng_for",
    "random_complex",
    "random_hermitian",
    "random_unitary",
    "random_psd",
    "random_projection",
    "matrix_to_json",
    "matrix_from_json",
]


# ---------------------------------------------------------------------------
# construction / validation

def complex_matrix(m) -> np.ndarray:
    """Validate a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def hermitian_matrix(m) -> np.ndarray:
    """Validate and symmetrize: returns (M + M*)/2."""
    a = complex_matrix(m)
    return (a + a.conj().T) / 2.0


def _check_same_dim(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# norms and residuals

def frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def rel_diff(x: np.ndarray, y: np.ndarray) -> float:
    """Relative Frobenius distance ||X-Y|| / max(1, ||X||, ||Y||)."""
    return frob(x - y) / max(1.0, frob(x), frob(y))


def zero_product_residual(a: np.ndarray, b: np.ndarray) -> float:
    """||ab|| / max(1, ||a||*||b||), the toleranced 'ab = 0' residual."""
    _check_same_dim(a, b)
    return frob(a @ b) / max(1.0, frob(a) * frob(b))


# ---------------------------------------------------------------------------
# spectral decomposition

@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) with an orthonormal eigenbasis in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def jordan_parts(self):
        """(pos, neg, abs) of the decomposed matrix: pos - neg is the
        matrix, pos * neg = 0 and abs = pos + neg."""
        u = self.eigenvectors
        wp = np.maximum(self.eigenvalues, 0.0)
        wn = np.maximum(-self.eigenvalues, 0.0)
        pos = hermitian_matrix((u * wp) @ u.conj().T)
        neg = hermitian_matrix((u * wn) @ u.conj().T)
        return pos, neg, pos + neg


def hermitian_eigendecompose(a, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (LAPACK via numpy.linalg.eigh),
    eigenvalues ascending."""
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

def jordan_decompose(a, tol: Tolerances = DEFAULT_TOL):
    """Unique decomposition a = pos - neg with pos*neg = 0; abs = pos + neg."""
    return hermitian_eigendecompose(a, tol).jordan_parts()


def sqrt_psd(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """PSD square root; eigenvalues in [-slack, slack) are clamped to zero.

    Clamping the whole band (not just the negatives) keeps round-off noise
    from being amplified by the square root near the kernel.
    """
    s = hermitian_eigendecompose(a, tol)
    w = s.eigenvalues
    slack = tol.tol_psd * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if w.size and w[0] < -slack:
        raise NotPositive(f"minimum eigenvalue {w[0]:.3e} below -{slack:.3e}")
    u = s.eigenvectors
    return hermitian_matrix((u * np.sqrt(np.where(w < slack, 0.0, w))) @ u.conj().T)


def abs_general(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """|x| = (x* x)^(1/2) for an arbitrary square complex x."""
    a = complex_matrix(x)
    return sqrt_psd(a.conj().T @ a, tol)


def embed_offdiag(a) -> np.ndarray:
    """The 2n x 2n Hermitian block matrix [[0, a], [a*, 0]]."""
    m = complex_matrix(a)
    n = m.shape[0]
    z = np.zeros((n, n), dtype=complex)
    return np.block([[z, m], [m.conj().T, z]])


# ---------------------------------------------------------------------------
# cone predicates

def psd_defect(a, tol: Tolerances = DEFAULT_TOL) -> float:
    """Relative depth of the most negative eigenvalue (0 for PSD input)."""
    w = np.linalg.eigvalsh(hermitian_matrix(a))
    if w.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(w))))
    return max(0.0, -float(w[0])) / scale


def is_psd(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    return psd_defect(a, tol) <= tol.tol_psd


def loewner_le(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    """a <= b in the Loewner order, i.e. b - a is PSD within slack."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    _check_same_dim(ah, bh)
    return is_psd(bh - ah, tol)


def is_comparable(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    return loewner_le(a, b, tol) or loewner_le(b, a, tol)


# ---------------------------------------------------------------------------
# seeded randomness

def rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic derived generator for (seed, index...) trials."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, indices)])


def random_complex(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = random_complex(n, rng, scale)
    return (g + g.conj().T) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(n, rng))
    d = np.diag(r)
    return q * (d / np.abs(np.where(d == 0, 1.0, d)))


def random_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = random_complex(n, rng, scale)
    return hermitian_matrix(g @ g.conj().T / n)


def random_projection(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    u = random_unitary(n, rng)
    cols = u[:, :rank]
    return hermitian_matrix(cols @ cols.conj().T)


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
    if isinstance(obj, str):
        obj = json.loads(obj)
    n = int(obj["n"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros((n, n))), dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise DimensionMismatch(f"matrix JSON shape mismatch for n={n}")
    return complex_matrix(re + 1j * im)
