"""Dense complex matrix substrate: Hermitian spectral decomposition, Jordan
decomposition and square roots, norms, Loewner-order predicates, and JSON I/O.

All operations are pure functions of ndarrays; matrices are square complex
arrays and Hermitian inputs are symmetrized at the boundary. The validators,
the norms and residuals, the Jordan parts, `abs_general`, `embed_offdiag` and
`psd_defect` also take stacks of matrices along leading axes, on one path
for one matrix and a stack: each matrix of a stack, in any memory layout,
gets bit for bit what it gets alone, and one matrix gives a numpy float.
"""
from __future__ import annotations

import functools
import json
import numbers
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
    """Python's max(first, *rest), elementwise over floats and arrays: a later
    value replaces the running one only where it is larger, so a NaN after the
    first value is passed over and of two equal zeros the first is kept."""
    for r in rest:
        first = np.where(r > first, r, first)
    return first


def _unit_floor(*scales):
    """The scale a residual is relative to: the largest of 1.0 and `scales`
    (floats or arrays), a NaN passed over as by _pymax. Every residual takes
    its scale from here, so below unit scale each is absolute, not relative."""
    return _pymax(1.0, *scales)


def _worst(*residuals) -> float:
    """The largest of scalar and array residuals, 0.0 of none: NaN if any is
    NaN, so that a check with a NaN residual passes no bound."""
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals]), initial=0.0))


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
    leading axes, bit for bit as numpy's norm sums it on any layout: real
    parts before imaginary parts, in ravel(order="K") order (the axis of the
    smaller stride magnitude fastest, a reversed axis read as indexed)."""
    x = np.asarray(x)
    if abs(x.strides[-2]) < abs(x.strides[-1]):   # column-major matrices
        x = x.mT
    flat = np.ascontiguousarray(x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)))
    if np.iscomplexobj(flat):
        re, im = flat.real, flat.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(flat, flat))


def rel_diff(x: np.ndarray, y: np.ndarray):
    """Relative Frobenius distance ||X-Y|| / max(1, ||X||, ||Y||), of two
    matrices or of each pair of two stacks."""
    return frob(x - y) / _unit_floor(frob(x), frob(y))


def zero_product_residual(a: np.ndarray, b: np.ndarray):
    """||ab|| / max(1, ||a||*||b||), the toleranced 'ab = 0' residual, of
    two matrices or of each pair of two stacks of one shape."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")
    return frob(a @ b) / _unit_floor(frob(a) * frob(b))


def zero_product_exceeds(x, y, bound):
    """True where zero_product_residual(x, y), of two matrices or each pair
    of two stacks, as computed surely exceeds bound, from two mat-vecs:
    ||x(y1)|| / sqrt(n) <= ||xy||_F for 1 the ones vector. The probe p and
    fl(xy) are within 3 gamma_{n+2} |x||y| of exact (Higham, Accuracy and
    Stability, 3.5-3.6), so with S = ||x||_F ||y||_F and u = 2**-53,
    ||fl(xy)||_F >= ||p|| / sqrt(n) - 8 (n + 2) u S - n 2**-500 (that term for
    underflow, in frob's squares too). It must exceed 2 bound max(1, S), the
    2 for the relative rounding of norms and quotient, and ||p|| + 2 S must
    be finite (else fl(xy) may hold inf - inf)."""
    n = x.shape[-1]
    norm, scale = frob(x @ y.sum(-1)[..., None]), frob(x) * frob(y)   # ||p||, S
    lower = norm / np.sqrt(n) - (8 * (n + 2) * 2.0 ** -53) * scale - n * 2.0 ** -500
    return ((lower > 2.0 * bound * _unit_floor(scale)) & np.isfinite(norm + 2.0 * scale))[()]


# ---------------------------------------------------------------------------
# spectral decomposition

@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) with an orthonormal eigenbasis in columns, of
    a matrix or each of a stack; of a vector, its entries on the axes (None)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def jordan_parts(self):
        """(pos, neg, abs) of the decomposed element: pos - neg is the
        element, pos * neg = 0 and abs = pos + neg."""
        pos = _rebuild(self.eigenvectors, np.maximum(self.eigenvalues, 0.0))
        neg = _rebuild(self.eigenvectors, np.maximum(-self.eigenvalues, 0.0))
        return pos, neg, pos + neg


def _rebuild(u, values):
    """u diag(values) u*, symmetrized, for an eigenbasis u in columns (or
    each of a stack); on the coordinate axes (u None) the values themselves."""
    return values if u is None else hermitian_matrix((u * values[..., None, :]) @ u.conj().mT)


def hermitian_eigendecompose(a) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (LAPACK via numpy.linalg.eigh), eigenvalues ascending."""
    h = hermitian_matrix(a)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc
    return Spectrum(w, u)


def _eigenvalues(h) -> np.ndarray:
    """The eigenvalues, ascending, of a Hermitian matrix or of each matrix of
    a stack: the package's one decomposition without eigenvectors (LAPACK
    via numpy.linalg.eigvalsh, which reads the lower triangle)."""
    return np.linalg.eigvalsh(h)


def hermitian_norm(x):
    """Operator norm max |eigenvalue| of a Hermitian matrix, or of each matrix
    of a stack, from eigenvalues only; NaN, undecomposed, if an entry is not finite."""
    finite = np.isfinite(x).all((-2, -1))
    norms = np.abs(_eigenvalues(np.where(finite[..., None, None], x, 0.0)))
    return np.where(finite, norms.max(-1, initial=0.0), np.nan)[()]


# ---------------------------------------------------------------------------
# functional-calculus derived operations

def sqrt_psd(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """PSD square root, of a matrix or of each matrix of a stack; eigenvalues
    in [-slack, slack) are clamped to zero, and NotPositive names the lowest
    eigenvalue of the first matrix below -slack.

    Clamping the whole band (not just the negatives) keeps round-off noise
    from being amplified by the square root near the kernel.
    """
    s = hermitian_eigendecompose(a)
    w = s.eigenvalues
    slack = tol.tol_psd * _unit_floor(np.abs(w).max(-1, initial=0.0))
    lowest = w.min(-1, initial=np.inf)
    below = np.flatnonzero(lowest < -slack)
    if below.size:
        first = below[0]
        raise NotPositive(f"minimum eigenvalue {lowest.flat[first]:.3e} "
                          f"below -{np.ravel(slack)[first]:.3e}")
    return _rebuild(s.eigenvectors, np.sqrt(np.where(w < np.expand_dims(slack, -1), 0.0, w)))


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
    return _cone_defect(_eigenvalues(hermitian_matrix(a)))


def _cone_defect(values):
    """The cone defect of both carriers, from an element's spectral values
    (eigenvalues or coordinates) along the last axis: the depth of the
    lowest below 0 relative to the largest magnitude."""
    lowest = values.min(-1, initial=0.0)
    return (_pymax(0.0, -lowest) / _unit_floor(np.abs(values).max(-1, initial=0.0)))[()]


# ---------------------------------------------------------------------------
# seeded randomness
#
# The generator of a key [seed mod 2**64, *indices] is numpy's
# default_rng(key): PCG64 seeded with four 64-bit words that SeedSequence
# hashes from the key's 32-bit words (NEP 19). _seed_words hashes the keys
# of many trials in one numpy pass, key by key the same arithmetic, and
# _generator hands a generator its words through SeedWords, so a trial draws
# bit for bit what default_rng(key) draws without a SeedSequence of its own.

_SEED_MASK = (1 << 64) - 1
_MULT_A = 0x931E8875   # SeedSequence's entropy-mix multiplier
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, count: int) -> list:
    """init * mult**t mod 2**32 for t < count: SeedSequence's hash constants."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return out


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# The entropy mix takes its constants in a fixed order: four for the pool's
# first words, then three for each pool word mixed into the other three, then
# four for each entropy word beyond the pool. Each hashmix XORs the value with
# one constant and multiplies it by the next.
_HASH_A = _powers(0x43B0D7E5, _MULT_A, 17)
_FIRST = _column(_HASH_A[:4]), _column(_HASH_A[1:5])


def _cross_constants(src: int):
    """The (XOR, multiply) constants with which pool word src is hashed for
    each other pool word, in that word's row: the mix takes them in order of
    the other word. Its own row holds 0, and the word is put back after."""
    xor, mul = [0] * 4, [0] * 4
    for k, dst in enumerate(d for d in range(4) if d != src):
        xor[dst], mul[dst] = _HASH_A[4 + 3 * src + k], _HASH_A[5 + 3 * src + k]
    return _column(xor), _column(mul)


_CROSS = [_cross_constants(src) for src in range(4)]
_GENERATE = _powers(0x8B51F9DD, 0x58F38DED, 9)   # generate_state's constants
_STATE = (np.array(_GENERATE[:8], dtype=np.uint32),
          np.array(_GENERATE[1:], dtype=np.uint32))


def _hashmix(v, xor, mul):
    v = v ^ xor
    v *= mul
    v ^= v >> _SHIFT
    return v


def _mix(x, y):
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> _SHIFT
    return x


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) of each column of
    `entropy`, a (length, keys) array of 32-bit words, as rows of a C-ordered
    (keys, 4) array."""
    length, keys = entropy.shape
    pool = np.zeros((4, keys), dtype=np.uint32)
    pool[:min(length, 4)] = entropy[:4]
    pool = _hashmix(pool, *_FIRST)
    for src, consts in enumerate(_CROSS):   # each pool word into the others
        mixed = _mix(pool, _hashmix(pool[src], *consts))
        mixed[src] = pool[src]
        pool = mixed
    if length > 4:   # each entropy word beyond the pool into every pool word
        extra = _column(_powers(_HASH_A[-1], _MULT_A, 4 * (length - 4) + 1))
        for src in range(4, length):
            t = 4 * (src - 4)
            pool = _mix(pool, _hashmix(entropy[src], extra[t:t + 4], extra[t + 1:t + 5]))
    state = _hashmix(np.concatenate((pool.T, pool.T), axis=1), *_STATE).astype(np.uint64)
    words = state[:, 1::2] << np.uint64(32)   # little-endian pairs of 32-bit words
    words |= state[:, 0::2]
    return np.ascontiguousarray(words)   # PCG64 reads each row's memory


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """The PCG64 seed words of each key, a column of `keys` (uint64, shape
    (width, keys)). A value takes one 32-bit word below 2**32 and two from
    there on, so keys are hashed in groups of one word pattern."""
    wide = keys >> np.uint64(32) != 0
    if not wide.any():
        return _pcg64_words(keys.astype(np.uint32))
    pattern = (1 << np.arange(len(keys))) @ wide
    words = np.empty((keys.shape[1], 4), dtype=np.uint64)
    for p in set(pattern.tolist()):
        rows = pattern == p
        parts = []
        for j, column in enumerate(keys[:, rows]):
            parts.append(column)   # its low word, by the cast below
            if p >> j & 1:
                parts.append(column >> np.uint64(32))
        words[rows] = _pcg64_words(np.array(parts).astype(np.uint32))
    return words


@functools.cache
def _seed_words_type():
    """The one ISeedSequence that hands PCG64 precomputed seed words;
    defined on first use, so that importing this module does not import
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise NotImplementedError("SeedWords holds PCG64's four uint64 words only")
            return self.words

    return SeedWords


def _generator(words) -> np.random.Generator:
    """The generator whose PCG64 takes `words`, one key's row of
    _seed_words: bit for bit default_rng(key), without a SeedSequence."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic derived generator for (seed, index...) trials:
    np.random.default_rng([seed mod 2**64, *indices]) (a negative index
    raises ValueError, as there)."""
    return np.random.default_rng([int(seed) & _SEED_MASK, *indices])


def random_complex(n: int, rng: np.random.Generator) -> np.ndarray:
    """A complex n x n matrix of standard normal real and then imaginary
    parts."""
    parts = rng.standard_normal((2, n, n))
    z = np.empty((n, n), dtype=complex)
    z.real = parts[0]
    z.imag = parts[1]
    return z


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    return hermitian_from_normals(rng.standard_normal((2, n, n)))


def hermitian_from_normals(g) -> np.ndarray:
    """hermitian_matrix(x + iy) bit for bit, of g = (x, y) of shape (2, n, n)
    or each of a stack, overwriting g: halved as complex division halves, to
    (x + 0y, y - 0x)/2, then Re = x.T + x and Im = y - y.T, in IEEE -y.T + y."""
    if not g.all():   # only a zero entry tells (x + 0y, y - 0x) from (x, y)
        g += g[..., ::-1, :, :] * np.array([[[0.0]], [[-0.0]]])
    g *= 0.5
    x, y = g[..., 0, :, :], g[..., 1, :, :]
    h = np.empty(x.shape, dtype=complex)
    np.add(x.mT, x, out=h.real)
    np.subtract(y, y.mT, out=h.imag)
    return h


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    return _unitary(random_complex(n, rng))


def _unitary(g) -> np.ndarray:
    """The Haar-distributed unitary Q of g = QR with the phases of R's
    diagonal moved into Q, of a complex matrix of normals or of each matrix
    of a stack (one stacked qr)."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(np.where(d == 0, 1.0, d)))[..., None, :]


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
    to zero); ValueError on a non-object, a missing "n" or "re", an n that
    is not an integer or a field of the wrong type or with a non-numeric
    entry, DimensionMismatch unless both parts are n x n (rows of unequal
    length included)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"n is {n!r}, not an integer")
        re = _float_part(obj["re"], "re", n)
        im = _float_part(obj["im"], "im", n) if "im" in obj else np.zeros_like(re)
    except (KeyError, TypeError) as exc:
        reason = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f'matrix JSON must be an object with numeric "n", "re" '
                         f'and "im" ({reason})') from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise DimensionMismatch(f"matrix JSON shape mismatch for n={n}")
    return complex_matrix(re + 1j * im)


def _float_part(value, name, n):
    """The "re" or "im" field `name` as floats; TypeError for a value that
    is not a list (a JSON number, string, boolean or null), naming the
    field, and for n x n entries that are not all numbers in the float range
    (a string, boolean, list or object is named); objects for ragged rows."""
    if not isinstance(value, list):
        raise TypeError(f"{name} is {value!r}, not a list")
    try:
        part, error = np.asarray(value, dtype=float), None
    except (ValueError, OverflowError, TypeError) as exc:
        part, error = np.asarray(value, dtype=object), exc
    if part.shape == (n, n):
        for entry in np.asarray(value, dtype=object).flat:
            if not isinstance(entry, numbers.Real) or isinstance(entry, bool):
                raise TypeError(f"entry {entry!r} is not a number")
        if error is not None:   # numbers beyond the float range
            raise TypeError(error) from None
    return part
