"""The spin factor R + R^m inside the Hermitian 2^k x 2^k matrices: an
oracle whose every answer is known in closed form, at any scale, without an
eigensolver.

With m = 2k + 1 anticommuting Hermitian unitaries G_1, ..., G_m (Jordan-
Wigner strings of Pauli matrices), the element p = (t, x) of R + R^m is
the matrix t I + sum x_i G_i. It has the two eigenvalues t +/- ||x||, each
of multiplicity 2^(k-1), with spectral projections (I +/- sum (x_i/||x||)
G_i)/2. So |a - b|, the ortho-infimum and ortho-supremum are elements of
the family, computed on m + 1 numbers; p <= q iff q - p lies in the
Lorentz cone; and the witness margin of a non-comparable pair is lam/3
(see kadison_witness_search). For k >= 2 every spectrum is degenerate.
"""
import functools

import numpy as np
from hypothesis import Phase, settings, strategies as st

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))

# fixed examples, no shrinking: a failing example ends the run at once
derandomized = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                        phases=(Phase.explicit, Phase.generate))


@functools.cache
def gammas(k: int) -> np.ndarray:
    """G_1, ..., G_{2k+1}, anticommuting Hermitian unitaries of size 2^k:
    the Kronecker products Z...Z X I...I and Z...Z Y I...I with j factors
    Z, for j < k, then Z...Z with k factors."""
    x, y, z = _PAULI
    string = lambda *factors: functools.reduce(np.kron, factors, np.eye(1))
    out = []
    for j in range(k):
        rest = [np.eye(2)] * (k - j - 1)
        out += [string(*[z] * j, x, *rest), string(*[z] * j, y, *rest)]
    out.append(string(*[z] * k))
    return np.array(out)


def matrix(p) -> np.ndarray:
    """t I + sum x_i G_i for p = (t, x) with 2k + 1 entries x. On dyadic
    entries every sum is exact: two strings share an entry only when they
    flip the same qubit."""
    k = (len(p) - 2) // 2
    return p[0] * np.eye(2 ** k) + np.tensordot(p[1:], gammas(k), 1)


def norm(p) -> float:
    """The operator norm max |t +/- ||x|||."""
    return abs(p[0]) + np.linalg.norm(p[1:])


def absolute(p) -> np.ndarray:
    """|p|: the eigenvalues t +/- ||x|| replaced by their magnitudes."""
    t, x = p[0], p[1:]
    r = np.linalg.norm(x)
    hi, lo = abs(t + r), abs(t - r)
    axis = x / r if r > 0 else np.zeros_like(x)
    return np.concatenate(([(hi + lo) / 2], (hi - lo) / 2 * axis))


def inf_sup(p, q):
    """((p + q - |p - q|)/2, (p + q + |p - q|)/2) in the family."""
    s = absolute(p - q)
    return (p + q - s) / 2, (p + q + s) / 2


def comparable(p, q) -> bool:
    """p <= q or q <= p: the difference lies in the Lorentz cone, on one
    side or the other."""
    d = q - p
    return abs(d[0]) >= np.linalg.norm(d[1:])


def witness_lambda(p, q) -> float:
    """lam = min(lambda_max, -lambda_min) of p - q = (u, z): min(u + ||z||,
    ||z|| - u), positive iff the pair is not comparable."""
    u, r = p[0] - q[0], np.linalg.norm(p[1:] - q[1:])
    return min(u + r, r - u)


# dyadic coordinates in [-1, 1], so that a pair's matrices are exact
_COORD = st.integers(-2 ** 20, 2 ** 20).map(lambda v: v / 2 ** 20)


@st.composite
def _pair(draw, exponents):
    """(p, q, scale): k in 1..6 (n = 2 ... 64), two elements of R + R^(2k+1)
    and a scale 2^e with e drawn from `exponents`. One pair in three is
    comparable: q = p + (s, y) with s >= ||y||_1 >= ||y||, on the cone's
    boundary when y has one entry and s = ||y||. One in three lies just
    outside it: q = p + (+/-(1 - 2^-20) |y|, y e_j), so lam = 2^-20 |y|,
    with |y| >= 1/2."""
    k = draw(st.integers(1, 6))
    coords = st.lists(_COORD, min_size=2 * k + 2, max_size=2 * k + 2).map(np.array)
    p, q = draw(coords), draw(coords)
    kind = draw(st.integers(0, 2))
    if kind == 1:
        q = p + np.concatenate(([np.abs(q[1:]).sum() + abs(q[0])], q[1:]))
    elif kind == 2:
        y = draw(st.integers(2 ** 19, 2 ** 20)) / 2 ** 20 * draw(st.sampled_from([1.0, -1.0]))
        d = np.zeros_like(p)
        d[0] = draw(st.sampled_from([1.0, -1.0])) * (1.0 - 2.0 ** -20) * abs(y)
        d[1 + draw(st.integers(0, 2 * k))] = y
        q = p + d
    return p, q, 2.0 ** draw(exponents)


def spin_pairs(lo: int = -30, hi: int = 30):
    """The strategy of pairs (p, q, scale) at scales 2^e, lo <= e <= hi."""
    return _pair(st.integers(lo, hi))
