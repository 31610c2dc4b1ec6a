"""Cyclic complex Jacobi eigensolver: an eigensolver independent of LAPACK,
kept as the reference that the library's eigendecomposition is tested against.
"""
import numpy as np

from ortholat.errors import NoConvergence
from ortholat.linalg import Spectrum, frob, hermitian_matrix

TOL_EIG = 1e-12    # off-diagonal convergence threshold, relative to ||a||_F
MAX_SWEEPS = 100


def _eig2_unitary(app: float, aqq: float, apq: complex) -> np.ndarray:
    """Eigenvector unitary of the 2x2 Hermitian [[app, apq], [conj(apq), aqq]].

    Chooses the numerically stable eigenvector branch; column order is
    irrelevant because eigenvalues are sorted afterwards.
    """
    d = (app - aqq) / 2.0
    r = np.hypot(d, abs(apq))
    # eigenvalue closest to app gives the inner (small-angle) rotation,
    # required for cyclic convergence; lam - app computed cancellation-free
    mag = abs(apq) ** 2 / (r + abs(d)) if r > 0.0 else 0.0
    lam_minus_app = mag if d >= 0.0 else -mag
    v = np.array([apq, lam_minus_app], dtype=complex)
    v /= np.linalg.norm(v)
    w = np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)
    return np.column_stack([v, w])


def _offdiag_frob(a: np.ndarray) -> float:
    # taken directly: sqrt(||a||^2 - ||diag a||^2) cancels to about
    # sqrt(eps) ||a||, far above the convergence threshold
    return frob(a - np.diag(np.diag(a)))


def jacobi_eigendecompose(a, max_sweeps: int = MAX_SWEEPS) -> Spectrum:
    """Cyclic complex Jacobi eigendecomposition of a Hermitian matrix.

    Convergence: off-diagonal Frobenius norm <= TOL_EIG * ||a||_F within
    max_sweeps sweeps, else NoConvergence.
    """
    h = hermitian_matrix(a)
    n = h.shape[0]
    scale = frob(h)
    v = np.eye(n, dtype=complex)
    if scale == 0.0 or n == 1:
        return Spectrum(np.diag(h).real.copy(), v)
    for _ in range(max_sweeps):
        if _offdiag_frob(h) <= TOL_EIG * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(h[p, q]) <= 1e-18 * scale:
                    continue
                g = _eig2_unitary(h[p, p].real, h[q, q].real, h[p, q])
                idx = [p, q]
                h[idx, :] = g.conj().T @ h[idx, :]
                h[:, idx] = h[:, idx] @ g
                v[:, idx] = v[:, idx] @ g
    else:
        raise NoConvergence(
            f"Jacobi sweeps exhausted: off-diagonal {_offdiag_frob(h):.3e} "
            f"> {TOL_EIG * scale:.3e}"
        )
    w = np.diag(h).real.copy()
    order = np.argsort(w, kind="stable")
    return Spectrum(w[order], v[:, order])
