"""Random test matrices and Loewner-order oracles that the package itself
does not need."""
import numpy as np

from ortholat.linalg import hermitian_matrix, psd_defect, random_unitary
from ortholat.tolerances import DEFAULT_TOL


def is_psd(a) -> bool:
    """a >= 0 within the default cone slack."""
    return psd_defect(a) <= DEFAULT_TOL.tol_psd


def loewner_le(a, b) -> bool:
    """a <= b in the Loewner order within the default cone slack."""
    return is_psd(np.asarray(b) - np.asarray(a))


def random_projection(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Orthogonal projection onto the span of `rank` columns of a random
    unitary; the rank is drawn from 1..n when not given."""
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    u = random_unitary(n, rng)
    cols = u[:, :rank]
    return hermitian_matrix(cols @ cols.conj().T)


def abs_zero_product(model, x, y):
    """The residual of |x||y| = 0 on the carrier `model`: the zero product
    of the absolute values, face (1) of check_prop2_equivalence."""
    return model.zero_product(model.jordan(x)[2], model.jordan(y)[2])
