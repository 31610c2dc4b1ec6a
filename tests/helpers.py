"""Random test matrices that the package itself does not need."""
import numpy as np

from ortholat.linalg import hermitian_matrix, random_unitary


def random_projection(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Orthogonal projection onto the span of `rank` columns of a random
    unitary; the rank is drawn from 1..n when not given."""
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    u = random_unitary(n, rng)
    cols = u[:, :rank]
    return hermitian_matrix(cols @ cols.conj().T)
