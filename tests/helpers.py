"""Random test matrices and Loewner-order oracles that the package itself
does not need. The random matrices are drawn and built one at a time, as
the package once drew them per trial: references for its buffered draws."""
import numpy as np

from ortholat.linalg import (_draw_rows, _unitary, hermitian_from_normals, hermitian_matrix,
                             psd_defect)
from ortholat.tolerances import DEFAULT_TOL


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


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    return _unitary(rng.standard_normal((2, n, n)))


def random_psd(n: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex(n, rng)
    return hermitian_matrix(g @ g.conj().T / n)


def sample(model, rng):
    """One sample of the carrier model, drawn and built alone: a
    random_hermitian matrix or a vector of normals."""
    return random_hermitian(model.n, rng) if model.rank == 2 else rng.standard_normal(model.n)


def draw_rows(rngs, width, draw):
    """The rows of `width` entries that draw(rng, row) fills, one per
    generator of rngs, as the package's chunks draw them."""
    return _draw_rows(rngs, (width, draw))[0]


def interval_samples(model, root, rngs, owners):
    """model.interval_samples of one interval_draw row from each generator."""
    return model.interval_samples(
        root, draw_rows(rngs, model.interval_width, model.interval_draw), owners)


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
