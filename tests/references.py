"""The one-trial-at-a-time loops that the stacked checks replaced, kept as
references: check_axioms, check_theorem7, abs_infty_orth_sampled and
hereditary_check must report bit for bit what these loops report. Each loop
draws a trial's random numbers from its own generator in the order the
checks draw them, and computes on one element at a time. Also prop6's
former route to its verdicts, a one-trial sampled check, and the k-grid of
one pair as infty_deviations once built it, pair by pair.

Also the Jordan parts and dominated samples written out for each carrier
alone, against which the models' shared forms over their spectrum are
checked, and the suites' pairs drawn and built one trial at a time, as the
suites once built them."""
import json

import numpy as np

from ortholat.carriers import carrier_operands, sup_norm
from ortholat.errors import NotPositive, PreconditionFailed
from ortholat.linalg import (
    _rebuild,
    hermitian_eigendecompose,
    hermitian_matrix,
    hermitian_norm,
    rng_for,
)
from ortholat.axioms import _THEOREM7_INNER
from ortholat.orthogonality import OrthReport, _sampled_stack
from ortholat.tolerances import DEFAULT_TOL

from helpers import random_hermitian, random_unitary, sample


def same_report(got: OrthReport, want: OrthReport) -> bool:
    """The two reports agree bit for bit (repr-exact floats)."""
    return json.dumps(got.to_json()) == json.dumps(want.to_json())


def worst_of(reports):
    """(worst_ratio, worst_check) of a suite over its reports, folded one
    report at a time: the first NaN ratio, else the first of the largest."""
    worst = (0.0, None)
    for rep in reports:
        if np.isnan(rep.worst_ratio):
            return rep.worst_ratio, rep.worst_check
        if worst[1] is None or rep.worst_ratio > worst[0]:
            worst = (rep.worst_ratio, rep.worst_check)
    return worst


def sqrt_psd_one(a, tol=DEFAULT_TOL):
    """The PSD square root of one matrix, one eigendecomposition at a time:
    what linalg.sqrt_psd, and so MatrixSaModel.interval_root, gives each
    matrix of a stack."""
    s = hermitian_eigendecompose(a)
    w = s.eigenvalues
    slack = tol.tol_psd * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if w.size and w[0] < -slack:
        raise NotPositive(f"minimum eigenvalue {w[0]:.3e} below -{slack:.3e}")
    u = s.eigenvectors
    return hermitian_matrix((u * np.sqrt(np.where(w < slack, 0.0, w))) @ u.conj().T)


def draw_one(root, rng):
    """The one-sample draw of [0, root^2] that the stacked sampler replaced."""
    n = root.shape[0]
    u = random_unitary(n, rng)
    t = rng.uniform(0.0, 1.0, size=n)
    return hermitian_matrix(root @ ((u * t) @ u.conj().T) @ root)


def _interval_drawers(x, y, tol):
    """One-sample draws of [0, x] and [0, y] on the carrier of x."""
    if x.ndim == 1:
        return (lambda rng: rng.uniform(0.0, 1.0, size=len(x)) * x,
                lambda rng: rng.uniform(0.0, 1.0, size=len(y)) * y)
    root_x, root_y = sqrt_psd_one(x, tol), sqrt_psd_one(y, tol)
    return lambda rng: draw_one(root_x, rng), lambda rng: draw_one(root_y, rng)


def kgrid_for_norms(u_norm, v_norm) -> np.ndarray:
    """The k-grid of one pair with norms u_norm and v_norm: a log grid and,
    where ||v|| > 0, the refinement around the crossing point |k| = rho =
    ||u|| / ||v||; sorted, one of each value and one NaN."""
    ks = [0.0, 1.0, -1.0] + [s * 2.0 ** i for i in range(-6, 7) for s in (1.0, -1.0)]
    if v_norm > 0.0:
        rho = u_norm / v_norm
        ks += [s * rho * (1.0 + off) for off in (-0.10, -0.075, -0.05, -0.025, 0.0,
                                                 0.025, 0.05, 0.075, 0.10)
               for s in (1.0, -1.0)]
    return np.unique(np.asarray(ks, dtype=float))


def infty_worst(u, v, norm) -> float:
    """The largest deviation |lhs - rhs| / max(1, rhs) of the one pair
    (u, v) from lhs = ||u + k v|| = max(||u||, |k| ||v||) = rhs over the
    pair's own kgrid_for_norms, NaN if any is NaN. `norm` is the carrier's
    batched norm; the pair's grid is one stack."""
    nu, nv = float(norm(u)), float(norm(v))
    ks = kgrid_for_norms(nu, nv)
    lhs = norm(u + ks.reshape((-1,) + (1,) * u.ndim) * v)
    rhs = np.maximum(nu, np.abs(ks) * nv)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)))


def infty_trial_deviations(a, b, trials, seed, tol=DEFAULT_TOL):
    """The deviation from the infinity-norm identity of each trial of
    abs_infty_orth_sampled, one trial at a time and through all trials:
    trial 0 is (a, b), trial i > 0 a sample pair from rng_for(seed, i)."""
    _, x, y = carrier_operands(a, b, tol)
    draw_x, draw_y = _interval_drawers(x, y, tol)
    norm = hermitian_norm if x.ndim == 2 else sup_norm
    for i in range(trials):
        if i == 0:
            c, d = x, y
        else:
            rng = rng_for(seed, i)
            c, d = draw_x(rng), draw_y(rng)
        yield infty_worst(c, d, norm)


def abs_infty_loop(a, b, trials, seed, tol=DEFAULT_TOL) -> OrthReport:
    """abs_infty_orth_sampled one trial at a time, up to the first
    violation; a NaN deviation is a violation and the worst."""
    model, x, y = carrier_operands(a, b, tol)
    worst, first = 0.0, -1
    for i, dev in enumerate(infty_trial_deviations(x, y, trials, seed, tol)):
        worst = float(np.max([worst, dev]))
        if not dev <= tol.tol_eq:
            first = i
            break
    return OrthReport("abs_infty_orth_sampled",
                      [("exact_alg_orth", model.zero_product(x, y)),
                       ("sampled_deviation", worst),
                       ("first_violation_trial", float(first))],
                      {"sampled_deviation": tol.tol_eq})


def prop6_sampled_worst(model, w):
    """The deviation of each pair (w[i], w[i]) as suite_prop6 once took it:
    from a one-trial sampled check of the endpoints, with dummy seeds."""
    return [dict(rep.details)["sampled_deviation"]
            for rep in _sampled_stack(model, w, w, [0] * len(w), 1)]


def hereditary_loop(a, b, trials, seed, tol=DEFAULT_TOL) -> OrthReport:
    """hereditary_check one sample pair at a time, from rng_for(seed, i), up
    to the first violation; a NaN residual is a violation and the worst."""
    model, x, y = carrier_operands(a, b, tol)
    draw_x, draw_y = _interval_drawers(x, y, tol)
    r = model.zero_product(x, y)
    if not r <= tol.tol_zero:
        raise PreconditionFailed(f"a and b are not algebraically orthogonal (residual {r:.3e})")
    worst = 0.0
    for i in range(trials):
        rng = rng_for(seed, i)
        c, d = draw_x(rng), draw_y(rng)
        worst = float(np.max([worst, model.zero_product(c, d)]))
        if not worst <= tol.tol_zero:
            break
    return OrthReport("hereditary", [("worst_cd", worst)], {"worst_cd": tol.tol_zero})


def _triple(model, rng):
    """One trial's orthogonal triple, drawn and built alone."""
    n = model.n
    n1 = int(rng.integers(1, n))
    if model.rank == 1:
        u, v, w = np.zeros((3, n))
        u[:n1] = np.abs(rng.standard_normal(n1))
        v[n1:] = rng.standard_normal(n - n1)
        w[n1:] = rng.standard_normal(n - n1)
        perm = rng.permutation(n)
        return u[perm], v[perm], w[perm]
    q = random_unitary(n, rng)
    gu = random_hermitian(n1, rng)
    up = np.zeros((n, n), dtype=complex)
    up[:n1, :n1] = hermitian_eigendecompose(gu).jordan_parts()[2]
    v = np.zeros((n, n), dtype=complex)
    w = np.zeros((n, n), dtype=complex)
    v[n1:, n1:] = random_hermitian(n - n1, rng)
    w[n1:, n1:] = random_hermitian(n - n1, rng)
    conj = lambda x: hermitian_matrix(q @ x @ q.conj().T)
    return conj(up), conj(v), conj(w)


def _sample_positive(model, rng):
    if model.rank == 1:
        return np.abs(rng.standard_normal(model.n))
    return hermitian_eigendecompose(random_hermitian(model.n, rng)).jordan_parts()[0]


def _parts(s):
    """(pos, neg, abs) of a matrix spectrum, each part rebuilt inline."""
    u = s.eigenvectors
    wp = np.maximum(s.eigenvalues, 0.0)[..., None, :]
    wn = np.maximum(-s.eigenvalues, 0.0)[..., None, :]
    pos = hermitian_matrix((u * wp) @ u.conj().mT)
    neg = hermitian_matrix((u * wn) @ u.conj().mT)
    return pos, neg, pos + neg


def matrix_jordan(x):
    """MatrixSaModel.jordan of a matrix or a stack, written for matrices."""
    return _parts(hermitian_eigendecompose(x))


def matrix_dominated_sample(v, t):
    """MatrixSaModel.dominated_sample of a matrix or a stack, written for
    matrices."""
    s = hermitian_eigendecompose(v)
    u = s.eigenvectors
    w = hermitian_matrix((u * (t * np.abs(s.eigenvalues))[..., None, :]) @ u.conj().mT)
    return _parts(s)[2], w


def coordinate_jordan(x):
    """CoordinateModel.jordan, written for vectors."""
    return np.maximum(x, 0.0), np.maximum(-x, 0.0), np.abs(x)


def coordinate_dominated_sample(v, t):
    """CoordinateModel.dominated_sample, written for vectors."""
    abs_v = np.abs(v)
    return abs_v, t * abs_v


def _dominated_sample(model, v, rng):
    t = rng.uniform(0.0, 1.0, size=model.n) * rng.choice([-1.0, 1.0], size=model.n)
    return (coordinate_dominated_sample if model.rank == 1 else matrix_dominated_sample)(v, t)[1]


def axioms_loop(model, trials=200, seed=0) -> OrthReport:
    """check_axioms one trial at a time."""
    tol = model.tol
    r1 = r2 = r3 = r4 = r5 = 0.0
    survivors = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        u = sample(model, rng)
        up, un, au = model.jordan(u)
        r1 = max(r1, model.zero_product(au, np.zeros_like(au)))
        ut, vt, wt = _triple(model, rng)
        aut, avt = model.jordan(ut)[2], model.jordan(vt)[2]
        r2 = max(r2, abs(model.zero_product(aut, avt) - model.zero_product(avt, aut)))
        k = float(rng.uniform(-4.0, 4.0))
        r3 = max(r3, model.zero_product(aut, model.jordan(k * vt + wt)[2]))
        r4 = max(r4, model.cone_defect(up), model.cone_defect(un),
                 model.vector_norm(up - un - u) / max(1.0, model.vector_norm(u)),
                 model.zero_product(up, un))
        d = _sample_positive(model, rng)
        scale = max(model.vector_norm(u), 1.0)
        d = d * (rng.uniform(0.05, 0.5) * scale / max(model.vector_norm(d), 1e-300))
        if np.any(d) and model.zero_product(up + d, un + d) <= tol.tol_zero:
            survivors += 1
        w5 = _dominated_sample(model, vt, rng)
        r5 = max(r5, model.zero_product(aut, model.jordan(w5)[2]))
    details = [("ax1_orth_zero", r1), ("ax2_symmetry", r2), ("ax3_linear_closure", r3),
               ("ax4_decomposition", r4), ("ax4_uniqueness_survivors", float(survivors)),
               ("ax5_hereditary", r5)]
    bounds = {"ax1_orth_zero": tol.tol_zero, "ax2_symmetry": tol.tol_zero,
              "ax3_linear_closure": tol.tol_zero, "ax4_decomposition": tol.tol_zero,
              "ax4_uniqueness_survivors": 0.0, "ax5_hereditary": tol.tol_zero}
    return OrthReport("axioms", details, bounds)


def theorem7_loop(model, trials=200, seed=0) -> OrthReport:
    """check_theorem7 one trial at a time."""
    tol = model.tol
    ra_exact = ra_sampled = rb = 0.0
    for i in range(trials):
        rng = rng_for(seed, i)
        u = sample(model, rng)
        up, un, _ = model.jordan(u)
        parts = abs_infty_loop(up, un, _THEOREM7_INNER + 1, int(rng.integers(1 << 62)),
                               tol=tol)
        ra_exact = max(ra_exact, dict(parts.details)["exact_alg_orth"])
        ra_sampled = max(ra_sampled, dict(parts.details)["sampled_deviation"])
        ut, vt, wt = _triple(model, rng)
        aut = model.jordan(ut)[2]
        rb = max(rb, model.zero_product(aut, model.jordan(vt + wt)[2]),
                 model.zero_product(aut, model.jordan(vt - wt)[2]))
    details = [("parts_exact_orth", ra_exact), ("parts_infty_sampled", ra_sampled),
               ("block_triple_abs_orth", rb)]
    bounds = {"parts_exact_orth": tol.tol_zero, "parts_infty_sampled": tol.tol_eq,
              "block_triple_abs_orth": tol.tol_zero}
    return OrthReport("theorem7", details, bounds)


def _split(n, rng):
    """Diagonals (da, db) of normals on complementary blocks of a random split."""
    split = int(rng.integers(1, n))
    da, db = np.zeros((2, n))
    da[:split] = rng.standard_normal(split)
    db[split:] = rng.standard_normal(n - split)
    return da, db


def orthogonal_sa_pair(n, rng):
    """The prop2 suite's Hermitian pair with |a||b| = 0, drawn and built alone."""
    u = random_unitary(n, rng)
    da, db = _split(n, rng)
    return _rebuild(u, da), _rebuild(u, db)


def orthogonal_general_pair(n, rng):
    """The prop3 suite's complex pair with ab* = 0 = a*b, drawn and built alone."""
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    da, db = _split(n, rng)
    return (u * da) @ v.conj().T, (u * db) @ v.conj().T


def orthogonal_psd_pair(n, rng):
    """|a| and |b| of orthogonal_sa_pair(n, rng): the lemma1 and infty suites'
    orthogonal pair, drawn and built alone."""
    a, b = orthogonal_sa_pair(n, rng)
    return (hermitian_eigendecompose(a).jordan_parts()[2],
            hermitian_eigendecompose(b).jordan_parts()[2])
