"""Named verification suites behind `ortholat verify`: each runs one of the
library's propositions over seeded random instances and reports pass/fail
with worst residuals.
"""
from __future__ import annotations

import numpy as np

from .axioms import check_axioms, check_theorem7, make_model
from .errors import InternalInconsistency
from .lattice import am_norm_laws, meet, prop6_check, verify_corollary5
from .linalg import (
    hermitian_matrix,
    jordan_decompose,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
    rng_for,
    zero_product_residual,
)
from .orthogonality import (
    abs_infty_orth_sampled,
    alg_orth_general,
    check_prop2_equivalence,
    hereditary_check,
)
from .ortholattice import ortho_inf, ortho_sup, uniqueness_falsify, verify_theorem4
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = ["SUITES", "run_suite", "run_suites"]


def _dim_for(rng, dim: int) -> int:
    return int(rng.integers(2, max(dim, 2) + 1))


def _orthogonal_sa_pair(n, rng):
    """Hermitian pair with |a||b| = 0 by a common-eigenbasis block split."""
    u = random_unitary(n, rng)
    split = int(rng.integers(1, n))
    da = np.zeros(n)
    db = np.zeros(n)
    da[:split] = rng.standard_normal(split)
    db[split:] = rng.standard_normal(n - split)
    a = hermitian_matrix((u * da) @ u.conj().T)
    b = hermitian_matrix((u * db) @ u.conj().T)
    return a, b


def _orthogonal_general_pair(n, rng):
    """Complex pair with ab* = 0 = a*b via disjoint singular supports."""
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    split = int(rng.integers(1, n))
    da = np.zeros(n)
    db = np.zeros(n)
    da[:split] = rng.standard_normal(split)
    db[split:] = rng.standard_normal(n - split)
    a = (u * da) @ v.conj().T
    b = (u * db) @ v.conj().T
    return a, b


def _orthogonal_psd_pair(n, rng):
    a, b = _orthogonal_sa_pair(n, rng)
    return jordan_decompose(a)[2], jordan_decompose(b)[2]


def suite_lemma1(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Hereditarity of algebraic orthogonality on order intervals."""
    pairs = max(1, trials // 10)
    samples = min(trials, 100)
    worst = 0.0
    for i in range(pairs):
        rng = rng_for(seed, 1, i)
        a, b = _orthogonal_psd_pair(_dim_for(rng, dim), rng)
        rep = hereditary_check(a, b, trials=samples, seed=seed + i, tol=tol)
        worst = max(worst, rep.max_violation)
    return {"suite": "lemma1", "pass": worst <= tol.tol_zero,
            "trials": pairs * samples, "max_violation": worst}


def suite_prop2(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Three-way equivalence of self-adjoint orthogonality."""
    worst = 0.0
    disagreements = 0
    for i in range(trials):
        rng = rng_for(seed, 2, i)
        n = _dim_for(rng, dim)
        if i % 2 == 0:
            a, b = _orthogonal_sa_pair(n, rng)
        else:
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        try:
            rep = check_prop2_equivalence(a, b, tol)
        except InternalInconsistency:
            disagreements += 1
            continue
        if rep.holds:
            worst = max(worst, rep.max_violation)
    return {"suite": "prop2", "pass": disagreements == 0, "trials": trials,
            "max_violation": worst, "disagreements": disagreements}


def suite_prop3(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Agreement of the four routes to general algebraic orthogonality."""
    worst = 0.0
    disagreements = 0
    for i in range(trials):
        rng = rng_for(seed, 3, i)
        n = _dim_for(rng, dim)
        if i % 2 == 0:
            a, b = _orthogonal_general_pair(n, rng)
        else:
            a, b = random_complex(n, rng), random_complex(n, rng)
        try:
            rep = alg_orth_general(a, b, tol)
        except InternalInconsistency:
            disagreements += 1
            continue
        if rep.holds:
            worst = max(worst, rep.max_violation)
    return {"suite": "prop3", "pass": disagreements == 0, "trials": trials,
            "max_violation": worst, "disagreements": disagreements}


def suite_theorem4(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Defining properties and uniqueness of ortho-inf/sup."""
    worst = 0.0
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, 4, i)
        n = _dim_for(rng, dim)
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        rep = verify_theorem4(a, b, tol)
        uniq = uniqueness_falsify(a, b, trials=10, seed=seed + i, tol=tol)
        worst = max(worst, rep.max_violation)
        if not (rep.holds and uniq.holds):
            failures += 1
    return {"suite": "theorem4", "pass": failures == 0, "trials": trials,
            "max_violation": worst, "failures": failures}


def suite_corollary5(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Meet/join as unique disjoint-residual bounds in R^n."""
    n = max(2, min(16, 2 * dim))
    failures = 0
    worst = 0.0
    for i in range(trials):
        rng = rng_for(seed, 5, i)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        rep = verify_corollary5(x, y, trials=10, seed=seed + i, tol=tol)
        worst = max(worst, rep.max_violation)
        if not rep.holds:
            failures += 1
    return {"suite": "corollary5", "pass": failures == 0, "trials": trials,
            "max_violation": worst, "failures": failures}


def suite_prop6(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Disjointness equals absolute infinity-orthogonality in the lattice."""
    n = max(2, min(16, 2 * dim))
    failures = 0
    worst = 0.0
    for i in range(trials):
        rng = rng_for(seed, 6, i)
        u = np.abs(rng.standard_normal(n))
        v = np.abs(rng.standard_normal(n))
        if i % 2 == 0:
            split = int(rng.integers(1, n))
            u[split:] = 0.0
            v[:split] = 0.0
        rep = prop6_check(u, v, trials=20, seed=seed + i, tol=tol)
        norms = am_norm_laws(u, v, tol)
        # disjoint pairs carry the sampled norm-identity residual; the
        # overlap witness of the other direction is meant to be large
        worst = max(worst, norms.max_violation,
                    dict(rep.details).get("sampled_deviation", 0.0))
        if not (rep.holds and norms.holds):
            failures += 1
    return {"suite": "prop6", "pass": failures == 0, "trials": trials,
            "max_violation": worst, "failures": failures}


def suite_theorem7(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Order-unit decomposition and block-triple suite on both carriers."""
    per = max(1, trials // 10)
    reports = {}
    for carrier, n in (("matrix-sa", min(dim, 4)), ("coordinate", 2 * dim)):
        model = make_model(carrier, max(2, n), tol)
        reports[carrier] = check_theorem7(model, trials=per, seed=seed, tol=tol)
    worst = max(r.max_violation for r in reports.values())
    ok = all(r.holds for r in reports.values())
    return {"suite": "theorem7", "pass": ok, "trials": 2 * per,
            "max_violation": worst,
            "carriers": {k: v.to_json() for k, v in reports.items()}}


def suite_axioms(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Five-axiom suite on both carriers plus the broken negative control."""
    per = max(1, trials // 2)
    reports = {}
    for carrier, n in (("matrix-sa", min(dim, 4)), ("coordinate", 2 * dim)):
        model = make_model(carrier, max(2, n), tol)
        reports[carrier] = check_axioms(model, trials=per, seed=seed, tol=tol)
    broken = check_axioms(make_model("broken", max(2, dim), tol),
                          trials=min(per, 50), seed=seed, tol=tol)
    ok = all(r.holds for r in reports.values()) and not broken.holds
    worst = max(r.max_violation for r in reports.values())
    return {"suite": "axioms", "pass": ok, "trials": 2 * per,
            "max_violation": worst,
            "carriers": {k: v.to_json() for k, v in reports.items()},
            "negative_control_failed_as_expected": not broken.holds}


def suite_bridge(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Diagonal matrices and coordinate vectors give the same lattice ops."""
    worst = 0.0
    for i in range(trials):
        rng = rng_for(seed, 8, i)
        n = _dim_for(rng, dim)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        c = ortho_inf(np.diag(x).astype(complex), np.diag(y).astype(complex), tol)
        d = ortho_sup(np.diag(x).astype(complex), np.diag(y).astype(complex), tol)
        worst = max(worst, float(np.max(np.abs(np.diag(c).real - meet(x, y)))),
                    float(np.max(np.abs(np.diag(d).real - np.maximum(x, y)))),
                    float(np.max(np.abs(c - np.diag(np.diag(c))))))
    return {"suite": "bridge", "pass": worst <= 1e-12, "trials": trials,
            "max_violation": worst}


def suite_infty_consistency(dim, trials, seed, tol: Tolerances = DEFAULT_TOL):
    """Algebraic orthogonality implies (and its failure falsifies) the
    sampled absolute infinity-orthogonality test."""
    pairs = max(1, trials // 10)
    samples = 40
    worst = 0.0
    missed = 0
    for i in range(pairs):
        rng = rng_for(seed, 9, i)
        n = _dim_for(rng, dim)
        a, b = _orthogonal_psd_pair(n, rng)
        rep = abs_infty_orth_sampled(a, b, trials=samples, seed=seed + i, tol=tol)
        worst = max(worst, rep.max_violation)
        c, d = random_psd(n, rng), random_psd(n, rng)
        if zero_product_residual(c, d) > 0.1:
            # only the verdict is read, and any violation decides it
            rep2 = abs_infty_orth_sampled(c, d, trials=samples, seed=seed + i, tol=tol,
                                          stop_on_violation=True)
            if rep2.holds:
                missed += 1
    return {"suite": "infty", "pass": worst <= tol.tol_eq and missed == 0,
            "trials": pairs * samples, "max_violation": worst, "missed": missed}


SUITES = {
    "lemma1": suite_lemma1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "theorem4": suite_theorem4,
    "corollary5": suite_corollary5,
    "prop6": suite_prop6,
    "theorem7": suite_theorem7,
    "axioms": suite_axioms,
    "bridge": suite_bridge,
    "infty": suite_infty_consistency,
}


def run_suite(name, dim, trials, seed, tol: Tolerances = DEFAULT_TOL) -> dict:
    result = SUITES[name](dim, trials, seed, tol)
    result["seed"] = int(seed)
    return result


def run_suites(names, dim, trials, seed, tol: Tolerances = DEFAULT_TOL) -> list[dict]:
    return [run_suite(name, dim, trials, seed, tol) for name in names]
