"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import subprocess
import sys

import numpy as np

from ortholat.axioms import check_axioms, check_theorem7
from ortholat.carriers import BrokenOrthModel, CoordinateModel, MatrixSaModel
from ortholat.linalg import (
    frob,
    hermitian_eigendecompose,
    rel_diff,
    rng_for,
)
from ortholat.orthogonality import abs_infty_orth_sampled
from ortholat.ortholattice import (
    kadison_witness_search,
    ortho_inf_sup,
    verify_theorem4,
)
from ortholat.suites import (
    suite_prop2,
    suite_prop3,
    suite_theorem4,
)
from ortholat.tolerances import DEFAULT_TOL

from helpers import random_psd
from references import orthogonal_psd_pair
from test_ortholattice import (
    INF_FIX,
    S_FIX,
    T_FIX,
    grid_search_witness_oracle,
)


def report(num, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_functional_calculus():
    worst = 0.0
    for i in range(1000):
        rng = rng_for(1001, i)
        n = int(rng.integers(2, 9))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (a + a.conj().T) / 2
        pos, neg, absval = hermitian_eigendecompose(a).jordan_parts()
        r_orth = frob(pos @ neg) / max(1.0, frob(a) ** 2)
        r_diff = rel_diff(pos - neg, a)
        r_abs = rel_diff(pos + neg, absval)
        worst = max(worst, r_orth, r_diff, r_abs)
    report(1, worst <= 1e-9, f"1000 Jordan decompositions, worst residual {worst:.2e}")


def test_criterion_2_prop2_agreement():
    res = suite_prop2(6, 1000, 2002, DEFAULT_TOL)
    report(2, res["disagreements"] == 0,
           f"1000 pairs, {res['disagreements']} verdict disagreements")


def test_criterion_3_prop3_agreement():
    res = suite_prop3(6, 1000, 3003, DEFAULT_TOL)
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    e13 = np.zeros((3, 3), dtype=complex)
    e13[0, 2] = 1.0
    e23 = np.zeros((3, 3), dtype=complex)
    e23[1, 2] = 1.0
    fixture_ok = np.array_equal(e12 @ e13.conj().T, np.zeros((3, 3))) and \
        np.array_equal(e12.conj().T @ e13, e23)
    report(3, res["disagreements"] == 0 and fixture_ok,
           f"1000 pairs, {res['disagreements']} disagreements; "
           f"asymmetric fixture exact: {fixture_ok}")


def test_criterion_4_theorem4_suite():
    res = suite_theorem4(8, 1000, 4004, DEFAULT_TOL)
    report(4, res["failures"] == 0,
           f"1000 pairs, {res['failures']} failures, worst ratio {res['worst_ratio']:.2e} "
           f"({res['worst_check']})")


def test_criterion_5_closed_form_fixture():
    dev = float(np.max(np.abs(ortho_inf_sup(S_FIX, T_FIX)[0] - INF_FIX)))
    report(5, dev <= 1e-9, f"entrywise deviation {dev:.2e}")


def test_criterion_6_kadison_witness():
    res = kadison_witness_search(S_FIX, T_FIX)
    oracle = grid_search_witness_oracle(S_FIX, T_FIX, ortho_inf_sup(S_FIX, T_FIX)[0])
    report(6, res.found and res.margin >= 1e-3 and oracle,
           f"witness margin {res.margin:.4f}, grid oracle found witness: {oracle}")


def test_criterion_7_alg_equals_abs_infty():
    # orthogonal side: no violation in 100 pairs x 200 samples
    worst = 0.0
    for i in range(100):
        rng = rng_for(7007, i)
        n = int(rng.integers(2, 7))
        a, b = orthogonal_psd_pair(n, rng)
        rep = abs_infty_orth_sampled(a, b, trials=200, seed=7100 + i)
        worst = max(worst, dict(rep.details)["sampled_deviation"])
    ortho_ok = worst <= DEFAULT_TOL.tol_eq

    # converse side: strongly overlapping pairs are falsified quickly
    found = 0
    total = 0
    i = 0
    while total < 100:
        rng = rng_for(7008, i)
        i += 1
        n = int(rng.integers(2, 7))
        c, d = random_psd(n, rng), random_psd(n, rng)
        if frob(c @ d) <= 0.1 * frob(c) * frob(d):
            continue
        total += 1
        rep = abs_infty_orth_sampled(c, d, trials=500, seed=7200 + i)
        if not rep.holds:
            found += 1
    report(7, ortho_ok and found >= 95,
           f"orthogonal worst deviation {worst:.2e}; "
           f"violations found in {found}/100 overlapping pairs")


def test_criterion_8_lattice_model():
    # Corollary 5 and Prop 6 are Theorem 4 and the sampled check on R^n
    worst_bridge = 0.0
    failures = 0
    for i in range(500):
        rng = rng_for(8008, i)
        n = int(rng.integers(2, 17))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        # holds covers both halves of Theorem 4: no uniqueness survivors
        if not verify_theorem4(x, y, trials=10, seed=8100 + i).holds:
            failures += 1
        u, v = np.abs(rng.standard_normal(n)), np.abs(rng.standard_normal(n))
        if i % 2 == 0:
            split = int(rng.integers(1, n))
            u[split:] = 0.0
            v[:split] = 0.0
            ok = abs_infty_orth_sampled(u, v, trials=10, seed=8200 + i).holds
        else:
            w = ortho_inf_sup(u, v)[0]
            ok = not abs_infty_orth_sampled(w, w, trials=1).holds
        if not ok:
            failures += 1
        c, d = ortho_inf_sup(np.diag(x).astype(complex), np.diag(y).astype(complex))
        worst_bridge = max(
            worst_bridge,
            float(np.max(np.abs(np.diag(c).real - np.minimum(x, y)))),
            float(np.max(np.abs(np.diag(d).real - np.maximum(x, y)))))
    report(8, failures == 0 and worst_bridge <= 1e-12,
           f"500 instances, {failures} failures, bridge deviation {worst_bridge:.2e}")


def test_criterion_9_axioms_theorem7():
    ok = True
    parts = []
    for model in (MatrixSaModel(4), CoordinateModel(8)):
        ax = check_axioms(model, trials=500, seed=9009)
        t7 = check_theorem7(model, trials=500, seed=9010)
        ok = ok and ax.holds and t7.holds
        parts.append(f"{model.carrier}: axioms={ax.holds}, theorem7={t7.holds}")
    broken = check_axioms(BrokenOrthModel(4), trials=50, seed=9011)
    neg_ok = not broken.holds and dict(broken.details)["ax4_uniqueness_survivors"] > 0
    ok = ok and neg_ok
    parts.append(f"negative control failed as expected: {neg_ok}")
    report(9, ok, "; ".join(parts))


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ortholat.cli", "verify", "--suite", "all",
             "--dim", "3", "--trials", "20", "--seed", "42", "--out", str(out)],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    all_pass = json.loads(outs[0])["all_pass"]
    report(10, identical and all_pass,
           f"byte-identical reports: {identical}, all suites pass: {all_pass}")
