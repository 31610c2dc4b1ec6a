"""Tests of the benchmark itself: the tracer's wrappers, the traced run's
effect on reports and counts, and the report checks.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from workloads import WORKLOADS, VerifyWorkload, WitnessWorkload, reference_inf

sys.path.insert(0, str(run.SRC))

SMALL_VERIFY = ["verify", "--suite", "all", "--dim", "3", "--trials", "20", "--seed", "7"]


def _bindings(modules):
    """Every (owner, key) -> object binding that install() may rebind."""
    seen = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            seen[(id(mod), attr)] = value
            if isinstance(value, dict):
                for key, entry in value.items():
                    seen[(id(value), key)] = entry
            if isinstance(value, type):
                for meth, raw in vars(value).items():
                    seen[(id(value), meth)] = raw
    for attr in ("eigh", "eigvalsh"):
        seen[(id(np.linalg), attr)] = vars(np.linalg)[attr]
    return seen


def test_install_and_restore_leave_every_name_identical():
    modules = tracing.package_modules()
    before = _bindings(modules)
    patches = tracing.install(tracing.Tracer())
    try:
        assert len(patches.records) > 100
        for owner, key, original, is_dict in patches.records:
            current = owner[key] if is_dict else vars(owner)[key]
            assert current is not original
        import ortholat.suites
        assert ortholat.suites.SUITES["theorem4"].__wrapped__ is \
            before[(id(ortholat.suites.SUITES), "theorem4")]
    finally:
        patches.restore()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_leaf_calls_aggregate_on_parent_span_and_self_time_excludes_them():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def observe(tracer, fn, args, kwargs, result):
        tracer.clock()   # the observer's cost is leaf time

    def outer():
        tracer.call(tracer.clock(), "numpy.linalg.eigh", leaf, (), {}, observe)
        return tracer.call(tracer.clock(), "inner", lambda: None, (), {})

    tracer.call(tracer.clock(), "outer", outer, (), {})
    tracer.close_root()
    tables = tracer.tables()
    # clock: root 0; outer 1..7; leaf 2..4 (observer 3); inner 5..6
    assert tables["spans"]["outer"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0,
                                        "eig_calls": 1}
    assert tables["spans"]["inner"]["self_s"] == 1.0
    assert tables["leaves"]["numpy.linalg.eigh"] == {"calls": 1, "total_s": 2.0}
    assert tracer.parents == [-1, 0, 1]


def _traced_pair(tmp_path, argv):
    plain = run.invoke(argv, tmp_path)
    trace_path = tmp_path / "trace.json"
    traced = run.invoke(argv, tmp_path, trace_path)
    return plain, traced, json.loads(trace_path.read_text())


def test_traced_run_gives_the_same_report_bytes(tmp_path):
    plain, traced, trace = _traced_pair(tmp_path, SMALL_VERIFY)
    assert plain.code == traced.code == 0
    assert traced.stdout == plain.stdout
    assert set(trace["metrics"]) | {"trace.overhead_s"} == set(run.PER_LAYER)

    witness = WitnessWorkload(8, restarts=2, iters=200)
    inputs = witness.prepare(3, 0, tmp_path)
    plain, traced, _ = _traced_pair(tmp_path, inputs.argv)
    assert traced.stdout == plain.stdout
    assert witness.check(inputs, traced.code, traced.stdout).failed == 0


def test_counts_repeat_between_traced_runs(tmp_path):
    first = _traced_pair(tmp_path, SMALL_VERIFY)[2]["metrics"]
    second = _traced_pair(tmp_path, SMALL_VERIFY)[2]["metrics"]
    counts = [name for name, unit in run.PER_LAYER.items()
              if unit != "s" and name in first]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_eigen_calls_per_theorem4_trial(tmp_path):
    # verify_theorem4 makes 6 decompositions, uniqueness_falsify 21
    argv = ["verify", "--suite", "theorem4", "--dim", "4", "--trials", "20", "--seed", "1"]
    metrics = _traced_pair(tmp_path, argv)[2]["metrics"]
    assert metrics["linalg.eigh_calls"] == 27 * 20
    assert metrics["ortholattice.verify_theorem4.eig_calls_per_call"] == 6


def _report(**changes):
    report = {"command": "verify", "seed": 5, "dim": 4, "trials": 500, "all_pass": True,
              "suites": [{"suite": "theorem4", "pass": True}]}
    report.update(changes)
    return json.dumps(report).encode()


def test_verify_check_counts_failures():
    workload = VerifyWorkload("theorem4", 4, 500)
    inputs = workload.prepare(5, 0, Path("."))
    assert workload.check(inputs, 0, _report()).failed == 0
    assert workload.check(inputs, 1, _report()).failed == 1
    assert workload.check(inputs, 0, b"{not json").failed == 1
    assert workload.check(inputs, 0, _report(seed=6)).failed == 1
    assert workload.check(inputs, 0, _report(
        suites=[{"suite": "theorem4", "pass": False}])).failed == 1

    every = VerifyWorkload("all", 4, 500)
    outcome = every.check(every.prepare(5, 0, Path(".")), 0, _report())
    assert (outcome.attempted, outcome.failed) == (10, 9)


def test_witness_check_rechecks_the_claim(tmp_path):
    workload = WitnessWorkload(8, restarts=16, iters=2000)
    inputs = workload.prepare(11, 0, tmp_path)
    s, t = inputs.data["S"], inputs.data["T"]
    c = reference_inf(s, t)

    def report(m):
        gap = -float(np.linalg.eigvalsh(c - m)[0])
        return json.dumps({"found": True, "margin": gap,
                           "m": {"n": 8, "re": m.real.tolist(), "im": m.imag.tolist()}}
                          ).encode()

    # inf(S, T) is a common lower bound, but not one that escapes it
    assert workload.check(inputs, 0, report(c)).failed == 1
    above_s = s + np.eye(8)
    assert workload.check(inputs, 0, report(above_s)).failed == 1
    assert workload.check(inputs, 0, b"").failed == 1


def test_inputs_come_from_seed_and_index_alone(tmp_path):
    workload = WORKLOADS["witness-d8"]
    a = workload.prepare(4, 1, tmp_path)
    b = workload.prepare(4, 1, tmp_path)
    assert a.digest == b.digest
    assert len({a.digest, workload.prepare(5, 1, tmp_path).digest,
                workload.prepare(4, 0, tmp_path).digest}) == 3
    w = np.linalg.eigvalsh(a.data["T"] - a.data["S"])
    assert w[0] < 0 < w[-1]


def test_benchmark_json_lists_the_metrics_the_script_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "witness-d8", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__]))
