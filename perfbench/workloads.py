"""The benchmark's workloads: inputs made from the seed alone, the CLI
arguments that run them, and the checks of each report.

Why each workload exists is recorded in README.md beside this file.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SUITE_NAMES = ("lemma1", "prop2", "prop3", "theorem4", "corollary5", "prop6",
               "theorem7", "axioms", "bridge", "infty")
SEED_STRIDE = 1_000_003


def instance_seed(seed: int, index: int) -> int:
    """The CLI seed of the `index`-th instance of a run; instance 0 uses the
    benchmark seed itself."""
    return seed + index * SEED_STRIDE


@dataclass(frozen=True)
class Inputs:
    seed: int            # the seed the CLI receives
    argv: list
    digest: str          # sha256 of everything the program receives
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    witness_margin: float | None = None


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _all_failed(attempted: int, problem: str) -> Outcome:
    return Outcome(attempted, attempted, [problem])


class VerifyWorkload:
    """`ortholat verify`; one operation per suite verdict."""

    def __init__(self, suite: str, dim: int, trials: int):
        self.suite, self.dim, self.trials = suite, dim, trials
        self.expected = SUITE_NAMES if suite == "all" else (suite,)

    def prepare(self, seed: int, index: int, workdir: Path) -> Inputs:
        cli_seed = instance_seed(seed, index)
        argv = ["verify", "--suite", self.suite, "--dim", str(self.dim),
                "--trials", str(self.trials), "--seed", str(cli_seed)]
        return Inputs(cli_seed, argv, _digest(argv))

    def check(self, inputs: Inputs, code: int, stdout: bytes) -> Outcome:
        attempted = len(self.expected)
        if code != 0:
            return _all_failed(attempted, f"exit code {code}")
        try:
            report = json.loads(stdout)
            header = (report["command"], report["seed"], report["dim"], report["trials"])
            suites = {s["suite"]: s for s in report["suites"]}
            all_pass = report["all_pass"]
        except (ValueError, KeyError, TypeError) as exc:
            return _all_failed(attempted, f"unparseable report: {exc!r}")
        if header != ("verify", inputs.seed, self.dim, self.trials):
            return _all_failed(attempted, f"report is for another run: {header}")
        if all_pass is not True:
            return _all_failed(attempted, "all_pass is not true")
        problems = []
        for name in self.expected:
            result = suites.get(name)
            if result is None:
                problems.append(f"suite {name} missing")
            elif result.get("pass") is not True:
                problems.append(f"suite {name} did not pass")
            elif name == "axioms" and \
                    result.get("negative_control_failed_as_expected") is not True:
                problems.append("axioms negative control did not fail")
        return Outcome(attempted, len(problems), problems)


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _psd_bound(x: np.ndarray) -> float:
    """Slack for a cone test on x: the program's 1e-9 relative tolerance."""
    return 1e-9 * max(1.0, float(np.linalg.norm(x)))


def witness_pair(seed: int, index: int, n: int):
    """A non-comparable Hermitian pair drawn from the seed and instance index
    alone; a comparable draw is replaced by the next draw of the same
    generator."""
    rng = np.random.default_rng([seed % 2 ** 64, index, n])
    while True:
        s, t = _hermitian(n, rng), _hermitian(n, rng)
        w = np.linalg.eigvalsh(t - s)
        bound = _psd_bound(t - s)
        if w[0] < -bound and w[-1] > bound:
            return s, t


def reference_inf(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(S + T - |S - T|) / 2 with |x| from numpy's own eigendecomposition."""
    w, u = np.linalg.eigh(s - t)
    return (s + t - (u * np.abs(w)) @ u.conj().T) / 2.0


def _matrix_json(m: np.ndarray) -> str:
    return json.dumps({"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()})


class WitnessWorkload:
    """`ortholat witness` on a seeded non-comparable pair; one operation per
    search."""

    def __init__(self, n: int, restarts: int, iters: int):
        self.n, self.restarts, self.iters = n, restarts, iters

    def prepare(self, seed: int, index: int, workdir: Path) -> Inputs:
        s, t = witness_pair(seed, index, self.n)
        texts = {"S": _matrix_json(s), "T": _matrix_json(t)}
        paths = {}
        for name, text in texts.items():
            paths[name] = workdir / f"{name}.json"
            paths[name].write_text(text, encoding="utf-8")
        cli_seed = instance_seed(seed, index)
        args = ["--restarts", str(self.restarts), "--iters", str(self.iters),
                "--seed", str(cli_seed)]
        argv = ["witness", "--a", str(paths["S"]), "--b", str(paths["T"]), *args]
        return Inputs(cli_seed, argv,
                      _digest({"args": ["witness", *args], "files": texts}),
                      {"S": s, "T": t})

    def check(self, inputs: Inputs, code: int, stdout: bytes) -> Outcome:
        if code != 0:
            return _all_failed(1, f"exit code {code}")
        try:
            report = json.loads(stdout)
            found = report["found"]
            m = np.asarray(report["m"]["re"], dtype=float) + \
                1j * np.asarray(report["m"]["im"], dtype=float)
            margin = float(report["margin"])
        except (ValueError, KeyError, TypeError) as exc:
            return _all_failed(1, f"unparseable report: {exc!r}")
        if found is not True:
            return _all_failed(1, "witness not found")
        s, t = inputs.data["S"], inputs.data["T"]
        if m.shape != s.shape:
            return _all_failed(1, f"witness has shape {m.shape}")
        # the claim, rechecked without ortholat: m <= S, m <= T, m not<= inf(S, T)
        c = reference_inf(s, t)
        gap = -float(np.linalg.eigvalsh(c - m)[0])
        problems = []
        if np.linalg.eigvalsh(m - s)[-1] > _psd_bound(s):
            problems.append("witness is not below S")
        if np.linalg.eigvalsh(m - t)[-1] > _psd_bound(t):
            problems.append("witness is not below T")
        if gap <= 1e-6 * max(1.0, float(np.linalg.norm(c))):
            problems.append(f"witness is below inf(S, T) (gap {gap:.3e})")
        if abs(gap - margin) > 1e-9 * max(1.0, abs(gap)):
            problems.append(f"reported margin {margin!r} differs from {gap!r}")
        if problems:
            return Outcome(1, 1, problems)
        return Outcome(1, 0, witness_margin=gap)


WORKLOADS = {
    "verify-all-d4": VerifyWorkload("all", 4, 500),
    "theorem4-d64": VerifyWorkload("theorem4", 64, 500),
    "witness-d8": WitnessWorkload(8, restarts=16, iters=2000),
}
