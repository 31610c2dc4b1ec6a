"""In-process tracer for the ortholat package, used by the traced benchmark run.

`installed(tracer)` wraps every public function of every ortholat module
(module-level functions and the methods of classes defined there), plus
`numpy.linalg.eigh` and `numpy.linalg.eigvalsh`. It rebinds every module-level
name and module-level dict entry that refers to a wrapped function, so the
copies made by `from .linalg import x` and the suite registry are traced too.
On exit every original object is put back.

A call of a structural function opens a span: name, start, end and the index
of the enclosing span. A call of a high-frequency leaf (`LEAVES`), and every
traced call made inside one, opens no span: its count and time are added to
the enclosing span instead. Spans stay in memory until `dump`. Every call is
timed from the entry of its wrapper, and a leaf until after its bookkeeping,
so the tracer's own cost is not counted as self time of the enclosing span.
"""
from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from contextlib import contextmanager

import numpy as np

EIGEN = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")

# Called tens of thousands of times or more per verify-all-d4 invocation; a
# span per call would cost more memory and time than the work it measures.
LEAVES = frozenset({
    *EIGEN,
    "linalg.complex_matrix",
    "linalg.hermitian_matrix",
    "linalg.frob",
    "linalg.rel_diff",
    "linalg.zero_product_residual",
    "linalg.hermitian_eigendecompose",
    "linalg.rng_for",
    "linalg.random_complex",
    "linalg.random_hermitian",
    "linalg.random_unitary",
    "lattice.lattice_vector",
    "lattice.sup_norm",
    "lattice.lattice_orth",
    "orthogonality.KGrid.for_norms",
    "axioms.MatrixSaModel.norm",
    "axioms.CoordinateModel.norm",
    "axioms.MatrixSaModel.infty_deviation",
    "axioms.CoordinateModel.infty_deviation",
})

ROOT_SPAN = "trace"


class Tracer:
    """Spans, leaf aggregates and counters of one traced run.

    Span 0 is the root; it stays open until `close_root`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [ROOT_SPAN]
        self.starts = [clock()]
        self.ends = [0.0]
        self.parents = [-1]
        self.leaf_s = [0.0]      # time covered by outermost leaf calls
        self.leaves = [None]     # per span: {leaf name: [calls, seconds]}
        self.stack = [0]
        self.leaf_depth = 0
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def call(self, start, name, fn, args, kwargs, observe=None):
        """Runs `fn` as the traced call `name`, which began at `start`;
        `observe` reads the call's result into counters."""
        if self.leaf_depth or name in LEAVES:
            return self._call_leaf(start, name, fn, args, kwargs, observe)
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.leaf_s.append(0.0)
        self.leaves.append(None)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result
        except Exception as exc:
            self._note_exception(exc)
            raise
        finally:
            self.stack.pop()
            self.ends[idx] = self.clock()

    def _call_leaf(self, start, name, fn, args, kwargs, observe):
        # the time runs from wrapper entry until after this bookkeeping, so
        # the tracer's cost of a leaf call counts as leaf time, not as self
        # time of the enclosing span
        self.leaf_depth += 1
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result
        except Exception as exc:
            self._note_exception(exc)
            raise
        finally:
            self.leaf_depth -= 1
            span = self.stack[-1]
            agg = self.leaves[span]
            if agg is None:
                agg = self.leaves[span] = {}
            rec = agg.get(name)
            if rec is None:
                rec = agg[name] = [0, 0.0]
            dt = self.clock() - start
            rec[0] += 1
            rec[1] += dt
            if not self.leaf_depth:
                self.leaf_s[span] += dt

    def _note_exception(self, exc: Exception) -> None:
        # count each exception once, in the call that raised it
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.count(f"exceptions.{type(exc).__name__}")

    def close_root(self) -> None:
        self.ends[0] = self.clock()

    def tables(self) -> dict:
        """Per-name aggregates: span calls, inclusive, self and eigen-call
        counts, and leaf calls and time over the whole run."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_s = [0.0] * n
        eig = [0] * n
        for i in range(n):
            agg = self.leaves[i]
            if agg:
                eig[i] = sum(agg[e][0] for e in EIGEN if e in agg)
        for i in range(n - 1, 0, -1):   # children come after their parent
            p = self.parents[i]
            child_s[p] += dur[i]
            eig[p] += eig[i]
        spans: dict[str, dict] = {}
        leaves: dict[str, dict] = {}
        for i in range(n):
            rec = spans.setdefault(self.names[i], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "eig_calls": 0})
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child_s[i] - self.leaf_s[i]
            rec["eig_calls"] += eig[i]
            for name, (calls, secs) in (self.leaves[i] or {}).items():
                leaf = leaves.setdefault(name, {"calls": 0, "total_s": 0.0})
                leaf["calls"] += calls
                leaf["total_s"] += secs
        return {"spans": spans, "leaves": leaves, "counters": dict(self.counters)}

    def dump(self, path, tables: dict, **extra) -> None:
        """Writes the raw spans, `tables` and `extra` as one JSON file."""
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "leaves"],
            "span_rows": [
                [self.names[i], self.starts[i] - self.starts[0],
                 self.ends[i] - self.starts[0], self.parents[i], self.leaves[i]]
                for i in range(len(self.names))
            ],
            **tables,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# observers: read a traced call's arguments or result into counters

def _observe_eigen(tracer, fn, args, kwargs, result):
    # a stack of k matrices adds k - 1 matrices beyond the call itself; the
    # common single-matrix call costs only the type and ndim test
    a = args[0] if args else kwargs["a"]
    if type(a) is not np.ndarray or a.ndim > 2:
        stacked = float(np.prod(np.shape(a)[:-2], dtype=float))
        tracer.count("eig_stacked_extra", stacked - 1.0)


def _observe_kgrid(tracer, fn, args, kwargs, result):
    tracer.count("kgrid_points", float(result.values.size))


def _observe_abs_infty(tracer, fn, args, kwargs, result):
    from ortholat.tolerances import DEFAULT_TOL

    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    details = dict(result.details)
    if details["exact_alg_orth"] <= DEFAULT_TOL.tol_zero:
        return  # orthogonal pair: every sample is needed
    first = int(details["first_violation_trial"])
    trials = int(bound.arguments["trials"])
    stopped = bound.arguments["stop_on_violation"] and first >= 0
    tracer.count("abs_infty.drawn", first + 1 if stopped else trials)
    tracer.count("abs_infty.useful", first + 1 if first >= 0 else 0)


def _observe_uniqueness(tracer, fn, args, kwargs, result):
    tracer.count("uniqueness_survivors", dict(result.details)["survivors"])


def _observe_witness(tracer, fn, args, kwargs, result):
    tracer.count("witness_searches")
    tracer.count("witness_margin", result.margin)


OBSERVERS = {
    "numpy.linalg.eigh": _observe_eigen,
    "numpy.linalg.eigvalsh": _observe_eigen,
    "orthogonality.KGrid.for_norms": _observe_kgrid,
    "orthogonality.abs_infty_orth_sampled": _observe_abs_infty,
    "ortholattice.uniqueness_falsify": _observe_uniqueness,
    "ortholattice.kadison_witness_search": _observe_witness,
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers

def _wrap(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)
    call, clock = tracer.call, tracer.clock

    def wrapper(*args, **kwargs):
        return call(clock(), name, fn, args, kwargs, observe)
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def package_modules(package="ortholat") -> list:
    """The package itself (for its re-exported names) and its submodules."""
    pkg = importlib.import_module(package)
    return [pkg, *(importlib.import_module(f"{package}.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__))]


def public_functions(modules) -> list:
    """(owner, attribute, traced name, function) for every public function
    defined in one of `modules`, and every public method or static method of
    a class defined there."""
    found = []
    for mod in modules:
        short = mod.__name__.split(".", 1)[-1]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                found.append((mod, attr, f"{short}.{attr}", value))
            elif inspect.isclass(value):
                for meth, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((value, meth, f"{short}.{value.__name__}.{meth}", raw))
    return found


class Patches:
    """Every rebinding made by `install`, so `restore` can undo it."""

    def __init__(self):
        self.records = []   # (owner, key, original, is_dict_entry)

    def set(self, owner, key, new, is_dict=False):
        old = owner[key] if is_dict else vars(owner)[key]
        self.records.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def restore(self):
        for owner, key, old, is_dict in reversed(self.records):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self.records.clear()


def install(tracer: Tracer) -> Patches:
    """Wraps the package's public functions and numpy's eigen calls so they
    report to `tracer`; returns what `Patches.restore` needs to undo it."""
    modules = package_modules()
    patches = Patches()
    wrappers = {}   # id(original function) -> wrapper
    for owner, attr, name, raw in public_functions(modules):
        if inspect.isclass(owner):
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = _wrap(tracer, name, fn)
            patches.set(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod)
                        else wrapped)
        else:
            wrappers[id(raw)] = _wrap(tracer, name, raw)
    # rebind the defining name, every imported copy and every registry entry
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                patches.set(mod, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if id(entry) in wrappers:
                        patches.set(value, key, wrappers[id(entry)], is_dict=True)
    for name in EIGEN:
        attr = name.rsplit(".", 1)[1]
        patches.set(np.linalg, attr, _wrap(tracer, name, getattr(np.linalg, attr)))
    return patches


@contextmanager
def installed(tracer: Tracer):
    patches = install(tracer)
    try:
        yield patches
    finally:
        patches.restore()
        tracer.close_root()


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tables: dict, suite_functions: dict) -> dict:
    """Per-layer metric values from `Tracer.tables()`.

    `suite_functions` maps each suite key to the name of the function that
    runs it. A ratio whose base is zero (no such call in the run) reads 0.
    """
    spans, leaves, counters = tables["spans"], tables["leaves"], tables["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0) + leaves.get(name, {}).get("calls", 0)

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    eig_calls = sum(calls(e) for e in EIGEN)
    vt4 = "ortholattice.verify_theorem4"
    witness = "ortholattice.kadison_witness_search"
    metrics = {
        "linalg.eig_calls": eig_calls,
        "linalg.eig_s": sum(leaves.get(e, {}).get("total_s", 0.0) for e in EIGEN),
        "linalg.eigh_calls": calls("numpy.linalg.eigh"),
        "linalg.eig_matrices_per_call":
            _ratio(eig_calls + counters.get("eig_stacked_extra", 0.0), eig_calls),
        "linalg.psd_defect.calls": calls("linalg.psd_defect"),
        "linalg.psd_defect.self_s": span("linalg.psd_defect", "self_s"),
        "linalg.jordan_decompose.calls": calls("linalg.jordan_decompose"),
        "orthogonality.infty_orth.calls": calls("orthogonality.infty_orth"),
        "orthogonality.infty_orth.self_s": span("orthogonality.infty_orth", "self_s"),
        "orthogonality.kgrid_points": counters.get("kgrid_points", 0.0),
        "orthogonality.sampler_draws": calls("orthogonality.OrderIntervalSampler.draw"),
        "orthogonality.sampler_draw.self_s":
            span("orthogonality.OrderIntervalSampler.draw", "self_s"),
        "orthogonality.abs_infty.useful_sample_ratio":
            _ratio(counters.get("abs_infty.useful", 0.0), counters.get("abs_infty.drawn", 0.0)),
        "orthogonality.inconsistencies": counters.get("exceptions.InternalInconsistency", 0.0),
        "lattice.prop6_check.self_s": span("lattice.prop6_check", "self_s"),
        "lattice.sup_norm.calls": calls("lattice.sup_norm"),
        "axioms.check_theorem7.self_s": span("axioms.check_theorem7", "self_s"),
        "axioms.check_axioms.self_s": span("axioms.check_axioms", "self_s"),
        "axioms.infty_deviation.calls": calls("axioms.MatrixSaModel.infty_deviation")
            + calls("axioms.CoordinateModel.infty_deviation"),
        "ortholattice.verify_theorem4.self_s": span(vt4, "self_s"),
        "ortholattice.verify_theorem4.eig_calls_per_call":
            _ratio(span(vt4, "eig_calls"), calls(vt4)),
        "ortholattice.uniqueness_falsify.self_s":
            span("ortholattice.uniqueness_falsify", "self_s"),
        "ortholattice.uniqueness_falsify.survivors": counters.get("uniqueness_survivors", 0.0),
        "ortholattice.witness.eig_calls": span(witness, "eig_calls"),
        "ortholattice.witness.self_s": span(witness, "self_s"),
        "ortholattice.witness.margin":
            _ratio(counters.get("witness_margin", 0.0), counters.get("witness_searches", 0.0)),
    }
    for key, fn_name in suite_functions.items():
        metrics[f"suites.{key}.wall_s"] = span(f"suites.{fn_name}", "total_s")
    return {k: float(v) for k, v in metrics.items()}
