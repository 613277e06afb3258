"""In-memory span recorder and the wrappers that trace `gcg` at its boundaries.

A span is (name, parent, start, duration, count).  Ordinary spans are one
call each.  A leaf called hundreds of times per parent (a line-search probe)
is folded into one span per parent whose duration is the summed call time
and whose count is the number of calls, so a long solve stays a few tens of
thousands of records.  Calls nest on one thread, so children never overlap.

Every wrapped call costs the wrapper's own bookkeeping, part of it inside the
recorded span and part of it in the parent's time.  `calibrate` measures both
parts per call on a no-op in the traced process, and `corrected` subtracts
count x cost from each span and its ancestors.  On ex1-n64 the 213,724
folded probes make that correction a tenth of a second, not noise.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.durs: list[float] = []
        self.counts: list[int] = []
        self.folded: set[int] = set()
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._fold_index: dict[tuple[int, str], int] = {}

    def _new(self, name: str, count: int) -> int:
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.durs.append(0.0)
        self.counts.append(count)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        """Record one span per call of fn."""

        def traced(*args, **kwargs):
            idx = self._new(name, 1)
            self._stack.append(idx)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                self.starts[idx] = start
                self.durs[idx] = end - start

        return traced

    def wrap_folded(self, name: str, fn):
        """Fold every call of the leaf fn under one parent into one span."""

        def traced(*args):
            start = _clock()
            try:
                return fn(*args)
            finally:
                dur = _clock() - start
                key = (self._stack[-1], name)
                idx = self._fold_index.get(key)
                if idx is None:
                    idx = self._fold_index[key] = self._new(name, 0)
                    self.folded.add(idx)
                    self.starts[idx] = start
                self.durs[idx] += dur
                self.counts[idx] += 1

        return traced

    def corrected(self, costs) -> tuple[list[float], list[float], float]:
        """Inclusive and self seconds of every span less the wrappers' cost.

        costs maps "wrap" and "fold" to the (inside, outside) seconds per
        call that `calibrate` measured.  A span loses its own calls' inside
        cost; its ancestors lose, in addition, the outside cost of those
        calls.  Self time is the corrected span minus its corrected children.
        Returns (inclusive, self, wrapper seconds subtracted in all).
        """
        overhead = [0.0] * len(self.names)
        own = list(self.durs)
        total = 0.0
        for idx in range(len(self.names) - 1, -1, -1):
            inside, outside = costs["fold" if idx in self.folded else "wrap"]
            count = self.counts[idx]
            overhead[idx] += count * inside
            own[idx] -= count * inside
            total += count * (inside + outside)
            parent = self.parents[idx]
            if parent >= 0:  # children are recorded after their parent
                overhead[parent] += overhead[idx] + count * outside
                own[parent] -= self.durs[idx] + count * outside
        inclusive = [d - o for d, o in zip(self.durs, overhead)]
        return inclusive, own, total

    def totals(self, costs) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: calls, corrected inclusive and self seconds."""
        inclusive, own, subtracted = self.corrected(costs)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for name, dur, self_s, count in zip(self.names, inclusive, own, self.counts):
            row = out[name]
            row["calls"] += count
            row["s"] += dur
            row["self_s"] += self_s
        return out, subtracted

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,dur,count\n")
            for idx, row in enumerate(
                zip(self.parents, self.names, self.starts, self.durs, self.counts)
            ):
                parent, name, start, dur, count = row
                fh.write(f"{idx},{parent},{name},{start!r},{dur!r},{count}\n")


def _noop(s):
    return s


def _loop_seconds(fn, calls: int) -> float:
    """Seconds for `calls` calls of fn(0.5) in a loop; fn None times the loop."""
    start = _clock()
    if fn is None:
        for _ in range(calls):
            pass
    else:
        for _ in range(calls):
            fn(0.5)
    return _clock() - start


def calibrate(calls: int = 100_000, repeats: int = 5) -> dict[str, tuple[float, float]]:
    """Seconds per call each wrapper adds (inside, outside) its span.

    Times a bare no-op call, the same no-op through `wrap` and through
    `wrap_folded`, in loops of `calls`.  Inside is the span the wrapper
    records for the no-op less one bare call; outside is the rest of the
    time the wrapper adds.  Each figure is the median over `repeats` rounds.
    """
    rounds: dict[str, list[tuple[float, float]]] = {"wrap": [], "fold": []}
    for _ in range(repeats):
        bare = _loop_seconds(_noop, calls) / calls
        call = bare - _loop_seconds(None, calls) / calls
        for kind in rounds:
            tracer = Tracer()
            wrapper = tracer.wrap if kind == "wrap" else tracer.wrap_folded
            added = _loop_seconds(wrapper("noop", _noop), calls) / calls - bare
            inside = sum(tracer.durs) / calls - call
            rounds[kind].append((inside, added - inside))
    return {
        kind: tuple(statistics.median(r[i] for r in values) for i in (0, 1))
        for kind, values in rounds.items()
    }


def patch_everywhere(original, replacement) -> int:
    """Rebind every name in a loaded `gcg` module that refers to original.

    Functions imported with `from x import f` live under several names, so
    each binding is replaced.  Returns the number of bindings replaced.
    """
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "gcg" or mod_name.startswith("gcg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"no binding of {original!r} found to trace")
    return hits


# CompositeProblem field -> span name of the instance layer.  The instance is
# elliptic or parabolic; both fill the same fields, so one name covers both.
PROBLEM_FIELDS = {
    "smooth_eval": "problem.f_and_grad",
    "nonsmooth_eval": "problem.g_eval",
    "lmo": "problem.lmo",
    "dual_norm": "problem.dual_norm",
    "line_objective": "problem.line_objective",
}


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every `gcg` layer with spans."""
    import gcg.cli
    import gcg.core
    import gcg.diagnostics
    import gcg.elliptic
    import gcg.parabolic
    import gcg.pde

    core, pde = gcg.core, gcg.pde

    # instance layer: the build, and the callables each problem hands to the
    # solver
    for module in (gcg.elliptic, gcg.parabolic):
        patch_everywhere(
            module.make_example, tracer.wrap("problem.build", module.make_example)
        )
    composite = core.CompositeProblem
    original_init = composite.__init__
    signature = inspect.signature(original_init)

    def traced_line_objective(fn):
        def line_objective(u, v):
            return tracer.wrap_folded("problem.probe", fn(u, v))

        return line_objective

    def init(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        for field, span in PROBLEM_FIELDS.items():
            fn = bound.arguments.get(field)
            if fn is None:
                continue
            if field == "line_objective":
                fn = traced_line_objective(fn)
            bound.arguments[field] = tracer.wrap(span, fn)
        original_init(*bound.args, **bound.kwargs)

    composite.__init__ = init

    # solver layer
    patch_everywhere(core.gcg_solve, tracer.wrap("core.gcg_solve", core.gcg_solve))
    patch_everywhere(core.armijo_step, tracer.wrap("core.armijo_step", core.armijo_step))

    # PDE layer
    operator_solve = pde.DiscreteOperator.solve

    def solve(self, rhs):
        shape = getattr(rhs, "shape", ())
        tracer.counters["pde.solve_cols"] += shape[1] if len(shape) == 2 else 1
        return operator_solve(self, rhs)

    pde.DiscreteOperator.solve = tracer.wrap("pde.solve", solve)
    pde.HeatOperator.forward = tracer.wrap("pde.heat_forward", pde.HeatOperator.forward)
    pde.HeatOperator.adjoint = tracer.wrap("pde.heat_adjoint", pde.HeatOperator.adjoint)
    patch_everywhere(pde.splu, tracer.wrap("pde.splu", pde.splu))

    scan = pde.estimate_c_constant

    def estimate_c_constant(op, *args, **kwargs):
        tracer.counters["pde.c_scan_cols"] += op.size
        return scan(op, *args, **kwargs)

    patch_everywhere(scan, tracer.wrap("pde.estimate_c_constant", estimate_c_constant))
    patch_everywhere(
        pde.heat_c_constant, tracer.wrap("pde.heat_c_constant", pde.heat_c_constant)
    )

    # diagnostics layer: every public function the module defines
    for name, fn in list(vars(gcg.diagnostics).items()):
        if (
            inspect.isfunction(fn)
            and not name.startswith("_")
            and fn.__module__ == "gcg.diagnostics"
        ):
            patch_everywhere(fn, tracer.wrap(f"diagnostics.{name}", fn))


def layer_metrics(tracer: Tracer, costs) -> dict[str, float]:
    """The per-layer figures of one traced run, keyed by metric name.

    Times are corrected for the wrappers' cost as `calibrate` measured it.
    """
    t, subtracted = tracer.totals(costs)

    def calls(name):
        return int(t[name]["calls"]) if name in t else 0

    def total(*names):
        return sum(t[n]["s"] for n in names if n in t)

    def own(*names):
        return sum(t[n]["self_s"] for n in names if n in t)

    searches, probes = calls("core.armijo_step"), calls("problem.probe")
    problem_spans = [*PROBLEM_FIELDS.values(), "problem.probe"]
    pde_steps = ["pde.heat_forward", "pde.heat_adjoint"]
    pde_constants = ["pde.estimate_c_constant", "pde.heat_c_constant"]
    diagnostics = [n for n in t if n.startswith("diagnostics.")]
    return {
        "core.line_searches": searches,
        "core.probes": probes,
        "core.probes_per_search": probes / searches if searches else 0.0,
        "core.accept_ratio": searches / probes if probes else 0.0,
        "core.line_search_s": total("core.armijo_step"),
        "core.line_search_self_s": own("core.armijo_step"),
        "core.solve_self_s": own("core.gcg_solve"),
        "problem.build_s": total("problem.build"),
        "problem.f_and_grad_calls": calls("problem.f_and_grad"),
        "problem.f_and_grad_s": total("problem.f_and_grad"),
        "problem.line_objective_calls": calls("problem.line_objective"),
        "problem.line_objective_s": total("problem.line_objective"),
        "problem.probe_s": total("problem.probe"),
        "problem.lmo_s": total("problem.lmo"),
        "problem.g_eval_s": total("problem.g_eval"),
        "problem.dual_norm_s": total("problem.dual_norm"),
        "problem.self_s": own(*problem_spans),
        "pde.solve_calls": calls("pde.solve"),
        "pde.solve_cols": tracer.counters["pde.solve_cols"],
        "pde.solve_s": own("pde.solve"),
        "pde.heat_forward_calls": calls("pde.heat_forward"),
        "pde.heat_adjoint_calls": calls("pde.heat_adjoint"),
        "pde.self_s": own(*pde_steps, *pde_constants),
        "pde.factor_calls": calls("pde.splu"),
        "pde.factor_s": total("pde.splu"),
        "pde.c_scan_cols": tracer.counters["pde.c_scan_cols"],
        "pde.c_constant_s": total(*pde_constants),
        "diagnostics.calls": sum(calls(n) for n in diagnostics),
        "diagnostics.s": own(*diagnostics),
        "cli.self_s": own("cli.main"),
        "trace.spans": len(tracer.names),
        "trace.subtracted_s": subtracted,
    }
