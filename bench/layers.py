"""Per-layer counters and spans for one traced pass.

The tracer wraps, from outside, the entry points each caller binds: the
public functions the workloads call through the ``pebblekit`` package,
module globals that sibling functions look up at call time (for example
``reach._greedy_deliverable`` and ``optimal._canonical``) and methods of
the private engine classes.  Nothing in ``src/`` is edited.  A hook whose
target no longer exists, after a refactor, is skipped and the metrics fed
by it are reported as absent (value ``null``); the untraced passes, which
give every end-to-end number, never install a hook.

A span records its inclusive time and its self time (inclusive minus the
time of spans nested in it).  The grid primitives are called millions of
times, so they get call counters only, not spans; their per-call cost comes
from a fixed micro-loop instead (``grid_micro_ns``).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

from workloads import WORKLOADS

# Each per-layer metric: (name, unit, better).  Hooks below name the
# metrics they feed, so a missing hook marks exactly those as absent.
LAYER_METRICS = [
    ("grid.check.calls", "count", "lower"),
    ("grid.distance.calls", "count", "lower"),
    ("grid.neighbors.calls", "count", "lower"),
    ("grid.ball.calls", "count", "lower"),
    ("grid.distance.ns", "ns", "lower"),
    ("grid.neighbors.ns", "ns", "lower"),
    ("reach.engine.count", "count", "lower"),
    ("reach.cluster.count", "count", "lower"),
    ("reach.cluster.build_s", "s", "lower"),
    ("reach.can_k.calls", "count", "lower"),
    ("reach.greedy.calls", "count", "lower"),
    ("reach.greedy.hit_ratio", "ratio", "higher"),
    ("reach.restricted.searches", "count", "lower"),
    ("reach.restricted.hit_ratio", "ratio", "higher"),
    ("reach.restricted.budget_exceeded", "count", "lower"),
    ("reach.full.searches", "count", "lower"),
    ("reach.full.hit_ratio", "ratio", "higher"),
    ("reach.dfs.nodes", "count", "lower"),
    ("reach.dfs.nodes_per_s", "1/s", "higher"),
    ("reach.dfs.self_s", "s", "lower"),
    ("reach.dfs.table_peak", "count", "lower"),
    ("weights.weight.calls", "count", "lower"),
    ("weights.terms", "count", "lower"),
    ("weights.terms_per_s", "1/s", "higher"),
    ("weights.report_s", "s", "lower"),
    ("weights.ceiling_s", "s", "lower"),
    ("weights.ceiling_infinite_s", "s", "lower"),
    ("weights.marginal_ceiling_s", "s", "lower"),
    ("weights.fractional_solvable_s", "s", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.pivot_ms", "ms", "lower"),
    ("lp.entry_bits.max", "bits", "lower"),
    ("lp.build_s", "s", "lower"),
    ("lp.verify_s", "s", "lower"),
    ("optimal.placements", "count", "lower"),
    ("optimal.canonical_s", "s", "lower"),
    ("optimal.orbits", "count", "lower"),
    ("optimal.engine_s", "s", "lower"),
    ("optimal.orbits_per_s", "1/s", "higher"),
    ("constructions.gen_s", "s", "lower"),
]
LAYER_METRICS += [
    (f"op.{w.name}.{op.name}.s", "s", "lower") for w in WORKLOADS.values() for op in w.ops
]
LAYER_METRICS += [("host.ref_ms", "ms", "lower"), ("trace.overhead_s", "s", "lower")]

# Counts that must repeat exactly from one traced pass to the next.
EXACT = {name for name, unit, _ in LAYER_METRICS if unit in ("count", "ratio", "bits")}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.stack = []  # one [start, child time] frame per open span
        self.can_k = []  # (k, engine node cap) of each open _cluster_can_k
        self.values = Counter()  # sums and maxima filled in by hooks
        self.tableaux = []
        self.absent: dict[str, str] = {}  # metric -> missing hook
        self._undo = []

    # -- wrappers -----------------------------------------------------

    def span(self, name, fn, metrics, on_exit=None):
        """Wrap fn in a span; on_exit(args, result, error) runs after it.
        If on_exit no longer fits the code it reads, metrics go absent."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                dur = time.perf_counter() - frame[0]
                self.stack.pop()
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                if on_exit is not None:
                    try:
                        on_exit(args, result, error)
                    except Exception as e:  # never fail the traced op itself
                        for m in metrics:
                            self.absent[m] = f"{name}: {type(e).__name__}: {e}"

        return wrapper

    def counter(self, name, fn, metrics):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------

    def hook(self, path, metrics, make):
        """Replace the attribute at path ("module:Owner.attr") with
        make(original, metrics); if it is missing, mark metrics absent."""
        module_name, _, attr_path = path.partition(":")
        *owner_path, attr = attr_path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            for m in metrics:
                self.absent[m] = path
            return
        setattr(owner, attr, make(original, metrics))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self):
        h, span, counter = self.hook, self.span, self.counter

        def spans(name, on_exit=None):
            return lambda fn, metrics: span(name, fn, metrics, on_exit)

        for prim in ("check", "distance", "neighbors", "ball"):
            h(f"pebblekit.grid:GridSpec.{prim}", [f"grid.{prim}.calls"],
              functools.partial(counter, f"grid.{prim}"))

        reach = "pebblekit.reach:"
        h(reach + "_Engine.__init__", ["reach.engine.count"],
          functools.partial(counter, "reach.engine"))
        h(reach + "_Engine._build_clusters", ["reach.cluster.count", "reach.cluster.build_s"],
          spans("reach.cluster", self._clusters))
        h(reach + "_Engine._cluster_can_k",
          ["reach.can_k.calls", "reach.greedy.hit_ratio", "reach.restricted.searches",
           "reach.restricted.hit_ratio", "reach.full.searches", "reach.full.hit_ratio"],
          self._wrap_can_k)
        h(reach + "_Engine.can_move_k", ["optimal.engine_s"], spans("reach.query"))
        h(reach + "_greedy_deliverable", ["reach.greedy.calls", "reach.greedy.hit_ratio"],
          spans("reach.greedy", self._greedy))
        h(reach + "_Search.run",
          ["reach.restricted.searches", "reach.restricted.hit_ratio",
           "reach.restricted.budget_exceeded", "reach.full.searches", "reach.full.hit_ratio",
           "reach.dfs.nodes", "reach.dfs.nodes_per_s", "reach.dfs.self_s",
           "reach.dfs.table_peak"],
          spans("reach.dfs", self._search))

        kernel = ["weights.weight.calls", "weights.terms", "weights.terms_per_s"]
        h("pebblekit.weights:weight", kernel, spans("weights.kernel", self._terms))
        h("pebblekit.weights:_infinite_weight", kernel, spans("weights.kernel", self._terms))
        for api, metric in (
            ("weight_report", "weights.report_s"),
            ("covering_ratio_ceiling", "weights.ceiling_s"),
            ("ceiling_infinite", "weights.ceiling_infinite_s"),
            ("marginal_covering_ratio_ceiling", "weights.marginal_ceiling_s"),
            ("fractional_solvable", "weights.fractional_solvable_s"),
        ):
            h("pebblekit:" + api, [metric], spans(metric))

        # the workloads call pebblekit.solve, fractional_optimal_pebbling calls lp.solve
        for path in ("pebblekit.lp:solve", "pebblekit:solve"):
            h(path, ["lp.solves", "lp.entry_bits.max"], spans("lp.solve"))
        h("pebblekit.lp:_Tableau.__init__", ["lp.entry_bits.max"], self._wrap_tableau)
        h("pebblekit.lp:_Tableau.pivot", ["lp.pivots", "lp.pivot_ms"], spans("lp.pivot"))
        h("pebblekit:fractional_optimal_pebbling", ["lp.build_s"], spans("lp.build"))
        h("pebblekit:verify_certificate", ["lp.verify_s"], spans("lp.verify"))

        h("pebblekit.optimal:_canonical", ["optimal.placements", "optimal.canonical_s"],
          spans("optimal.canonical"))
        h("pebblekit:optimal_pebbling_number",
          ["optimal.orbits", "optimal.orbits_per_s", "optimal.engine_s"],
          spans("optimal.search", self._orbits))

        for gen in ("gen_cascade_ones", "gen_diag7", "gen_row_ones", "find_density7_pattern"):
            h("pebblekit.constructions:" + gen, ["constructions.gen_s"], spans("constructions.gen"))

    # -- hook bodies --------------------------------------------------

    def _clusters(self, args, result, error):
        self.values["reach.cluster.count"] += len(args[0]._clusters)

    def _wrap_can_k(self, fn, metrics):
        inner = self.span("reach.can_k", fn, metrics)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = kwargs.get("k", args[3] if len(args) > 3 else None)
            self.can_k.append((k, getattr(args[0], "node_cap", None)))
            try:
                return inner(*args, **kwargs)
            finally:
                self.can_k.pop()

        return wrapper

    def _greedy(self, args, result, error):
        if self.can_k and result is not None and result >= self.can_k[-1][0]:
            self.values["reach.greedy.hits"] += 1

    def _search(self, args, result, error):
        search = args[0]
        engine_cap = self.can_k[-1][1] if self.can_k else None
        # a search capped below its engine's budget is a restricted stage
        stage = "restricted" if engine_cap and search.node_cap < engine_cap else "full"
        v = self.values
        v[f"reach.{stage}.searches"] += 1
        v[f"reach.{stage}.hits"] += bool(result)
        if type(error).__name__ == "BudgetExceeded":
            v[f"reach.{stage}.budget_exceeded"] += 1
        v["reach.dfs.nodes"] += search.nodes
        v["reach.dfs.table_peak"] = max(v["reach.dfs.table_peak"], len(search.failed))

    def _terms(self, args, result, error):
        d = args[0]  # a distribution for weight(), a counts dict for _infinite_weight()
        self.values["weights.terms"] += len(getattr(d, "counts", d))

    def _wrap_tableau(self, fn, metrics):
        @functools.wraps(fn)
        def wrapper(tab, *args, **kwargs):
            fn(tab, *args, **kwargs)
            self.tableaux.append(tab)

        return wrapper

    def _orbits(self, args, result, error):
        if result is not None:
            self.values["optimal.orbits"] += result.candidates_tested

    # -- results ------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values for the pass; absent metrics map to None."""
        c, t, s, v = self.calls, self.total, self.self_time, self.values

        def ratio(a, b):
            return a / b if b else 0.0

        bits = 0
        try:
            for tab in self.tableaux:
                for x in [e for row in tab.rows for e in row] + list(tab.rhs):
                    bits = max(bits, int(x.numerator).bit_length(), int(x.denominator).bit_length())
        except (AttributeError, TypeError) as e:
            self.absent["lp.entry_bits.max"] = f"lp._Tableau entries: {e}"
        out = {
            "grid.check.calls": c["grid.check"],
            "grid.distance.calls": c["grid.distance"],
            "grid.neighbors.calls": c["grid.neighbors"],
            "grid.ball.calls": c["grid.ball"],
            "reach.engine.count": c["reach.engine"],
            "reach.cluster.count": v["reach.cluster.count"],
            "reach.cluster.build_s": t["reach.cluster"],
            "reach.can_k.calls": c["reach.can_k"],
            "reach.greedy.calls": c["reach.greedy"],
            "reach.greedy.hit_ratio": ratio(v["reach.greedy.hits"], c["reach.greedy"]),
            "reach.restricted.searches": v["reach.restricted.searches"],
            "reach.restricted.hit_ratio": ratio(
                v["reach.restricted.hits"], v["reach.restricted.searches"]
            ),
            "reach.restricted.budget_exceeded": v["reach.restricted.budget_exceeded"],
            "reach.full.searches": v["reach.full.searches"],
            "reach.full.hit_ratio": ratio(v["reach.full.hits"], v["reach.full.searches"]),
            "reach.dfs.nodes": v["reach.dfs.nodes"],
            "reach.dfs.nodes_per_s": ratio(v["reach.dfs.nodes"], t["reach.dfs"]),
            "reach.dfs.self_s": s["reach.dfs"],
            "reach.dfs.table_peak": v["reach.dfs.table_peak"],
            "weights.weight.calls": c["weights.kernel"],
            "weights.terms": v["weights.terms"],
            "weights.terms_per_s": ratio(v["weights.terms"], t["weights.kernel"]),
            "lp.solves": c["lp.solve"],
            "lp.pivots": c["lp.pivot"],
            "lp.pivot_ms": 1000 * ratio(t["lp.pivot"], c["lp.pivot"]),
            "lp.entry_bits.max": bits,
            "lp.build_s": s["lp.build"],
            "lp.verify_s": t["lp.verify"],
            "optimal.placements": c["optimal.canonical"],
            "optimal.canonical_s": t["optimal.canonical"],
            "optimal.orbits": v["optimal.orbits"],
            # every can_move_k query comes from the pi_opt search in these workloads
            "optimal.engine_s": t["reach.query"],
            "optimal.orbits_per_s": ratio(v["optimal.orbits"], t["optimal.search"]),
            "constructions.gen_s": t["constructions.gen"],
        }
        for name in (
            "weights.report_s",
            "weights.ceiling_s",
            "weights.ceiling_infinite_s",
            "weights.marginal_ceiling_s",
            "weights.fractional_solvable_s",
        ):
            out[name] = s[name]
        for name in self.absent:
            out[name] = None
        return out


def grid_micro_ns(grid_module) -> dict:
    """Median ns per call of distance and neighbors over all vertex pairs
    (resp. all vertices) of a 9x9 torus, with no hook installed."""
    out = {}
    spec = getattr(grid_module, "GridSpec", None)
    if spec is None:
        return {"grid.distance.ns": None, "grid.neighbors.ns": None}
    g = spec(9, 9, grid_module.TORUS)
    verts = list(g.vertices())
    for name, calls, loop in (
        ("grid.distance.ns", len(verts) ** 2, lambda: [g.distance(u, v) for u in verts for v in verts]),
        ("grid.neighbors.ns", 40 * len(verts), lambda: [g.neighbors(u) for _ in range(40) for u in verts]),
    ):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            loop()
            samples.append((time.perf_counter_ns() - t0) / calls)
        out[name] = statistics.median(samples)
    return out
