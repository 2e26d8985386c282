"""Outside-in layer tracing for the benchmark.

The tracer replaces, inside the benchmark process only, the names one
abcbribery module imports from another (``fpt.is_cowinner``,
``avbribery.min_cost_flow_lb``, ...) and the solver entry points with
wrappers that open a span on entry and close it on exit.  Calls are
synchronous and single-threaded, so spans nest: each span's parent is the
span below it on the stack, and a span's self time is its duration minus the
durations of its direct children.  Spans are aggregated as they close rather
than kept one by one; the aggregate keeps, per (parent, child) pair, the call
count and total duration, which is the call tree the per-layer metrics need.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

RULES = ("av", "sav", "ccav", "pav", "gav", "rav")
SOLVER_LAYERS = ("avbribery", "fpt", "approx", "oracle")

# (module, attribute, layer, kind, index of the rule argument or None)
_COWINNER = [
    ("fpt", "is_cowinner", 1),
    ("avbribery", "is_cowinner", 1),
    ("approx", "is_cowinner", 1),
    ("oracle", "_is_cowinner_from_ballots", 2),
    ("oracle", "_score_cowinner", None),  # rule taken from the enclosing oracle span
]
_ENTRIES = [
    ("avbribery", ("av_add", "av_delete", "av_swap_unit", "av_priced_swap_exact"), None),
    ("fpt", ("add_for_p_subset_enum", "unpriced_type_enum", "priced_swap_to_p_type_enum",
             "ccav_gav_flow_bribery"), 1),
    ("approx", ("sav_add_for_p_2approx", "gav_add_for_p", "rav_add_for_p"), None),
]
TRACED_NAMES = (
    [(mod, attr, "rules", "cowinner", arg) for mod, attr, arg in _COWINNER]
    + [("fpt", "apply_actions", "core", "apply", None),
       ("cli", "parse_election", "core", "parse", None),
       ("fpt", "min_cost_flow_lb", "flows", "flow", None),
       ("avbribery", "min_cost_flow_lb", "flows", "flow", None),
       ("cli", "oracle_margin", "oracle", "entry", 1),
       ("cli", "oracle_bribery", "oracle", "entry", 1),
       ("cli", "main", "cli", "entry", None)]
    + [(mod, attr, mod, "entry", arg) for mod, attrs, arg in _ENTRIES for attr in attrs]
)


class _Frame:
    __slots__ = ("name", "layer", "rule", "child", "outermost")

    def __init__(self, name, layer, rule, outermost):
        self.name = name
        self.layer = layer
        self.rule = rule
        self.child = 0.0
        self.outermost = outermost


class Tracer:
    """Span stack plus the aggregates the per-layer metrics are computed from."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.active: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.rule_calls: dict[str, int] = defaultdict(int)
        self.rule_busy: dict[str, float] = defaultdict(float)
        self.rule_true = 0
        self.per_solver: dict[tuple[str, str], int] = defaultdict(int)
        self.apply_calls = 0
        self.apply_busy = 0.0
        self.parse_busy = 0.0
        self.flow_arcs = 0
        self.flow_units = 0
        self.flow_infeasible = 0
        self.oracle_leaves = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, mods) -> None:
        for mod_name, attr, layer, kind, rule_arg in TRACED_NAMES:
            module = getattr(mods, mod_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{mod_name}.{attr}", layer, kind, rule_arg))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, layer, kind, rule_arg):
        def traced(*args, **kwargs):
            rule = args[rule_arg].value if rule_arg is not None and len(args) > rule_arg else None
            frame = _Frame(name, layer, rule, self.active[layer] == 0)
            self.stack.append(frame)
            self.active[layer] += 1
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, perf_counter() - start, kind, args, None, failed=True)
                raise
            self._close(frame, perf_counter() - start, kind, args, outcome, failed=False)
            return outcome

        traced.__wrapped__ = fn
        return traced

    # -- span close --------------------------------------------------------

    def _close(self, frame, duration, kind, args, outcome, failed) -> None:
        self.stack.pop()
        self.active[frame.layer] -= 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += duration
        edge = self.edges[(parent.name if parent else "-", frame.name)]
        edge[0] += 1
        edge[1] += duration
        layer = frame.layer
        self.layer_self[layer] += duration - frame.child
        if frame.outermost:
            self.layer_busy[layer] += duration
            self.layer_calls[layer] += 1
        solver = self._enclosing_solver()
        if kind == "cowinner":
            rule = frame.rule or self._context_rule()
            self.rule_calls[rule] += 1
            self.rule_busy[rule] += duration
            self.rule_true += bool(outcome)
            if solver is not None:
                self.per_solver[(solver, "cowinner")] += 1
            if frame.name.startswith("oracle."):
                self.oracle_leaves += 1
        elif kind == "flow":
            net = args[0]
            self.flow_arcs += len(net.arcs)
            self.flow_units += net.required_flow
            self.flow_infeasible += failed
            if solver is not None:
                self.per_solver[(solver, "flow")] += 1
        elif kind == "apply":
            self.apply_calls += 1
            self.apply_busy += duration
        elif kind == "parse":
            self.parse_busy += duration

    def _enclosing_solver(self):
        for frame in reversed(self.stack):
            if frame.layer in SOLVER_LAYERS:
                return frame.layer
        return None

    def _context_rule(self):
        for frame in reversed(self.stack):
            if frame.rule is not None:
                return frame.rule
        return "unknown"

    # -- results -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Work counts that depend only on the inputs and the program."""
        out = {f"rules.cowinner.{rule}.calls": self.rule_calls.get(rule, 0) for rule in RULES}
        out.update({
            "rules.cowinner.true": self.rule_true,
            "flows.solves": self.layer_calls.get("flows", 0),
            "flows.arcs": self.flow_arcs,
            "flows.units": self.flow_units,
            "flows.infeasible": self.flow_infeasible,
            "oracle.calls": self.layer_calls.get("oracle", 0),
            "oracle.leaves": self.oracle_leaves,
            "core.apply_actions.calls": self.apply_calls,
        })
        for (solver, what), count in sorted(self.per_solver.items()):
            out[f"{solver}.{what}s"] = count
        for layer in SOLVER_LAYERS + ("cli",):
            out[f"{layer}.solves"] = self.layer_calls.get(layer, 0)
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        checks = 0
        for rule in RULES:
            calls = self.rule_calls.get(rule, 0)
            checks += calls
            out[f"rules.cowinner.{rule}.calls"] = (calls, "count")
            out[f"rules.cowinner.{rule}.per_s"] = (ratio(calls, self.rule_busy.get(rule, 0.0)), "1/s")
        out["rules.cowinner.busy_s"] = (sum(self.rule_busy.values()), "s")
        out["rules.cowinner.true_ratio"] = (ratio(self.rule_true, checks), "ratio")
        out["core.apply_actions.calls"] = (self.apply_calls, "count")
        out["core.apply_actions.busy_s"] = (self.apply_busy, "s")
        out["core.parse_election.busy_s"] = (self.parse_busy, "s")
        flows = self.layer_calls.get("flows", 0)
        flow_busy = self.layer_busy.get("flows", 0.0)
        out["flows.solves"] = (flows, "count")
        out["flows.busy_s"] = (flow_busy, "s")
        out["flows.solves_per_s"] = (ratio(flows, flow_busy), "1/s")
        out["flows.arcs_per_solve"] = (ratio(self.flow_arcs, flows), "count")
        out["flows.units_per_solve"] = (ratio(self.flow_units, flows), "count")
        out["flows.infeasible_ratio"] = (ratio(self.flow_infeasible, flows), "ratio")
        for layer in ("avbribery", "fpt", "approx"):
            out[f"{layer}.busy_s"] = (self.layer_busy.get(layer, 0.0), "s")
            out[f"{layer}.self_s"] = (self.layer_self.get(layer, 0.0), "s")
        solves = self.layer_calls.get("avbribery", 0)
        out["avbribery.flows_per_solve"] = (ratio(self.per_solver.get(("avbribery", "flow"), 0), solves), "count")
        solves = self.layer_calls.get("fpt", 0)
        out["fpt.cowinner_per_solve"] = (ratio(self.per_solver.get(("fpt", "cowinner"), 0), solves), "count")
        out["fpt.flows_per_solve"] = (ratio(self.per_solver.get(("fpt", "flow"), 0), solves), "count")
        oracle_busy = self.layer_busy.get("oracle", 0.0)
        out["oracle.calls"] = (self.layer_calls.get("oracle", 0), "count")
        out["oracle.busy_s"] = (oracle_busy, "s")
        out["oracle.self_s"] = (self.layer_self.get("oracle", 0.0), "s")
        out["oracle.leaves"] = (self.oracle_leaves, "count")
        out["oracle.leaves_per_s"] = (ratio(self.oracle_leaves, oracle_busy), "1/s")
        out["cli.self_s"] = (self.layer_self.get("cli", 0.0), "s")
        return out

    def call_tree(self) -> list[str]:
        """One line per (parent, child) span pair, heaviest first."""
        rows = sorted(self.edges.items(), key=lambda item: -item[1][1])
        return [f"{parent} -> {child}: {calls} calls, {busy:.3f} s"
                for (parent, child), (calls, busy) in rows]
