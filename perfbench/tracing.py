"""Spans and counters around the public functions of each `conicac` layer,
installed from outside the package by patching each function where its
caller looks it up.

A span is (name, start, end, parent span index, operation id); spans stay
in memory until the run ends.  Hot methods (FieldCtx arithmetic,
ConicModel.pair_mask, nrc.is_prime) get counters only, keyed by the
operation's q so per-q counts can be reported.  The patches are installed
only around an operation, so the benchmark's own checks are not traced.
"""

from __future__ import annotations

import math
import resource
import time
from collections import Counter, defaultdict

from workloads import EXACT_QS, SEARCH_QS

LAYERS = ("gf", "geometry", "search", "bounds", "nrc", "tables", "cli")
GF_OPS = ("add", "sub", "neg", "mul", "inv", "div")
TRACED_QS = SEARCH_QS + EXACT_QS

# (name, unit, better) of every metric a traced run reports
PER_LAYER = (
    [(f"gf.calls.{op}", "count", "lower") for op in GF_OPS]
    + [(f"gf.calls.{op}.q{q}", "count", "lower") for q in TRACED_QS for op in GF_OPS]
    + [("gf.field_build_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("geometry.build_s", "s", "lower")]
    + [(f"geometry.build_s.q{q}", "s", "lower") for q in TRACED_QS]
    + [("geometry.mask_bytes", "bytes", "lower"),
       ("geometry.rss_growth_mb", "MB", "lower"),
       ("search.randomized_greedy_s", "s", "lower"),
       ("search.greedy_pass_s", "s", "lower"),
       ("search.restarts", "count", "higher"),
       ("search.pair_mask_calls", "count", "lower"),
       ("search.exhaustive_self_s", "s", "lower"),
       ("search.verify_s", "s", "lower")]
    + [(f"bounds.eval_s.{n}", "s", "lower") for n in ("A", "B", "C", "theta")]
    + [("bounds.A.steps", "count", "lower"),
       ("bounds.B.scan_w", "count", "lower"),
       ("bounds.rows", "count", "higher"),
       ("nrc.p0_s", "s", "lower"),
       ("nrc.is_prime_calls", "count", "lower"),
       ("nrc.complete_s", "s", "lower"),
       ("nrc.hyperplanes", "count", "lower"),
       ("nrc.points_screened", "count", "lower"),
       ("tables.verify_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.spans", "count", "lower")]
)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, modules):
        self.m = modules  # namespace with cli, gf, geometry, search, bounds, nrc, tables
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.counts: Counter = Counter()  # (name, q) -> calls
        self.sums: defaultdict = defaultdict(float)
        self.built: dict[int, int] = {}  # q -> computed mask bytes
        self.op = None
        self.op_q = None
        self._patches = self._plan()

    # --- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, rec[2] - rec[1])
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, self.op_q] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- what to patch ----------------------------------------------------

    def _plan(self):
        m, sums = self.m, self.sums

        def build(fn):
            def measured(q):
                before = maxrss_mb()
                model = fn(q)
                sums["geometry.rss_growth_mb"] += maxrss_mb() - before
                self.built[q] = math.comb(q + 1, 2) * -(-model.m_size // 8)
                return model
            return measured

        def after_build(args, kwargs, result, dur):
            sums["geometry.build_s"] += dur
            sums[f"geometry.build_s.q{args[0]}"] += dur

        def after_greedy(args, kwargs, result, dur):
            sums["search.restarts"] += kwargs.get("restarts", args[2] if len(args) > 2 else 0)

        def after_eval(args, kwargs, result, dur):
            sums[f"bounds.eval_s.{args[0]}"] += dur

        def after_a(args, kwargs, result, dur):
            sums["bounds.A.steps"] += len(result.steps)

        def after_b(args, kwargs, result, dur):
            if result is not None:
                sums["bounds.B.scan_w"] += result[0]

        def after_rows(args, kwargs, result, dur):
            sums["bounds.rows"] += len(result)

        def after_complete(args, kwargs, result, dur):
            arc = args[0]
            q, n = arc.field.q, arc.n_dim
            planes = math.comb(q + 1, n)
            sums["nrc.hyperplanes"] += planes
            sums["nrc.points_screened"] += planes * (q ** (n + 1) - 1) // (q - 1)

        greedy = self._span("search.randomized_greedy", m.search.randomized_greedy, after_greedy)
        verify = self._span("search.is_ac_subset", m.search.is_ac_subset)
        model = self._span("geometry.build_conic_model",
                           build(m.geometry.build_conic_model), after_build)
        plan = [
            (m.cli, "build_conic_model", model),
            (m.search, "build_conic_model", model),
            (m.geometry, "field_for_order",
             self._span("gf.field_for_order", m.gf.field_for_order)),
            (m.gf, "field_new", self._span("gf.field_new", m.gf.field_new)),
            (m.cli, "randomized_greedy", greedy),
            (m.search, "randomized_greedy", greedy),
            (m.cli, "exhaustive_min_ac",
             self._span("search.exhaustive_min_ac", m.cli.exhaustive_min_ac)),
            (m.cli, "is_ac_subset", verify),
            (m.search, "is_ac_subset", verify),
            (m.bounds, "curve_emit",
             self._span("bounds.curve_emit", m.bounds.curve_emit, after_rows)),
            (m.bounds, "evaluate_bound",
             self._span("bounds.evaluate_bound", m.bounds.evaluate_bound, after_eval)),
            (m.bounds, "bound_a_trace",
             self._span("bounds.bound_a_trace", m.bounds.bound_a_trace, after_a)),
            (m.bounds, "bound_b", self._span("bounds.bound_b", m.bounds.bound_b, after_b)),
            (m.cli, "p0_solve", self._span("nrc.p0_solve", m.cli.p0_solve)),
            (m.cli, "nrc_points", self._span("nrc.nrc_points", m.cli.nrc_points)),
            (m.cli, "completeness_brute",
             self._span("nrc.completeness_brute", m.cli.completeness_brute, after_complete)),
            (m.nrc, "is_prime", self._count("nrc.is_prime", m.nrc.is_prime)),
            (m.tables, "verify_rows", self._span("tables.verify_rows", m.tables.verify_rows)),
            (m.geometry.ConicModel, "pair_mask",
             self._count("pair_mask", m.geometry.ConicModel.pair_mask)),
        ]
        plan += [(m.gf.FieldCtx, op, self._count(op, getattr(m.gf.FieldCtx, op)))
                 for op in GF_OPS]
        return plan

    # --- running ----------------------------------------------------------

    def call(self, op_id, q, fn, *args):
        """Run one operation with every patch installed, under a cli span."""
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in self._patches]
        for obj, attr, wrapper in self._patches:
            setattr(obj, attr, wrapper)
        self.op, self.op_q = op_id, q
        try:
            return self._span("cli.main", fn)(*args)
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)
            self.op = self.op_q = None

    # --- reporting --------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: defaultdict = defaultdict(float)
        field_build = exhaustive_self = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".")[0]
            self_s[layer] += end - start - child[i]
            by_name[name] += end - start
            if layer == "gf" and (parent is None or not spans[parent][0].startswith("gf.")):
                field_build += end - start
            if name == "search.exhaustive_min_ac":
                exhaustive_self += end - start - child[i]

        out = defaultdict(float, self.sums)
        for (name, q), n in self.counts.items():
            if name in GF_OPS:
                out[f"gf.calls.{name}"] += n
                if q in TRACED_QS:
                    out[f"gf.calls.{name}.q{q}"] += n
        out["search.pair_mask_calls"] = sum(
            n for (name, _), n in self.counts.items() if name == "pair_mask")
        out["nrc.is_prime_calls"] = sum(
            n for (name, _), n in self.counts.items() if name == "nrc.is_prime")
        out.update({f"{layer}.self_s": v for layer, v in self_s.items()})
        out["gf.field_build_s"] = field_build
        out["geometry.mask_bytes"] = max(self.built.values(), default=0)
        out["search.randomized_greedy_s"] = by_name["search.randomized_greedy"]
        restarts = out["search.restarts"]
        out["search.greedy_pass_s"] = out["search.randomized_greedy_s"] / restarts if restarts else 0.0
        out["search.exhaustive_self_s"] = exhaustive_self
        out["search.verify_s"] = by_name["search.is_ac_subset"]
        out["nrc.p0_s"] = by_name["nrc.p0_solve"]
        out["nrc.complete_s"] = by_name["nrc.completeness_brute"]
        out["tables.verify_s"] = by_name["tables.verify_rows"]
        out["trace.overhead_s"] = overhead_s
        out["trace.spans"] = len(spans)
        return {name: out[name] for name, _, _ in PER_LAYER}

    def span_dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]
