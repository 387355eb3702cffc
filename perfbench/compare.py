"""Compare two sets of benchmark records, parent and change.

For each workload and end-to-end metric it prints both sides' median and
quartiles, the fraction of pairs the change won, and a verdict:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ, in the change's favour, by more
  than the parent's own spread (the distance between its quartiles);
- regressed: the same rule with the sides swapped, or a change median
  worse than the parent's by more than the metric's bound;
- unresolved: anything else.

Runs are paired by seed where both sets hold the seed, otherwise in the
order they were recorded.  The report gates nothing; it always exits 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> dict:
    """workload -> list of (seed, end_to_end metrics) from untraced records."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = defaultdict(list)
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        prov = rec.get("provenance", {})
        if prov.get("trace") == 0:
            out[prov["workload"]].append((prov["seed"], rec["end_to_end"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    p_by_seed, c_by_seed = dict(parent), dict(change)
    common = sorted(set(p_by_seed) & set(c_by_seed))
    if common:
        return [(p_by_seed[s], c_by_seed[s]) for s in common]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def verdict(p_vals, c_vals, paired, better, bound):
    sign = 1 if better == "lower" else -1
    p1, p_med, p3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    spread = p3 - p1
    wins = sum(sign * (c - p) < 0 for p, c in paired)
    losses = sum(sign * (c - p) > 0 for p, c in paired)
    n = len(paired)
    gain = sign * (p_med - c_med)  # > 0: the change is better
    if n and wins >= 0.9 * n and gain > spread:
        v = "improved"
    elif (n and losses >= 0.9 * n and -gain > spread) or -gain > bound * abs(p_med):
        v = "regressed"
    else:
        v = "unresolved"
    return v, (wins / n if n else 0.0)


def main(parent_path, change_path, end_to_end) -> int:
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<11} {'metric':<13} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5} {'n':>3}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if not parent[workload] or not change[workload]:
            print(f"{workload:<11} missing on one side "
                  f"(parent {len(parent[workload])}, change {len(change[workload])})")
            continue
        for name, unit, better, bound in end_to_end:
            p_vals = [m[name] for _, m in parent[workload]]
            c_vals = [m[name] for _, m in change[workload]]
            paired = [(p[name], c[name]) for p, c in pairs(parent[workload], change[workload])]
            v, won = verdict(p_vals, c_vals, paired, better, bound)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<11} {name:<13} {fmt.format(*quartiles(p_vals)):>32} "
                  f"{fmt.format(*quartiles(c_vals)):>32} {won:>5.2f} {len(paired):>3}  "
                  f"{v} ({unit}, {better} is better, bound {bound})")
    return 0
