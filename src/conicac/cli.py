"""Command-line surface.

Commands: exact, search, bounds, verify, nrc.  Exit codes: 0 ok,
1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from itertools import chain

from . import bounds as bnd
from . import tables
from .bounds import BOUNDS_Q_MAX
from .gf import factor_prime_powers, field_for_order
from .geometry import build_conic_model, check_model_size
from .nrc import (check_completeness_size, completeness_brute, corollary11_range,
                  nrc_points, p0_solve)
from .search import EXACT_MAX_Q, check_greedy_args, exhaustive_min_ac, randomized_greedy
from .search import is_ac_subset  # noqa: F401  perfbench/tracing.py patches cli.is_ac_subset

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

FIG_GRIDS = {"fig1": 253009, "fig2": 14000029}
BOUNDS_CHUNK = 1 << 13  # q per `curve_emit` call and per write of `ac bounds`
BOUNDS_ROW = "%d,%s,%.12g,%.12g\n"  # q, name, value, value_star
EXACT_CEILING = 32  # largest q `ac exact` runs without --force


class CliError(Exception):
    pass


def cmd_exact(args) -> int:
    q = args.q
    if q < 5:
        raise CliError(f"q={q} < 5: outside the exact-search scope")
    if q > EXACT_CEILING and not args.force:
        raise CliError(f"q={q} above the exhaustive ceiling {EXACT_CEILING}; use --force")
    check_model_size(q)  # the refusals every model command gives come first
    if q > EXACT_MAX_Q:
        raise CliError(f"q={q} above the exact-search limit {EXACT_MAX_Q}")
    model = build_conic_model(q)
    t, witness = exhaustive_min_ac(model)
    names = ",".join(model.param_name(p) for p in witness)
    print(f"q={q} t={t} witness={names}")
    return EXIT_OK


def _open_out(path, default=None):
    """Open PATH for writing up front, so a bad path fails before any work."""
    return open(path, "w") if path else contextlib.nullcontext(default)


def cmd_search(args) -> int:
    check_greedy_args(args.restarts, args.prob, args.jobs)
    # the model first, so a refused q leaves an existing record untouched; a
    # bad record path then costs at most one model build
    model = build_conic_model(args.q)
    with _open_out(args.record) as record_fh:
        start = time.time()
        res = randomized_greedy(model, seed=args.seed, restarts=args.restarts,
                                random_step_prob=args.prob, jobs=args.jobs)
        wall = time.time() - start
        if not res.is_ac:
            raise AssertionError("search produced a non-AC witness")
        print(res.witness_line(model))
        if record_fh:
            record = {
                "command": "search",
                "parameters": {"q": args.q, "restarts": args.restarts,
                               "prob": args.prob, "jobs": args.jobs},
                "seed": args.seed,
                "wall_time_s": round(wall, 3),
                "outputs": {"witness_line": res.witness_line(model)},
                "tool_version": _version(),
            }
            json.dump(record, record_fh, indent=2)
            record_fh.write("\n")
    return EXIT_OK


def _parse_grid(args):
    if args.grid:
        return bnd.prime_powers_up_to(FIG_GRIDS[args.grid])
    grid = [int(x) for x in args.qlist.split(",")]
    for q in grid:
        if q > BOUNDS_Q_MAX:
            raise CliError(f"q={q} is above the ac bounds limit {BOUNDS_Q_MAX}")
        if q < 5:
            raise CliError(f"q={q} is not a prime power >= 5")
    _, m = factor_prime_powers(grid)
    if not m.all():
        raise CliError(f"q={grid[m.argmin()]} is not a prime power >= 5")
    return grid


def cmd_bounds(args) -> int:
    names = [n.strip() for n in args.names.split(",")]
    for n in names:
        if n not in bnd.BOUND_NAMES:
            raise CliError(f"unknown bound name {n!r}; choose from {bnd.BOUND_NAMES}")
        if names.count(n) > 1:
            raise CliError(f"bound name {n!r} given more than once")
    grid = _parse_grid(args)
    with _open_out(args.out, sys.stdout) as out:
        out.write("q,bound,value,value_star\n")
        for start in range(0, len(grid), BOUNDS_CHUNK):
            rows = bnd.curve_emit(grid[start:start + BOUNDS_CHUNK], names)
            # one %-format over all the chunk's fields, no string per row
            out.write(BOUNDS_ROW * len(rows) % tuple(chain.from_iterable(rows)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.table:
        rows = tables.load_table_csv(args.table)
        label = args.table
    else:
        rows = tables.embedded_table2_rows() + tables.KNOWN_TBAR_SAMPLE
        label = "embedded tables"
    verdicts = tables.verify_rows(rows)
    failures = 0
    for v in verdicts:
        if v.ok:
            print(f"q={v.q} tbar={v.tbar} ok")
        else:
            failures += 1
            print(f"q={v.q} tbar={v.tbar} FAIL: {'; '.join(v.reasons)}")
    print(f"{label}: {len(verdicts) - failures}/{len(verdicts)} rows pass")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_nrc(args) -> int:
    if args.p0 is not None:
        entry = p0_solve(args.p0, c_override=args.c)
        print(f"h={entry.h} c={entry.c} p0={entry.p0}")
        return EXIT_OK
    if args.c is not None:
        raise CliError("--c applies only to --p0")
    if args.range is not None:
        q = args.range
        rng = corollary11_range(q)
        print(f"q={q} N-range={'empty' if rng is None else f'[{rng[0]},{rng[1]}]'}")
        return EXIT_OK
    q, n_dim = args.complete
    check_completeness_size(q, n_dim)
    ext = completeness_brute(nrc_points(field_for_order(q), n_dim))
    if not ext:
        print(f"q={q} N={n_dim}: complete")
    else:
        print(f"q={q} N={n_dim}: extendable by {len(ext)} point(s)")
    return EXIT_OK


def _version() -> str:
    try:
        from importlib.metadata import version
        return version("conicac")
    except Exception:
        return "unknown"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ac",
                                 description="Almost-complete subsets of a conic in PG(2,q)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact minimum AC-subset size by exhaustive search")
    p.add_argument("q", type=int)
    p.add_argument("--force", action="store_true",
                   help=f"allow q above the exhaustive ceiling {EXACT_CEILING}, "
                   f"up to {EXACT_MAX_Q}")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("search", help="randomized greedy search for small AC-subsets")
    p.add_argument("q", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--prob", type=float, default=0.1)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, >= 1")
    p.add_argument("--record", metavar="PATH", help="write a JSON run record")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="emit bound curves as CSV")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--qlist", help="comma-separated prime powers "
                      f"5 <= q <= {BOUNDS_Q_MAX}")
    grid.add_argument("--grid", choices=sorted(FIG_GRIDS))
    p.add_argument("--names", default="A,B,C,theta")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="verify reference tables against Theta(q)")
    p.add_argument("table", nargs="?", help="CSV path (q,tbar[,tstar]); "
                   "defaults to the embedded tables")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nrc", help="normal rational curve completeness tools")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p0", type=int, metavar="H",
                      help="smallest odd prime threshold p0(h)")
    mode.add_argument("--range", type=int, metavar="Q",
                      help="guaranteed-complete N-range for q")
    mode.add_argument("--complete", type=int, nargs=2, metavar=("Q", "N"),
                      help="brute-force completeness check of the NRC in PG(N,q)")
    p.add_argument("--c", type=float, help="override the coefficient for --p0")
    p.set_defaults(func=cmd_nrc)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CliError, tables.TableFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
