"""conicac benchmark: runs one workload of `ac` commands in-process through
`conicac.cli.main`, checks every output and prints the metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --write-spec

Run it from the root of a source checkout; the program is imported from
`src/`.  `--trace 0` measures the end-to-end metrics; `--trace 1` makes one
untraced and one traced pass and reports the per-layer metrics and the
tracing overhead.  Every run writes a full record (provenance, operations,
metrics and, when traced, all spans) under `.perfbench_out/`.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 4  # before and again after the passes

# numpy and BLAS run single-threaded, before numpy is first imported
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402
import tracing  # noqa: E402

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.05),
    ("witness_size", "count", "lower", 0.1),
)
RUN_SECONDS = 40


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in tracing.PER_LAYER],
    }


# --- program import and provenance ---------------------------------------

def import_program():
    if not (SRC / "conicac" / "__init__.py").is_file():
        raise FileNotFoundError(f"no conicac sources under {SRC}")
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    from conicac import bounds, cli, geometry, gf, nrc, search, tables
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"conicac imported from {cli.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, gf=gf, geometry=geometry, search=search,
                           bounds=bounds, nrc=nrc, tables=tables)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "conicac").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed, seconds, trace, ops) -> dict:
    import numpy
    return {
        "git_sha": git_sha(), "src_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "thread_pins": THREAD_PINS,
        "params": [describe(op) for op in ops],
    }


def describe(op) -> str:
    """The op's command line, with a long --qlist shortened to its range."""
    parts = []
    for a in op.argv:
        qs = a.split(",")
        parts.append(f"<{len(qs)} q from {qs[0]} to {qs[-1]}>" if len(qs) > 4 else a)
    return " ".join(["ac"] + parts)


# --- set-up time ----------------------------------------------------------

SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import conicac.cli, workloads
workloads.WORKLOADS[{workload!r}].make_ops({seed!r})
print(time.monotonic())
"""


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to having imported conicac
    and generated the workload's commands; the monotonic clock is shared
    across processes."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR),
                              workload=workload, seed=seed)
    env = dict(os.environ, **THREAD_PINS)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return samples


# --- passes ---------------------------------------------------------------

def run_pass(prog, ops, checker, tmpdir, tracer=None, pass_no=0) -> dict:
    """Run every operation once, fresh caches before each, then check the
    outputs; the peak RSS is read before the checks so that it is the
    program's alone."""
    runs = []
    for i, op in enumerate(ops):
        prog.geometry.build_conic_model.cache_clear()
        prog.gf.field_new.cache_clear()
        argv = [os.path.join(tmpdir, a) if a == op.out_file else a for a in op.argv]
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc, raised = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = prog.cli.main(argv)
                else:
                    rc = tracer.call(f"{pass_no}.{i}", op.q, prog.cli.main, argv)
            except Exception as e:  # an op that raises is a failed op
                raised = repr(e)
            dt = time.perf_counter() - t0
        out_text = wl.read_out_file(tmpdir, op)
        if op.out_file and out_text is not None:
            os.remove(os.path.join(tmpdir, op.out_file))
        runs.append((op, dt, rc, raised, out.getvalue(), err.getvalue(), out_text))
    prog.geometry.build_conic_model.cache_clear()
    prog.gf.field_new.cache_clear()
    peak_rss_mb = tracing.maxrss_mb()

    results = []
    for i, (op, dt, rc, raised, stdout, stderr, out_text) in enumerate(runs):
        if raised is not None:
            outcome = wl.Outcome(False, f"raised {raised}")
        else:
            outcome = checker.check(op, rc, stdout, out_text)
        expected_failure = (not outcome.ok and op.known_defect is not None and rc == 2)
        results.append({"op": i, "seconds": dt, "rc": rc, "ok": outcome.ok,
                        "reason": outcome.reason, "known_defect": expected_failure,
                        "stderr": stderr[-300:], "witness_size": outcome.witness_size})
    return {"wall_s": sum(r[1] for r in runs), "ops": results, "peak_rss_mb": peak_rss_mb,
            "witness_size": sum(r["witness_size"] for r in results)}


def run_workload(name, seed, seconds, trace) -> tuple[dict, dict]:
    prog = import_program()
    setup = measure_setup(name, seed)
    ops = wl.WORKLOADS[name].make_ops(seed)
    checker = wl.Checker()
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    passes, tracer = [], None
    try:
        if trace:  # first, so the model builds it traces raise the peak RSS
            tracer = tracing.Tracer(prog)
            passes.append(run_pass(prog, ops, checker, tmpdir, tracer))
        start = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(run_pass(prog, ops, checker, tmpdir, pass_no=len(passes)))
            last = time.monotonic() - t
            if trace or time.monotonic() - start + last > seconds:
                break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    setup += measure_setup(name, seed)

    all_ops = [r for p in passes for r in p["ops"]]
    attempted = len(all_ops)
    failed = sum(not r["ok"] for r in all_ops)
    unexpected = [r for r in all_ops if not r["ok"] and not r["known_defect"]]
    untraced = passes[1:] if trace else passes
    e2e = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": untraced[0]["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / attempted,
        "witness_size": statistics.median(p["witness_size"] for p in untraced),
    }
    layer = None
    if trace:
        layer = tracer.metrics(passes[0]["wall_s"] - passes[1]["wall_s"])
    record = {
        "provenance": provenance(name, seed, seconds, trace, ops),
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "known_defects": sorted({ops[r["op"]].known_defect for r in all_ops
                                 if r["known_defect"]}),
        "setup_samples_s": setup,
        "passes": [{"wall_s": p["wall_s"], "traced": bool(trace) and k == 0,
                    "ops": p["ops"]} for k, p in enumerate(passes)],
        "end_to_end": e2e, "per_layer": layer,
        "spans": tracer.span_dump() if tracer else None,
    }
    return record, (layer if trace else e2e)


def write_record(record) -> Path:
    p = record["provenance"]
    path = OUT_DIR / (f"{p['workload']}-seed{p['seed']}-trace{p['trace']}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


def print_report(record, units):
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for r in (r for p in record["passes"] for r in p["ops"] if not r["ok"]):
        tag = "known defect" if r["known_defect"] else "FAILED"
        print(f"op {r['op']} {tag}: {r['reason']} {r['stderr'].strip()}")
    print(f"attempted {record['attempted']} failed {record['failed']} "
          f"fail_ratio {record['fail_ratio']:.6g} correct {record['correct']}")
    for name, value in record["end_to_end"].items():
        print(f"end_to_end {name} = {value:.6g} {units[name]}")
    for name, value in (record["per_layer"] or {}).items():
        print(f"per_layer {name} = {value:.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two result sets (record files or directories)")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from the definitions here")
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(benchmark_spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.compare:
        import compare
        return compare.main(*args.compare, END_TO_END)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        record, metrics = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, ImportError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    units = {n: u for n, u, _, _ in END_TO_END}
    units.update({n: u for n, u, _ in tracing.PER_LAYER})
    print_report(record, units)
    print(f"record {write_record(record).relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
