"""Workload definitions: the `ac` command lines each workload runs, made
from the benchmark seed, and the check each command's output must pass.

Nothing here imports `conicac`: witnesses are checked against the
definition of an AC-subset with field tables built here, and expected
values are embedded, recorded from the program at the commit that
introduced the benchmark, so a change to the program's own geometry or
tables cannot hide a wrong answer.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field

import numpy as np

# --- search ---------------------------------------------------------------

SEARCH_QS = (121, 127, 128)  # 11^2 (per-digit add), prime (mod p), 2^7 (XOR)
SEARCH_RESTARTS = 200
SEARCH_PROB = 0.1

# --- exact ----------------------------------------------------------------

EXACT_QS = (16, 17, 19, 23, 25)
EXPECTED_T = {16: 9, 17: 10, 19: 11, 23: 12, 25: 12}

# --- bounds_nrc -----------------------------------------------------------

BOUNDS_GRID_LIMIT = 50000  # smallest 5214 entries of the fig1 grid (<= 253009)
BOUNDS_HEAD = 8            # first slice: 5..17, holds the q=5 known defect
BOUNDS_SLICES = 4          # the rest is cut into this many seeded slices
BOUND_NAMES = ("A", "B", "C", "theta")
BOUND_REL_TOL = 1e-9       # B, C, theta; A is compared exactly

# evaluate_bound(name, q) printed with 12 significant digits, recorded from
# the program for a fixed sample of q
BOUND_REFERENCE = {
    "A": {7: 6.0, 8: 7.0, 9: 7.0, 13: 9.0, 16: 11.0, 17: 11.0, 32: 17.0,
          41: 20.0, 43: 21.0, 121: 41.0, 127: 42.0, 128: 43.0, 343: 78.0,
          1024: 151.0, 2048: 226.0, 4049: 333.0, 16384: 730.0,
          28603: 992.0, 32768: 1070.0, 49999: 1348.0},
    "B": {43: 24.9521373913, 121: 45.9000264183, 127: 47.9561793524,
          128: 47.9653953822, 343: 84.4255210796, 1024: 159.017406268,
          2048: 235.462268681, 4049: 344.747100498, 16384: 745.723163058,
          28603: 1011.4820853, 32768: 1089.41201118, 49999: 1371.24743262},
    "C": {7: 12.3898599505, 8: 13.1668730587, 9: 13.9033199472,
          13: 16.5496826459, 16: 18.3089550458, 17: 18.863194597,
          32: 25.9444441781, 41: 29.4896418386, 43: 30.229676003,
          121: 52.325794669, 127: 53.7059069495, 128: 53.9330953423,
          343: 92.0258678802, 1024: 167.225595154, 2048: 244.234641541,
          4049: 354.261178949, 16384: 757.248360977, 28603: 1023.68944736,
          32768: 1101.68846716, 49999: 1383.74253312},
    "theta": {7: 6.77246049169, 8: 6.60744209629, 9: 7.20399650381,
              13: 9.35461865703, 16: 10.7899077606, 17: 11.2429198477,
              32: 17.0603421333, 41: 19.9895432616, 43: 20.6021461041,
              121: 39.0245409666, 127: 40.181609511, 128: 40.3721380751,
              343: 72.4910004514, 1024: 136.482737067, 2048: 202.43661363,
              4049: 297.091860951, 16384: 645.954209201,
              28603: 885.776270825, 32768: 954.335511486,
              49999: 1349.66351246},
}
# bound B has no admissible w for q <= 41, so those rows are skipped
B_FIRST_FEASIBLE_Q = 43

P0_EXPECTED = [757, 1399, 2129, 2887, 3623, 4621, 5417, 6247, 7079, 7919,
               8779, 9629, 10499, 11383, 12253, 13147]
COMPLETE_CASES = ((8, 6, 10), (13, 4, 0), (25, 3, 0))  # (q, N, extension points)
VERIFY_LAST_LINE = "embedded tables: 55/55 rows pass"

Q5_DEFECT = "bound A at q=5 exits 2 (U0=(q-5)^2=0); ROADMAP item 3"


@dataclass
class Op:
    """One `ac` invocation and what its output must be."""
    argv: list[str]
    kind: str
    q: int | None = None                 # label for per-q trace counters
    expect: dict = field(default_factory=dict)
    out_file: str | None = None          # basename of a file the op writes
    known_defect: str | None = None      # failure expected at this commit


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    witness_size: int = 0


@dataclass
class Workload:
    name: str
    why: str
    make_ops: object  # (seed) -> list[Op]


# --- op generation --------------------------------------------------------

def search_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for q in SEARCH_QS:
        s = rng.randrange(1, 2 ** 31)
        rec = f"search-{q}.json"
        ops.append(Op(["search", str(q), "--seed", str(s),
                       "--restarts", str(SEARCH_RESTARTS),
                       "--prob", str(SEARCH_PROB), "--jobs", "1",
                       "--record", rec],
                      kind="search", q=q, out_file=rec,
                      expect={"seed": s}))
    return ops


def exact_ops(seed: int) -> list[Op]:
    # `ac exact` takes no seed: the inputs are the same for every seed
    return [Op(["exact", str(q)], kind="exact", q=q,
               expect={"t": EXPECTED_T[q]}) for q in EXACT_QS]


def prime_powers_up_to(limit: int, lo: int = 5) -> list[int]:
    """The fig1 grid, rebuilt here so the inputs do not come from the
    program under test."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            pk = p
            while pk <= limit:
                if pk >= lo:
                    out.append(pk)
                pk *= p
    return sorted(out)


def bounds_nrc_ops(seed: int) -> list[Op]:
    grid = prime_powers_up_to(BOUNDS_GRID_LIMIT)
    rest = grid[BOUNDS_HEAD:]
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, len(rest)), BOUNDS_SLICES - 1))
    bounds_at = [0] + cuts + [len(rest)]
    slices = [grid[:BOUNDS_HEAD]] + [rest[a:b] for a, b in zip(bounds_at, bounds_at[1:])]
    ops = []
    for k, qs in enumerate(slices):
        for name in BOUND_NAMES:
            out = f"bounds-{k}-{name}.csv"
            defect = Q5_DEFECT if name == "A" and 5 in qs else None
            ops.append(Op(["bounds", "--qlist", ",".join(map(str, qs)),
                           "--names", name, "--out", out],
                          kind="bounds", out_file=out, known_defect=defect,
                          expect={"name": name, "qs": qs}))
    for h in range(1, len(P0_EXPECTED) + 1):
        ops.append(Op(["nrc", "--p0", str(h)], kind="p0",
                      expect={"h": h, "p0": P0_EXPECTED[h - 1]}))
    for q, n, ext in COMPLETE_CASES:
        ops.append(Op(["nrc", "--complete", str(q), str(n)], kind="complete",
                      expect={"q": q, "n": n, "ext": ext}))
    ops.append(Op(["verify"], kind="verify", expect={"last": VERIFY_LAST_LINE}))
    return ops


# --- checks ---------------------------------------------------------------

def _min_irreducible(p: int, m: int) -> list[int]:
    """Coefficients (constant first) of the smallest monic irreducible of
    degree m over F_p, ordered by code: trial division by monic divisors."""
    def coeffs(c, n):
        return [(c // p ** i) % p for i in range(n)]

    def divides(g, f):
        r = list(f)
        for k in range(len(r) - 1, len(g) - 2, -1):
            if r[k]:
                f_k = r[k]
                for i, gi in enumerate(g):
                    r[k - len(g) + 1 + i] = (r[k - len(g) + 1 + i] - f_k * gi) % p
        return not any(r[:len(g) - 1])

    for c in range(p ** m):
        f = coeffs(c, m) + [1]
        if not any(divides(coeffs(c2, d) + [1], f)
                   for d in range(1, m // 2 + 1) for c2 in range(p ** d)):
            return f
    raise ValueError(f"no irreducible of degree {m} over F_{p}")


def _field_tables(q: int):
    """Addition, multiplication and inverse tables of GF(q) in the
    program's element coding: the base-p digits of a code are the
    polynomial's coefficients, modulo the smallest monic irreducible."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = round(math.log(q, p))
    digits = np.array([[(c // p ** i) % p for i in range(m)] for c in range(q)])
    weights = p ** np.arange(m)
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    low = np.array(_min_irreducible(p, m)[:m])  # x^m = -low
    xa = [digits]  # digits of x^i * a for every a
    for _ in range(m - 1):
        d = xa[-1]
        shifted = np.hstack([np.zeros((q, 1), dtype=d.dtype), d[:, :-1]])
        xa.append((shifted - d[:, -1:] * low) % p)
    mul = (np.einsum("bi,iak->abk", digits, np.stack(xa)) % p) @ weights
    inv = np.zeros(q, dtype=np.int64)
    rows, cols = np.nonzero(mul == 1)
    inv[rows] = cols
    return add, mul, inv


def covers_plane(q: int, witness: list[int]) -> bool:
    """AC test from the definition: the lines through pairs of witness
    points of the conic {(1,t,t^2)} u {(0,0,1)} (parameter q is the point
    at infinity) cover every point off the conic and off the nucleus."""
    add, mul, inv = _field_tables(q)
    pts = np.array([(1, t, mul[t, t]) if t < q else (0, 0, 1) for t in witness])
    s_idx, t_idx = np.triu_indices(len(witness), 1)
    a = np.arange(1, q)[None, :, None]
    # a*P_s + P_t for every pair and a != 0: the line minus P_s
    x = add[mul[a, pts[s_idx][:, None, :]], pts[t_idx][:, None, :]].reshape(-1, 3)
    lead = np.where(x[:, 0] != 0, x[:, 0], np.where(x[:, 1] != 0, x[:, 1], x[:, 2]))
    x = mul[inv[lead][:, None], x]
    codes = np.unique((x[:, 0] * q + x[:, 1]) * q + x[:, 2])
    conic = {(q + t) * q + mul[t, t] for t in range(q)} | {1}
    if q % 2 == 0:
        conic.add(q)  # the nucleus (0,1,0)
    covered = codes[~np.isin(codes, list(conic))]
    return len(covered) == q * q - (q % 2 == 0)


class Checker:
    """Output checks; verdicts on identical output are cached per run."""

    def __init__(self):
        self._cache: dict = {}

    def check(self, op: Op, rc, stdout: str, out_text: str | None) -> Outcome:
        if rc != 0:
            return Outcome(False, f"exit code {rc}")
        if op.out_file and out_text is None:
            return Outcome(False, f"{op.out_file} was not written")
        key = (tuple(op.argv), stdout, out_text)
        if key not in self._cache:
            try:
                self._cache[key] = getattr(self, "_" + op.kind)(op, stdout, out_text)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                self._cache[key] = Outcome(False, f"unparsable output: {e!r}")
        return self._cache[key]

    @staticmethod
    def _witness_ok(q: int, names: list[str], size: int) -> str:
        witness = [q if s == "inf" else int(s) for s in names]
        if len(witness) != size or len(set(witness)) != size:
            return f"witness has {len(set(witness))} distinct of {size} parameters"
        if not all(0 <= t <= q for t in witness) or size >= q + 1:
            return "witness parameters out of range"
        if not covers_plane(q, witness):
            return "witness is not an AC-subset"
        return ""

    def _search(self, op, stdout, out_text):
        q = op.q
        line = stdout.strip().splitlines()[-1]
        head_q, size, names = line.split(";")
        size = int(size)
        if int(head_q) != q:
            return Outcome(False, f"line reports q={head_q}")
        bad = self._witness_ok(q, names.split(","), size)
        if bad:
            return Outcome(False, bad)
        record = json.loads(out_text)
        if (record["command"] != "search" or record["seed"] != op.expect["seed"]
                or record["outputs"]["witness_line"] != line
                or record["parameters"]["q"] != q):
            return Outcome(False, "run record does not match the run")
        return Outcome(True, witness_size=size)

    def _exact(self, op, stdout, out_text):
        m = re.fullmatch(r"q=(\d+) t=(\d+) witness=(\S+)", stdout.strip())
        if m is None or int(m.group(1)) != op.q:
            return Outcome(False, f"unexpected output {stdout.strip()!r}")
        t = int(m.group(2))
        if t != op.expect["t"]:
            return Outcome(False, f"t={t}, expected {op.expect['t']}")
        bad = self._witness_ok(op.q, m.group(3).split(","), t)
        return Outcome(not bad, bad, witness_size=t)

    def _bounds(self, op, stdout, out_text):
        name, qs = op.expect["name"], op.expect["qs"]
        lines = out_text.splitlines()
        if lines[0] != "q,bound,value,value_star":
            return Outcome(False, f"bad CSV header {lines[0]!r}")
        values = {}
        for line in lines[1:]:
            q, bname, value, _star = line.split(",")
            if bname != name:
                return Outcome(False, f"row for bound {bname}, expected {name}")
            values[int(q)] = float(value)
        want = [q for q in qs if not (name == "B" and q < B_FIRST_FEASIBLE_Q)]
        if name == "A":  # q=5 is infeasible for A and may be skipped
            missing = [q for q in want if q not in values and q != 5]
        else:
            missing = [q for q in want if q not in values]
        extra = sorted(set(values) - set(qs))
        if missing or extra:
            return Outcome(False, f"rows missing for q={missing[:5]}, extra {extra[:5]}")
        witness = 0
        for q, ref in BOUND_REFERENCE[name].items():
            if q not in values:
                continue
            got = values[q]
            if name == "A":
                if got != ref:
                    return Outcome(False, f"A({q})={got}, expected {ref}")
                witness += int(got)
            elif abs(got - ref) > BOUND_REL_TOL * abs(ref):
                return Outcome(False, f"{name}({q})={got!r}, expected {ref!r}")
        return Outcome(True, witness_size=witness)

    def _p0(self, op, stdout, out_text):
        m = re.fullmatch(r"h=(\d+) c=(\S+) p0=(\d+)", stdout.strip())
        if m is None or int(m.group(1)) != op.expect["h"]:
            return Outcome(False, f"unexpected output {stdout.strip()!r}")
        p0 = int(m.group(3))
        if p0 != op.expect["p0"]:
            return Outcome(False, f"p0={p0}, expected {op.expect['p0']}")
        return Outcome(True)

    def _complete(self, op, stdout, out_text):
        e = op.expect
        text = stdout.strip()
        if e["ext"]:
            want = f"q={e['q']} N={e['n']}: extendable by {e['ext']} point(s)"
        else:
            want = f"q={e['q']} N={e['n']}: complete"
        return Outcome(text == want, "" if text == want else f"got {text!r}, expected {want!r}")

    def _verify(self, op, stdout, out_text):
        last = stdout.strip().splitlines()[-1]
        ok = last == op.expect["last"]
        return Outcome(ok, "" if ok else f"last line {last!r}")


def read_out_file(tmpdir: str, op: Op) -> str | None:
    if op.out_file is None:
        return None
    path = os.path.join(tmpdir, op.out_file)
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


# --- the workloads --------------------------------------------------------

WORKLOADS = {
    "search": Workload(
        "search",
        "Main command `ac search` at q=121,127,128 (the three gf paths): model build "
        "plus 200 greedy passes per q. Out of scope: --jobs > 1 and q >= 169.",
        search_ops),
    "exact": Workload(
        "exact",
        "`ac exact` for q=16,17,19,23,25: exhaustive enumeration and pruning take "
        "over 99% of the time; the no-change control for model-build work.",
        exact_ops),
    "bounds_nrc": Workload(
        "bounds_nrc",
        "Theory side, no conic model: bounds A/B/C/theta on fig1 q<=50000, p0, "
        "completeness, verify. Known defect: the q=5 bound-A op exits 2, counted "
        "failed; it skips A on 8 of 5214 q.",
        bounds_nrc_ops),
}
