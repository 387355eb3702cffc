"""Upper bounds on the smallest AC-subset size t(q).

The array functions (`bound_a_values`, `bound_b_values`, `bound_c_values`,
`theta_values`, dispatched by `bound_values`) are the one path for bound
values: each evaluates its curve for a whole q-grid at once in numpy.
Every one takes q through `_q_array`, which refuses q < 5 and q above
BOUNDS_Q_MAX before any factoring.  Implicit bound A is an exact-integer
recursion on worst-case uncovered counts; the remaining bounds are
closed-form or short scans in binary64.  Starred values divide a bound by
sqrt(q ln q).  The tests check every array bit for bit against a scalar
reference: `bound_a_trace` and `bound_b` here, C and Theta in
`tests/oracles.py`.

`bound_a_values` runs the A recursion in int64 arrays: every q starts at
w = 5, so one step advances all q still live, and a q leaves the live set
in the step where its U drops to 0 or below.  Before each step it checks
that (w-2) * max(U) fits in int64; when it would not, the q still live
are finished with the Python-int `bound_a_trace`, its int64-overflow
fallback.  On the fig2 grid (q <= 1.4e7) the product peaks at 4.4e17,
under 5% of the int64 maximum; the guard first trips between q = 4.5e7
and 5e7.

B, C and theta are binary64 expressions.  numpy's log can differ from
`math.log` in the last bit (numpy 2.4 on x86-64: on 49 of the 910,714
fig2 q for log q), so every log that enters a value is taken from
`math.log`, one call per element, and numpy does only +, -, *, / and
sqrt, in the order of the written formula; numpy rounds those exactly as
Python does.  `bound_b_values` bisects every q at once with `bisect_left`'s
own probe sequence, so each q visits the same w as `bound_b`.  A probe
only compares lhs(w) with the target, so np.log decides it unless the two
sides lie within B_LOG_SLACK (relative) of each other; such a probe is
decided again with math.log.  Theta's Q1 test takes the exponent from the
array factoring `gf.factor_prime_powers`.  `curve_emit` returns one row
per feasible (q, name), q-major; `ac bounds` calls it once per chunk of q
and writes each chunk's rows at once.

`bound_b` (with `default_xi`) and `evaluate_bound`, one q through
`bound_values`, stay for the benchmark tracer in `perfbench/`, which wraps
them by name.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .gf import factor_prime_power, factor_prime_powers, primes_up_to

# largest q the array bounds take; keeps the trial division bounded
BOUNDS_Q_MAX = 10 ** 10


def sqrt_qlnq(q: int) -> float:
    return math.sqrt(q * math.log(q))


def _logs(x: np.ndarray) -> np.ndarray:
    """`math.log` of every element of a float array (see the module docstring)."""
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)


def _q_array(qs) -> np.ndarray:
    """qs as an int64 array; ValueError for q < 5 or q > BOUNDS_Q_MAX.
    The limits are checked before the conversion, so no q is too large
    for int64 or for the trial division that follows."""
    q = np.asarray(qs)
    if q.size and q.min() < 5:
        raise ValueError("q must be >= 5")
    if q.size and q.max() > BOUNDS_Q_MAX:
        raise ValueError(f"q={q[q > BOUNDS_Q_MAX][0]} is above the bounds limit {BOUNDS_Q_MAX}")
    return q.astype(np.int64)


# --- implicit bound A -----------------------------------------------------

@dataclass
class BoundTrace:
    q: int
    steps: list[tuple[int, int]]  # (w, U_w), exact integers
    w_fin: int | None
    feasible: bool

    @property
    def bound(self) -> int | None:
        return None if self.w_fin is None else self.w_fin + 1

    @property
    def star(self) -> float | None:
        return None if self.w_fin is None else self.bound / sqrt_qlnq(self.q)


def bound_a_trace(q: int) -> BoundTrace:
    """Iterate U_{w+1} = U_w - ceil((w-2) U_w / (q+1-w)) exactly from
    U_5 = (q-5)^2 until U hits zero, at the latest in the step at w = q;
    t(q) <= w_fin + 1 when w_fin < (q+3)/2.  At q = 5, U_5 = 0: no bound."""
    if q < 5:
        raise ValueError("q must be >= 5")
    w, u = 5, (q - 5) ** 2
    steps = [(w, u)]
    if u == 0:
        return BoundTrace(q, steps, w_fin=None, feasible=False)
    while u > 0:
        u = u - -((w - 2) * u // -(q + 1 - w))  # u - ceil((w-2)u/(q+1-w)), exact
        w += 1
        steps.append((w, u))
    return BoundTrace(q, steps, w_fin=w - 1, feasible=2 * (w - 1) < q + 3)


_INT64_MAX = int(np.iinfo(np.int64).max)


def bound_a_values(qs) -> list[int | None]:
    """`bound_a_trace(q).bound` for every q in qs, in the order given,
    computed for all distinct q at once in int64 arrays."""
    uniq, inverse = np.unique(_q_array(qs), return_inverse=True)
    values = np.zeros(uniq.size, dtype=np.int64)  # 0: no bound (q = 5)
    live = np.flatnonzero(uniq > 5)
    q = uniq[live]
    u = (q - 5) ** 2  # wraps only where the first guard trips
    w = 5
    while live.size:
        u_max = (int(q[-1]) - 5) ** 2 if w == 5 else int(u.max())
        if (w - 2) * u_max > _INT64_MAX:
            for i in live.tolist():
                values[i] = bound_a_trace(int(uniq[i])).bound
            break
        u += (w - 2) * u // (w - 1 - q)  # u - ceil((w-2)u/(q+1-w)), exact
        w += 1
        done = u <= 0
        if done.any():
            values[live[done]] = w
            keep = ~done
            live, q, u = live[keep], q[keep], u[keep]
    return [int(v) or None for v in values[inverse.ravel()]]


# --- truncated process and bound B ---------------------------------------

def default_xi(q: int) -> float:
    return math.sqrt(q / (3 * math.log(q)))


def bound_b(q: int, xi: float | None = None):
    """Implicit bound B: smallest w < (q+3)/2 with
    w - (q-1) ln((q+1)/(q+1-w)) <= ln(xi/q^2); bound w+1+xi."""
    if q < 5:
        raise ValueError("q must be >= 5")
    if xi is None:
        xi = default_xi(q)
    if xi < 1:
        raise ValueError("xi must be >= 1")
    target = math.log(xi) - 2 * math.log(q)

    def lhs(w):
        return w - (q - 1) * math.log((q + 1) / (q + 1 - w))

    if lhs(1) <= target:
        return 1, 2 + xi
    # lhs decreases for w >= 2, so there the admissible w form a tail
    ws = range(2, (q + 2) // 2 + 1)
    i = bisect_left(ws, True, key=lambda w: lhs(w) <= target)
    return (ws[i], ws[i] + 1 + xi) if i < len(ws) else None


# Relative distance from the target below which a bisection probe of
# `bound_b_values` is decided with math.log: np.log and math.log differ by
# a few units in the last place (about 1e-16 relative), far below it.
B_LOG_SLACK = 1e-12


def bound_b_values(qs) -> tuple[np.ndarray, np.ndarray]:
    """`bound_b(q)` with the default xi for every q of qs, as arrays (w,
    value), with w = 0 and value nan where no admissible w exists."""
    q = _q_array(qs)
    qf = q.astype(np.float64)
    lq = _logs(qf)
    xi = np.sqrt(qf / (3 * lq))
    target = _logs(xi) - 2 * lq

    def admissible(q, w, target):  # lhs(w) <= target
        w = np.broadcast_to(w, q.shape)
        ratio = (q + 1) / (q + 1 - w)
        scaled = (q - 1) * np.log(ratio)
        ok = w - scaled <= target
        near = np.abs(w - scaled - target) <= B_LOG_SLACK * (w + scaled)
        if near.any():
            ok[near] = w[near] - (q[near] - 1) * _logs(ratio[near]) <= target[near]
        return ok

    w = np.where(admissible(q, 1, target), 1, 0)
    # bisect_left over ws = range(2, (q+2)//2 + 1) for every q with w != 1
    idx = np.flatnonzero(w == 0)
    size = (q[idx] + 2) // 2 - 1  # len(ws)
    lo, hi = np.zeros_like(size), size.copy()
    while (act := np.flatnonzero(lo < hi)).size:
        mid = (lo[act] + hi[act]) // 2
        ok = admissible(q[idx[act]], mid + 2, target[idx[act]])
        hi[act[ok]] = mid[ok]
        lo[act[~ok]] = mid[~ok] + 1
    found = lo < size
    w[idx[found]] = lo[found] + 2
    return w, np.where(w > 0, (w + 1) + xi, np.nan)


# --- explicit bounds ------------------------------------------------------

def _phi(qf: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Phi(q) = sqrt(q (3 ln q + ln ln q + ln 3)) + sqrt(q / (3 ln q)) + 4
    from q and log q as float arrays."""
    return np.sqrt(qf * (3 * lq + _logs(lq) + math.log(3))) + np.sqrt(qf / (3 * lq)) + 4


def bound_c_values(qs) -> np.ndarray:
    """Bound C, Phi(q), for every q of qs."""
    qf = _q_array(qs).astype(np.float64)
    return _phi(qf, _logs(qf))


def theta_values(qs) -> np.ndarray:
    """Piecewise best bound Theta(q) for every q of qs; ValueError unless
    every q is a prime power."""
    q = _q_array(qs)
    _, m = factor_prime_powers(q)
    if not m.all():
        raise ValueError(f"q={q[m == 0][0]} is not a prime power")
    qf = q.astype(np.float64)
    lq = _logs(qf)
    s = np.sqrt(qf * lq)
    t = np.minimum(1.835 * s, _phi(qf, lq))
    for coef, cond in ((1.62, (8 <= q) & (q <= 17041)),
                       (1.635, (17041 < q) & (q <= 33013)),
                       (1.674, (m >= 2) & (8 <= q) & (q <= 139129))):  # Q1
        t = np.where(cond, np.minimum(t, coef * s), t)
    return t


_THEOREM41_EXTRA_Q = (160801, 208849, 253009)


def theorem41_bound(q: int):
    """(coefficient, bound) from the computer-search ranges; the range
    conditions are implemented literally as printed, including the stray
    single-q memberships for q=11 and q=7."""
    pm = factor_prime_power(q)
    if pm is None:
        raise ValueError(f"q={q} is not a prime power")
    coefs = []
    if 8 <= q <= 887 and q != 11:
        coefs.append(1.525)
    if 887 < q <= 1553:
        coefs.append(1.548)
    if 1553 < q <= 2351 or q == 11:
        coefs.append(1.572)
    if 2351 < q <= 4027:
        coefs.append(1.585)
    if 4027 < q <= 17041:
        coefs.append(1.620)
    if 17041 < q <= 33013 or q == 7:
        coefs.append(1.635)
    if pm[1] >= 2 and 8 <= q <= 139129:  # Q1
        coefs.append(1.674)
    if q in _THEOREM41_EXTRA_Q:
        coefs.append(1.686)
    if not coefs:
        raise ValueError(f"q={q} outside all computer-search ranges")
    c = min(coefs)
    return c, c * sqrt_qlnq(q)


# --- curve emission -------------------------------------------------------

BOUND_NAMES = ("A", "B", "C", "theta")


def evaluate_bound(name: str, q: int):
    """Bound value for one prime power q >= 5, or None where it is infeasible."""
    value = float(bound_values(name, [q])[0])
    return None if math.isnan(value) else value


def bound_values(name: str, qs) -> np.ndarray:
    """Bound `name` (one of BOUND_NAMES) for every q of qs as a float
    array, nan where the bound is infeasible."""
    if name == "A":
        return np.array([np.nan if a is None else a for a in bound_a_values(qs)],
                        dtype=np.float64)
    if name == "B":
        return bound_b_values(qs)[1]
    if name == "C":
        return bound_c_values(qs)
    if name == "theta":
        return theta_values(qs)
    raise ValueError(f"unknown bound name {name!r}")


def curve_emit(q_grid, names):
    """Rows (q, name, value, value/sqrt(q ln q)), q-major; infeasible pairs
    skipped.  Each named curve is one `bound_values` pass over the grid."""
    qf = _q_array(q_grid).astype(np.float64)
    s = np.sqrt(qf * _logs(qf))  # sqrt_qlnq
    values = np.empty((qf.size, len(names)))
    for j, name in enumerate(names):
        values[:, j] = bound_values(name, q_grid)
    i, j = np.nonzero(~np.isnan(values))  # row-major: q-major
    v = values[i, j]
    return list(zip(map(q_grid.__getitem__, i.tolist()), map(names.__getitem__, j.tolist()),
                    v.tolist(), (v / s[i]).tolist()))


def prime_powers_up_to(limit: int) -> list[int]:
    """All prime powers in [5, limit], ascending.  The powers p^k of one
    exponent k stay ascending in p, so those with p^(k+1) <= limit are a
    prefix of them."""
    primes = primes_up_to(limit)
    parts, pk = [primes], primes
    while n := int(np.count_nonzero(pk <= limit // primes[:pk.size])):
        pk = pk[:n] * primes[:n]
        parts.append(pk)
    out = np.sort(np.concatenate(parts))
    return out[out >= 5].tolist()
