"""Upper bounds on the smallest AC-subset size t(q).

Implicit bound A is an exact-integer recursion on worst-case uncovered
counts; the remaining bounds are closed-form or short scans in binary64.
Starred values divide a bound by sqrt(q ln q).

`bound_a_values` runs the A recursion for a whole q-grid at once in int64
numpy arrays: every q starts at w = 5, so one step advances all q still
live, and a q leaves the live set in the step where its U drops to 0 or
below.  Before each step it checks that (w-2) * max(U) fits in int64;
when it would not, the q still live are finished with the Python-int
`bound_a_trace`.  On the fig2 grid (q <= 1.4e7) the product peaks at
4.4e17, under 5% of the int64 maximum; the guard first trips between
q = 4.5e7 and 5e7.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .gf import factor_prime_power


def sqrt_qlnq(q: int) -> float:
    return math.sqrt(q * math.log(q))


def is_prime_power(q: int) -> bool:
    return factor_prime_power(q) is not None


def _q1(q: int, pm) -> bool:
    """`in_q1` for a q already factored: pm = factor_prime_power(q)."""
    return pm is not None and pm[1] >= 2 and 8 <= q <= 139129


def in_q1(q: int) -> bool:
    """Non-prime prime powers 8 <= q <= 139129."""
    return _q1(q, factor_prime_power(q))


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
    uniq, inverse = np.unique(np.asarray(qs, dtype=np.int64), return_inverse=True)
    if uniq.size and uniq[0] < 5:
        raise ValueError("q must be >= 5")
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

def _f_q_logs(q: int):
    """log f_q(w) for w = 1, 2, ...: running sums of log(1 - (i-2)/(q+1-i))."""
    total = 0.0
    for i in range(1, q + 1):
        factor = 1.0 - (i - 2) / (q + 1 - i)
        if factor <= 0:
            raise ValueError(f"nonpositive factor at i={i} (w too large)")
        total += math.log(factor)
        yield total


def f_q_log(q: int, w: int) -> float:
    """Natural log of the product prod_{i=1..w} (1 - (i-2)/(q+1-i))."""
    if not 1 <= w < q + 1:
        raise ValueError("need 1 <= w < q+1")
    return next(islice(_f_q_logs(q), w - 1, None))


def bound_theorem32(q: int, xi: float):
    """Smallest w < (q+3)/2 with log f_q(w) <= log(xi/q^2); bound w+1+xi.
    Returns None when no admissible w exists."""
    if xi < 1:
        raise ValueError("xi must be >= 1")
    target = math.log(xi) - 2 * math.log(q)
    w_max = (q + 2) // 2  # largest integer < (q+3)/2
    for w, log_f in zip(range(1, w_max + 1), _f_q_logs(q)):
        if log_f <= target:
            return w, w + 1 + xi
    return None


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


# --- explicit bounds ------------------------------------------------------

def bound_c_phi(q: int) -> float:
    """Phi(q) = sqrt(q (3 ln q + ln ln q + ln 3)) + sqrt(q / (3 ln q)) + 4."""
    if q < 5:
        raise ValueError("q must be >= 5")
    lnq = math.log(q)
    return math.sqrt(q * (3 * lnq + math.log(lnq) + math.log(3))) + math.sqrt(q / (3 * lnq)) + 4


def bound_theorem34(q: int, xi: float) -> float:
    """sqrt(2q) sqrt(ln(q^2/xi)) + xi + 4 for arbitrary xi >= 1."""
    if xi < 1:
        raise ValueError("xi must be >= 1")
    if xi > q * q:
        raise ValueError("xi > q^2: log domain")
    return math.sqrt(2 * q) * math.sqrt(2 * math.log(q) - math.log(xi)) + xi + 4


def theta(q: int) -> float:
    """Piecewise best bound Theta(q); defined for prime powers q >= 5."""
    if q < 5:
        raise ValueError("q must be >= 5")
    pm = factor_prime_power(q)
    if pm is None:
        raise ValueError(f"q={q} is not a prime power")
    s = sqrt_qlnq(q)
    candidates = [min(1.835 * s, bound_c_phi(q))]
    if 8 <= q <= 17041:
        candidates.append(1.62 * s)
    if 17041 < q <= 33013:
        candidates.append(1.635 * s)
    if _q1(q, pm):
        candidates.append(1.674 * s)
    return min(candidates)


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
    if _q1(q, pm):
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
    if name == "A":
        bound = bound_a_trace(q).bound
        return float(bound) if bound is not None else None
    if name == "B":
        res = bound_b(q)
        return res[1] if res is not None else None
    if name == "C":
        return bound_c_phi(q)
    if name == "theta":
        return theta(q)
    raise ValueError(f"unknown bound name {name!r}")


def curve_emit(q_grid, names):
    """Rows (q, name, value, value/sqrt(q ln q)), q-major; infeasible pairs
    skipped.  Bound A comes from one `bound_a_values` pass over the grid."""
    a_values = bound_a_values(q_grid) if "A" in names else None
    rows = []
    for i, q in enumerate(q_grid):
        for name in names:
            if name == "A":
                value = None if a_values[i] is None else float(a_values[i])
            else:
                value = evaluate_bound(name, q)
            if value is None:
                continue
            rows.append((q, name, value, value / sqrt_qlnq(q)))
    return rows


def prime_powers_up_to(limit: int):
    """All prime powers in [5, limit], ascending (simple sieve)."""
    n = limit + 1
    flags = bytearray([1]) * n
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    out = []
    for p in range(2, n):
        if flags[p]:
            pk = p
            while pk <= limit:
                if pk >= 5:
                    out.append(pk)
                pk *= p
    return sorted(out)
