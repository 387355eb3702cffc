"""Normal rational curves in PG(N,q), generalized doubly-extended
Reed-Solomon generator matrices, brute-force completeness checks, and the
odd-prime thresholds p0(h) for completeness in PG(N, p^(2h+1)).

The curve point with parameter t is (1, t, ..., t^N); the parameter q
stands for inf, the point (0, ..., 0, 1).  The hyperplane through the
points with parameters T is sum a_k x_k = 0, where
prod_{t in T, t != inf} (x - t) = sum a_k x^k: the polynomial vanishes at
every finite t in T, and a_N = 0 exactly when inf is in T.  The
completeness check builds every hyperplane from this product and returns
the points that extend the arc in lexicographic order.

`p0_solve` walks the odd primes in increasing order from a block sieve,
PRIME_BLOCK odd numbers at a time, and tests each with the scalar margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .geometry import pg_points
from .gf import FieldCtx, field_tables, is_prime, primes_up_to  # is_prime: re-exported
from .bounds import theta_values

COMPLETENESS_GUARD = 10 ** 8  # refuse instances with q^N beyond this
PRIME_BLOCK = 1 << 15  # odd numbers per block of the `_odd_primes` sieve


def _odd_primes():
    """The odd primes in increasing order; block i covers the odd n in
    [lo, lo + 2*PRIME_BLOCK), lo = 3 + 2*PRIME_BLOCK*i, index j <-> n = lo + 2j."""
    lo = 3
    while True:
        hi = lo + 2 * PRIME_BLOCK
        flags = np.ones(PRIME_BLOCK, dtype=bool)
        for p in primes_up_to(math.isqrt(hi - 1))[1:].tolist():  # the odd ones
            start = max(p * p, -(-lo // p) * p)  # first multiple >= lo; from p^2, so p stays
            if start % 2 == 0:
                start += p
            flags[(start - lo) // 2::p] = False
        yield from (lo + 2 * np.flatnonzero(flags)).tolist()
        lo = hi


# --- p0(h) thresholds -----------------------------------------------------

def _c_schedule(h: int) -> float:
    if h == 1:
        return 1.525
    if h == 2:
        return 1.548
    if h == 3:
        return 1.572
    if h in (4, 5):
        return 1.585
    if 6 <= h <= 19:
        return 1.62
    if 20 <= h <= 28:
        return 1.635
    return 1.835


@dataclass
class P0Entry:
    h: int
    c: float
    p0: int
    check_value: float  # residual sqrt(p0) - rhs at p0, > 0


def _p0_margin(p: int, h: int, c: float) -> float:
    rhs = 4 * c * math.sqrt((2 * h + 1) * math.log(p))
    try:
        rhs += 29 / (4 * p ** (h - 0.5))
    except OverflowError:
        pass  # denominator overflow: the term is 0 to double precision
    try:
        rhs -= 20 / p ** (h + 0.5)
    except OverflowError:
        pass
    return math.sqrt(p) - rhs


# The published thresholds carry 3-4 significant digits; two of them sit a
# few parts in 10^5 below the exact binary64 crossing.  This relative slack
# on the margin reproduces the published tables.
P0_REL_TOL = 8e-5
# primes after p0 that must also clear the threshold: the correction terms
# can be locally non-monotone near the crossing
P0_PERSISTENCE = 10


def p0_solve(h: int, c_override: float | None = None) -> P0Entry:
    """Smallest odd prime where sqrt(p) exceeds the threshold, up to
    P0_REL_TOL, and keeps exceeding it for the next P0_PERSISTENCE primes."""
    if h < 1:
        raise ValueError("h must be >= 1")
    c = c_override if c_override is not None else _c_schedule(h)
    if not (math.isfinite(c) and c > 0):  # nan or inf never crosses, c <= 0 at p=3
        raise ValueError(f"c={c} must be finite and > 0")
    window: list[int] = []
    for p in _odd_primes():
        if _p0_margin(p, h, c) > -P0_REL_TOL * math.sqrt(p):
            window.append(p)
            if len(window) == P0_PERSISTENCE + 1:
                p0 = window[0]
                return P0Entry(h=h, c=c, p0=p0, check_value=_p0_margin(p0, h, c))
        else:
            window.clear()


# --- normal rational curves ----------------------------------------------

def _check_dimension(q: int, n_dim: int) -> None:
    if not 2 <= n_dim <= q - 2:
        raise ValueError(f"need 2 <= N <= q-2, got N={n_dim}, q={q}")


@dataclass
class NrcArc:
    """The normal rational curve in PG(N,q), N = n_dim, q = field.q."""
    n_dim: int
    field: FieldCtx

    def __post_init__(self):
        _check_dimension(self.field.q, self.n_dim)

    @cached_property
    def points(self) -> list[tuple[int, ...]]:
        """The q+1 canonical points: (1, t, ..., t^N) for t = 0..q-1, then
        (0, ..., 0, 1) for inf."""
        ctx, n_dim = self.field, self.n_dim
        pts = [tuple(ctx.pow(t, k) for k in range(n_dim + 1)) for t in range(ctx.q)]
        pts.append((0,) * n_dim + (1,))
        return pts


def nrc_points(ctx: FieldCtx, n_dim: int) -> NrcArc:
    """The normal rational curve in PG(N,q); ValueError unless 2 <= N <= q-2."""
    return NrcArc(n_dim=n_dim, field=ctx)


def gdrs_generator(ctx: FieldCtx, n_dim: int, alphas, vs, v_last: int):
    """(N+1) x (q+1) GDRS generator matrix as a list of column tuples.  The
    columns are nonzero multiples of distinct NRC points, so every (N+1)-minor
    is a nonzero multiple of a Vandermonde determinant and the code is MDS."""
    q = ctx.q
    if len(set(alphas)) != len(alphas) or len(alphas) != q:
        raise ValueError("alphas must be q pairwise distinct elements")
    if any(v == 0 for v in vs) or len(vs) != q or v_last == 0:
        raise ValueError("scalings must be nonzero")
    cols = [tuple(ctx.mul(v, ctx.pow(a, k)) for k in range(n_dim + 1))
            for a, v in zip(alphas, vs)]
    cols.append((0,) * n_dim + (v_last,))
    return cols


# --- brute-force completeness --------------------------------------------

def check_completeness_size(q: int, n_dim: int) -> None:
    """Refuse N outside [2, q-2] or q^N > COMPLETENESS_GUARD without a field
    or q^N: q^min(N, 27) exceeds the guard exactly when q^N does (2^27 > 10^8)."""
    _check_dimension(q, n_dim)
    if q ** min(n_dim, 27) > COMPLETENESS_GUARD:
        raise ValueError(f"instance too large: q^N > {COMPLETENESS_GUARD}")


def completeness_brute(arc: NrcArc):
    """All points P outside the arc with arc u {P} still an arc.

    P extends the arc iff it avoids every hyperplane spanned by N arc
    points.  Each hyperplane comes from the product over its parameters
    (see the module docstring) and is screened only against the points
    that no earlier hyperplane has hit; the survivors come out in the
    lexicographic order of `pg_points`."""
    ctx, n_dim = arc.field, arc.n_dim
    q = ctx.q
    check_completeness_size(q, n_dim)
    pts = pg_points(ctx, n_dim)  # Fortran order: contiguous columns
    add, mul, neg, _ = field_tables(ctx)
    # tables in the point dtype keep every per-point temporary as narrow as pts
    add, mul = add.astype(pts.dtype), mul.astype(pts.dtype)
    cand = np.arange(len(pts), dtype=np.int32)
    for params in combinations(range(q + 1), n_dim):
        coef = np.zeros(n_dim + 1, dtype=np.int64)
        coef[0] = 1
        for t in params:
            if t < q:  # multiply by (x - t); inf (code q) adds no factor
                coef[1:] = add[coef[:-1], mul[neg[t], coef[1:]]]
                coef[0] = mul[neg[t], coef[0]]
        dot = np.zeros(len(cand), dtype=pts.dtype)
        for i in np.nonzero(coef)[0]:
            dot = add[dot, mul[coef[i]].take(pts[:, i].take(cand))]
        cand = cand[dot != 0]
        if cand.size == 0:
            break
    return [tuple(int(x) for x in pts[i]) for i in cand]


# --- completeness ranges --------------------------------------------------

def corollary11_range(q: int):
    """Integer N-range [3, floor(q+2-Theta(q))] or None when empty."""
    hi = math.floor(q + 2 - theta_values([q])[0])
    return (3, hi) if hi >= 3 else None
