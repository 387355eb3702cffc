"""Normal rational curves in PG(N,q), brute-force completeness checks, and
the odd-prime thresholds p0(h) for completeness in PG(N, p^(2h+1)).

The curve point with parameter t is (1, t, ..., t^N); the parameter q
stands for inf, the point (0, ..., 0, 1).  The hyperplane through the
points with parameters T is sum a_k x_k = 0, where
prod_{t in T, t != inf} (x - t) = sum a_k x^k: the polynomial vanishes at
every finite t in T, and a_N = 0 exactly when inf is in T.  The
completeness check walks the sorted (N-1)-prefixes of finite parameters:
for the product over a prefix, two dot products per point decide every
hyperplane that completes it (see `completeness_brute`).  Its first
SCREEN_HEAD prefixes meet the points of PG(N,q) one closed-form block of
`point_blocks` at a time, so no array holds every point.  It returns the
points that extend the arc in lexicographic order.

`p0_solve` walks the odd primes in increasing order from a block sieve,
PRIME_BLOCK odd numbers at a time, and tests each with the scalar margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np

from .gf import FieldCtx, field_tables, is_prime, primes_up_to  # is_prime: re-exported
from .bounds import theta_values

# Refuse instances with q^N beyond this.  Memory follows SCREEN_BLOCK and
# the survivors, not q^N, so the guard bounds time: (97,4), q^N = 8.9e7,
# takes about 2 s.
COMPLETENESS_GUARD = 10 ** 8
PRIME_BLOCK = 1 << 15  # odd numbers per block of the `_odd_primes` sieve
SCREEN_BLOCK = 1 << 16  # most points per block of the completeness screen
SCREEN_HEAD = 8  # prefixes screened block by block before the survivors are joined


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
    for top, c in ((1, 1.525), (2, 1.548), (3, 1.572), (5, 1.585), (19, 1.62), (28, 1.635)):
        if h <= top:  # the c of the h in (previous top, top]
            return c
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
# Largest p0 `p0_solve` walks to.  The walk covered 7-9M integers a second
# on a 2-vCPU VM (p0(50000) = 99,183,493 in 11 s): about 2 minutes to here.
P0_MAX = 10 ** 9


def p0_solve(h: int, c_override: float | None = None) -> P0Entry:
    """Smallest odd prime where sqrt(p) exceeds the threshold, up to
    P0_REL_TOL, and keeps exceeding it for the next P0_PERSISTENCE primes."""
    if h < 1:
        raise ValueError("h must be >= 1")
    c = c_override if c_override is not None else _c_schedule(h)
    # c <= 0 would cross at p=3.  For p >= 3 the correction terms add to the
    # threshold, so a crossing needs sqrt(p)(1 + P0_REL_TOL) > 4c sqrt((2h+1) ln p);
    # p / ln p increases, so past this bound p0 > P0_MAX (nan and inf never cross)
    if not (c > 0 and 16 * c * c * (2 * h + 1) < (1 + P0_REL_TOL) ** 2 * P0_MAX / math.log(P0_MAX)):
        raise ValueError(f"c={c} must be > 0 and put p0(h={h}) below the walk limit {P0_MAX}")
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


def nrc_points(ctx: FieldCtx, n_dim: int) -> NrcArc:
    """The normal rational curve in PG(N,q); ValueError unless 2 <= N <= q-2."""
    return NrcArc(n_dim=n_dim, field=ctx)


# --- brute-force completeness --------------------------------------------

def check_completeness_size(q: int, n_dim: int) -> None:
    """Refuse N outside [2, q-2] or q^N > COMPLETENESS_GUARD without a field
    or q^N: q^min(N, 27) exceeds the guard exactly when q^N does (2^27 > 10^8)."""
    _check_dimension(q, n_dim)
    if q ** min(n_dim, 27) > COMPLETENESS_GUARD:
        raise ValueError(f"instance too large: q^N > {COMPLETENESS_GUARD}")


def point_blocks(q: int, n_dim: int):
    """The canonical points of PG(N,q), in lexicographic order with
    (0,...,0,1) first, as blocks (fixed, tail) of at most SCREEN_BLOCK
    points (one point when SCREEN_BLOCK < q).  A block fixes the leading 1
    and every digit but the last f: fixed holds the first N+1-f coordinates
    as ints, tail the last f as contiguous columns in the smallest unsigned
    dtype that holds q-1.  Every tail is a view of one repeat/tile template
    of the last F digits, F the largest f in use: its first q^f rows are
    the template of f digits."""
    dtype = np.min_scalar_type(q - 1)
    big = 0
    while big < n_dim and q ** (big + 1) <= SCREEN_BLOCK:
        big += 1
    digits = np.arange(q, dtype=dtype)
    template = [np.tile(np.repeat(digits, q ** (big - 1 - j)), q ** j) for j in range(big)]
    for lead in range(n_dim, -1, -1):
        f = min(n_dim - lead, big)
        tail = [x[:q ** f] for x in template[big - f:]]
        for fixed in product(range(q), repeat=n_dim - lead - f):
            yield (0,) * lead + (1,) + fixed, tail


def completeness_brute(arc: NrcArc):
    """All points P outside the arc with arc u {P} still an arc.

    P extends the arc iff it avoids every hyperplane spanned by N arc
    points.  Each hyperplane has exactly one sorted prefix T' of N-1 finite
    parameters, so the walk visits the (N-1)-subsets of 0..q-1 in
    `combinations` order and settles every hyperplane through T' at once.
    With prod_{t in T'} (x - t) = sum a_k x^k, put u = sum a_k x_k and
    v = sum a_k x_{k+1}: P lies on the hyperplane of T' u {t} iff v = t*u,
    and on that of T' u {inf} iff u = 0.  So P is hit iff v/u (inf when
    u = 0) is above max(T').  Only the points that no earlier prefix has
    hit are screened; the survivors come out in lexicographic order.

    An instance of more than SCREEN_BLOCK points meets its first SCREEN_HEAD
    prefixes one `point_blocks` block at a time, so memory follows the
    block and the survivors, not PG(N,q).  In a block u and v are the sum
    over the fixed coordinates, one scalar, plus the sum over the tail,
    which is the same for every block with f tail digits and is made once
    per f."""
    ctx, n_dim = arc.field, arc.n_dim
    q = ctx.q
    check_completeness_size(q, n_dim)
    dtype = np.min_scalar_type(q - 1)
    add, mul, neg, inv = field_tables(ctx, dtype)
    quot = mul[inv].astype(np.min_scalar_type(q), copy=False)  # quot[u, v] = v/u
    quot[0] = q  # inf
    flat, quot = add.ravel(), quot.ravel()
    # the tables, u, v and every partial sum stay in the point dtype; only
    # the flat indices a*q + b widen, to the smallest dtype that holds q^2 - 1
    wide = np.min_scalar_type(q * q - 1)

    def dot(coef, xs):  # sum a_k xs[k] over the nonzero a_k; a_{N-1} = 1
        acc = xs[-1]
        for a, x in zip(coef[:-1], xs[:-1]):
            if a:
                acc = flat.take(np.multiply(acc, q, dtype=wide) + mul[a].take(x))
        return acc

    def scalar_dot(coef, xs):  # the same sum over int coordinates
        acc = 0
        for a, x in zip(coef, xs):
            if a and x:
                acc = int(add[acc, mul[a, x]])
        return acc

    def prefixes():  # (a_0..a_{N-1}, max T') for each prefix T', in order
        polys, last = [[1] + [0] * (n_dim - 1)], ()  # polys[j]: the product over T'[:j]
        for prefix in combinations(range(q), n_dim - 1):
            same = next((j for j, (s, t) in enumerate(zip(last, prefix)) if s != t), 0)
            del polys[same + 1:]
            for t in prefix[same:]:  # multiply by (x - t), constant first
                c, m = polys[-1], mul[neg[t]]
                polys.append([int(m[c[0]])] + [int(add[a, m[b]]) for a, b in zip(c, c[1:])])
            last = prefix
            yield polys[-1], prefix[-1]

    walk = prefixes()
    total = (q ** (n_dim + 1) - 1) // (q - 1)
    head = list(islice(walk, SCREEN_HEAD)) if total > SCREEN_BLOCK else []
    tails = {}  # f -> (u, v) over the tail for each head prefix
    parts = []
    for fixed, tail in point_blocks(q, n_dim):
        f = len(tail)
        if f not in tails:
            cols = [np.zeros(q ** f, dtype=dtype)] * (n_dim + 1 - f) + tail
            tails[f] = [(dot(coef, cols[:-1]), dot(coef, cols[1:])) for coef, _ in head]
        idx = None  # the block's survivors; None while every point survives
        for (coef, top), (u, v) in zip(head, tails[f]):
            if idx is not None:
                u, v = u.take(idx), v.take(idx)
            su, sv = scalar_dot(coef, fixed), scalar_dot(coef, fixed[1:])
            u = add[su].take(u) if su else u
            v = add[sv].take(v) if sv else v
            keep = quot.take(v + np.multiply(u, q, dtype=wide)) <= top
            idx = np.flatnonzero(keep) if idx is None else idx.compress(keep)
            if not idx.size:
                break
        size = q ** f if idx is None else idx.size
        parts.append([np.full(size, x, dtype=dtype) for x in fixed]
                     + [x if idx is None else x.take(idx) for x in tail])
    cols = [np.concatenate(c) for c in zip(*parts)]
    del parts
    for coef, top in walk:
        if not cols[0].size:
            break
        # key = v + u*q; v first, so only the narrow v is held while u is summed
        key = dot(coef, cols[1:]) + np.multiply(dot(coef, cols[:-1]), q, dtype=wide)
        keep = quot.take(key) <= top
        cols = [x.compress(keep) for x in cols]
    return list(zip(*(x.tolist() for x in cols)))


# --- completeness ranges --------------------------------------------------

def corollary11_range(q: int):
    """Integer N-range [3, floor(q+2-Theta(q))] or None when empty."""
    hi = math.floor(q + 2 - theta_values([q])[0])
    return (3, hi) if hi >= 3 else None
