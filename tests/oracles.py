"""Reference readers shared by the tests, imported as `from oracles import ...`.

They answer questions the library itself never asks: the coordinates of
the M-points, the M-points of one bisecant, the coverage of a subset as a
bitset, the covered set and the gain of every candidate of a
`CoverageState`, sigma_P(t) from the coordinates of P, the
exhaustive search with the plain DFS, the arc test by (N+1)-minors, and
the kind of a point of PG(2,q) by its discriminant.

They also hold the scalar bound curves, one q at a time in plain Python
floats: bound C (Phi), Theta and its Q1 test, the truncated product f_q
with the Theorem 3.2 scan, and the Theorem 3.4 family.  The library
evaluates B, C and Theta only as arrays, in `conicac.bounds`; the tests
check those arrays against `scalar_bound` bit for bit.
"""

import math
from itertools import combinations, islice

import numpy as np

from conicac import search
from conicac.bounds import bound_a_trace, bound_b, sqrt_qlnq
from conicac.geometry import pack_mask, pg_points
from conicac.gf import factor_prime_power, field_tables
from conicac.search import _covered_flags


def m_coords(model):
    """The M-points as a 3 x |M_q| int64 coordinate array in M-index order:
    the points of `pg_points` off the conic, less the nucleus of even q."""
    mul = field_tables(model.ctx)[1]
    x0, x1, x2 = pg_points(model.ctx, 2).T.astype(np.int64)
    off = mul[x1, x1] != mul[x0, x2]
    if model.nucleus is not None:
        off &= (x0 != 0) | (x2 != 0)
    return np.stack([x0[off], x1[off], x2[off]])


def bisecant_mpoints(model, t1, t2):
    """Sorted M_q indices on the line through conic points t1, t2."""
    if t1 == t2:
        raise ValueError("bisecant needs two distinct parameters")
    return np.flatnonzero(model.sigma(t1, model.key) == t2).tolist()


def coverage_mask(model, subset) -> int:
    """Bitmask over M_q of the points on some bisecant of the subset."""
    return pack_mask(_covered_flags(model, subset))


def covered(state) -> int:
    """Bitmask over M_q of the points a `CoverageState` has covered, read
    from its covered flags, or from the keys `uncov` once it holds those
    instead; the keys map to M-indices through `model.key`."""
    key = state.model.key
    if state.uncov is None:
        listed = np.sort(state._cov[:state._ncov])
        assert np.array_equal(listed, np.sort(key[state.covered])), "key list != flags"
        return pack_mask(state.covered)
    return pack_mask(~np.isin(key, state.uncov))


def gains(state) -> dict[int, int]:
    """Number of newly covered points for each unchosen parameter."""
    return {t: int(state.gain[t]) for t in state.unchosen()}


def closed_form_sigma(model):
    """sigma_P(t) = (x1*t - x2) / (x0*t - x1) from `field_tables` and
    `m_coords`, with no model table: sigma(t, idx) for the M-points of the
    M-index array idx, the reference for `model.sigma(t, model.key[idx])`,
    with t a parameter code or a 1-D array of codes, one row per code.  A
    zero denominator gives inf (q), and t = inf gives x1/x0 where x0 = 1,
    otherwise inf; a fixed point gives t itself."""
    q = model.q
    add, mul, neg, inv = field_tables(model.ctx)
    x0, x1, x2 = m_coords(model)

    def sigma(t, idx):
        t = np.asarray(t)[..., None]
        a, b, c = x0[idx], x1[idx], x2[idx]
        finite = np.where(t == q, 0, t)
        den = add[mul[finite, a], neg[b]]
        num = add[mul[finite, b], neg[c]]
        value = np.where(den == 0, q, mul[num, inv[den]])
        return np.where(t == q, np.where(a == 1, b, q), value)

    return sigma


def reference_min_ac(model):
    """`exhaustive_min_ac` with the plain DFS: each node ORs the pair masks of
    its new point with the whole subset, and checks full cover, size and
    the C(s+r,2) counting bound itself.  The seed and the bases come from
    `search.randomized_greedy` and `search._canonical_bases`, read at call
    time, so a test that patches them patches both searches."""
    q, params, full, qm1 = model.q, model.params, model.full_mask, model.q - 1
    pair = [[model.pair_mask(t, u) for u in params] for t in params]

    def cover(subset):
        mask = 0
        for t, u in combinations(subset, 2):
            mask |= pair[t][u]
        return mask

    def smallest_ac(sizes, subsets):
        for s in sizes:
            if math.comb(s, 2) * qm1 < model.m_size:
                continue
            for sub in subsets(s):
                if cover(sub) == full:
                    return s, list(sub)
        return None

    if q <= 7:
        return smallest_ac(range(3, q + 1), lambda s: combinations(params, s))
    start = search.randomized_greedy(model, seed=0, restarts=20)
    best_size, best_witness = start.size, list(start.witness)
    base_size = min(max(3, best_size - 4), 10)
    if smaller := smallest_ac(range(3, base_size), lambda s: search._canonical_bases(model, s)):
        return smaller

    def extend(subset, covered, cand_from):
        nonlocal best_size, best_witness
        s = len(subset)
        if covered == full:
            if s < best_size:
                best_size, best_witness = s, list(subset)
            return
        if s + 1 >= best_size:
            return
        r = best_size - 1 - s
        if (math.comb(s + r, 2) - math.comb(s, 2)) * qm1 < model.m_size - covered.bit_count():
            return
        for j, t in enumerate(cand_from):
            mask = covered
            for u in subset:
                mask |= pair[t][u]
            extend(subset + [t], mask, cand_from[j + 1:])

    for base in search._canonical_bases(model, base_size):
        extend(list(base), cover(base), [t for t in params if t not in base])
    return best_size, best_witness


def _det(ctx, rows) -> int:
    """Determinant over GF(q) by Gaussian elimination with pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = ctx.neg(det)
        det = ctx.mul(det, a[col][col])
        inv = ctx.inv(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = ctx.mul(a[r][col], inv)
                for c in range(col, n):
                    a[r][c] = ctx.sub(a[r][c], ctx.mul(f, a[col][c]))
    return det


def is_arc(points, n_dim: int, ctx) -> bool:
    """True iff every (N+1)-subset of the points is linearly independent."""
    for pt in points:
        if len(pt) != n_dim + 1:
            raise ValueError("point dimension mismatch")
    for sub in combinations(points, n_dim + 1):
        if _det(ctx, sub) == 0:
            return False
    return True


def classify_point(model, P) -> str:
    """Kind of the point P (any nonzero triple): on-conic, nucleus, m-even,
    or, for odd q, external or internal as x1^2 - x0*x2 is a nonzero
    square or a non-square."""
    ctx, q = model.ctx, model.q
    x0, x1, x2 = P
    disc = ctx.sub(ctx.mul(x1, x1), ctx.mul(x0, x2))
    if disc == 0:
        return "on-conic"
    if q % 2 == 0:
        return "nucleus" if x0 == x2 == 0 else "m-even"
    return "external" if ctx.pow(disc, (q - 1) // 2) == 1 else "internal"


# --- scalar bound curves --------------------------------------------------

def is_prime_power(q: int) -> bool:
    return factor_prime_power(q) is not None


def in_q1(q: int) -> bool:
    """Non-prime prime powers 8 <= q <= 139129."""
    pm = factor_prime_power(q)
    return pm is not None and pm[1] >= 2 and 8 <= q <= 139129


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
    if factor_prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    s = sqrt_qlnq(q)
    candidates = [min(1.835 * s, bound_c_phi(q))]
    if 8 <= q <= 17041:
        candidates.append(1.62 * s)
    if 17041 < q <= 33013:
        candidates.append(1.635 * s)
    if in_q1(q):
        candidates.append(1.674 * s)
    return min(candidates)


def scalar_bound(name: str, q: int):
    """Bound `name` at one prime power q >= 5 from the scalar curves, or
    None where it is infeasible."""
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
