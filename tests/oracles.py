"""Reference readers shared by the tests, imported as `from oracles import ...`.

They answer questions the library itself never asks: every point of
PG(N,q) in one array, the coordinates of the M-points, the M-points of
one bisecant, the coverage of a subset as a bitset, the covered set and
the gain of every candidate of a `CoverageState`, sigma_P(t) from the
coordinates of P, the model's sigma tables from the q x q field tables,
the canonical bases of one size by filtering every candidate, the
exhaustive search with the plain DFS, the arc test by (N+1)-minors, the
NRC completeness check one hyperplane at a time, and the kind of a point
of PG(2,q) by its discriminant.

They also hold the scalar bound curves, one q at a time in plain Python
floats: bound C (Phi), Theta and its Q1 test, the truncated product f_q
with the Theorem 3.2 scan, and the Theorem 3.4 family.  The library
evaluates B, C and Theta only as arrays, in `conicac.bounds`; the tests
check those arrays against `scalar_bound` bit for bit.

Seven helpers that only the tests call live here rather than in the
library: `field_pow` (a power in F_q from the field's log tables),
`nucleus` (the common point of the tangents for even q), `parse_param` (a
parameter name back to its code), `m_index` (the M-index of coordinate
arrays in closed form), `is_minimal_ac`, `curve_points` (the points of an
NRC) and `gdrs_generator` (a GDRS generator matrix).
"""

import math
from itertools import chain, combinations, islice, permutations

import numpy as np

from conicac import search
from conicac.bounds import bound_a_trace, bound_b, sqrt_qlnq
from conicac.geometry import pack_mask
from conicac.gf import FieldError, factor_prime_power, field_tables
from conicac.search import _covered_flags, is_ac_subset


def field_pow(ctx, a, e):
    """a^e in F_q for any integer e; FieldError for 0 to a negative power."""
    if a == 0:
        if e < 0:
            raise FieldError("inverse of zero")
        return 0 if e else 1
    return ctx._exp[ctx._log[a] * e % ctx._n]


def nucleus(model):
    """(0,1,0) for even q, where the tangents [t^2, 0, 1] and [1, 0, 0] all
    pass through it; None for odd q."""
    return (0, 1, 0) if model.q % 2 == 0 else None


def pg_points(ctx, n_dim):
    """All (q^(N+1)-1)/(q-1) canonical points of PG(N,q) as code rows in
    lexicographic order, (0,...,0,1) first, in the smallest unsigned dtype
    that holds q-1: one block per position of the leading 1, whose free
    digits are read off the row number."""
    q = ctx.q
    blocks = []
    for lead in range(n_dim, -1, -1):
        free = n_dim - lead
        idx = np.arange(q ** free)
        block = np.zeros((idx.size, n_dim + 1), dtype=np.min_scalar_type(q - 1))
        block[:, lead] = 1
        for j in range(free):
            block[:, lead + 1 + j] = (idx // q ** (free - 1 - j)) % q
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def m_coords(model):
    """The M-points as a 3 x |M_q| int64 coordinate array in M-index order:
    the points of `pg_points` off the conic, less the nucleus of even q,
    sorted by x0, x1, the scalar field log of x1^2 - x0*x2 and x2: (0,1,z)
    by z, then the rows (1,y,*) by y, each ordered by log(y^2 - z)."""
    add, mul, neg, _ = field_tables(model.ctx)
    x0, x1, x2 = pg_points(model.ctx, 2).T.astype(np.int64)
    disc = add[mul[x1, x1], neg[mul[x0, x2]]]
    off = disc != 0
    if nucleus(model) is not None:
        off &= (x0 != 0) | (x2 != 0)
    pts = np.stack([x0, x1, x2])[:, off]
    return pts[:, np.lexsort((pts[2], np.array(model.ctx._log)[disc[off]], pts[1], pts[0]))]


def m_index(model, x0, x1, x2):
    """M-index of the canonical M-points with coordinate arrays x0, x1, x2,
    in closed form from the model's tables: (0,1,z) is z - [q even] and
    (1,y,z) is q - [q even] + y*(q-1) + log(y^2 - z), where log(y^2 - z)
    is LSUB[y^2, z]."""
    square = np.array([model.ctx.mul(y, y) for y in range(model.q)])
    affine = model._row_start.take(x1) + model._lsub[square.take(x1), x2]
    return np.where(x0 == 1, affine, x2 - model._even)


def parse_param(model, s: str) -> int:
    """The parameter code named s by `model.param_name`; ValueError out of
    range."""
    if s == "inf":
        return model.inf
    t = int(s)
    if not 0 <= t < model.q:
        raise ValueError(f"parameter {s} out of range for q={model.q}")
    return t


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


def lsub_addexp_by_field_tables(model):
    """The model's (q+1) x (q+1) LSUB and flattened q x W ADDEXP built
    from the q x q `field_tables`: log(t - y) as the log of the addition
    table read at (t, -y), and y + alpha^j as the addition table read at
    (y, alpha^j).  The reference for the Zech-log build of
    `ConicModel.__init__`."""
    q, n = model.q, model.q - 1
    add, _, neg, _ = field_tables(model.ctx)
    log, exp = np.array(model.ctx._log), np.array(model.ctx._exp)
    rows = np.arange(q)
    lsub = np.empty((q + 1, q + 1), dtype=model._lsub.dtype)
    lsub[:q, :q] = log.take(add.take(neg, axis=1))  # log(t - y)
    lsub[rows, rows] = -2 * n
    lsub[q, :q] = -n
    lsub[:q, q] = (log[neg[1]] - log) % n  # log(-1/t)
    lsub[0, q] = -n
    lsub[q, q] = -2 * n
    addexp = np.empty((q, 1 << (4 * n - 1).bit_length()), dtype=model._addexp.dtype)
    addexp[:, :n] = add.take(exp[:n], axis=1)  # y + alpha^j
    addexp[:, n:2 * n] = addexp[:, :n]
    addexp[:, 2 * n:3 * n] = rows[:, None]
    addexp[:, 3 * n:] = q
    return lsub, addexp.ravel()


def filter_canonical_bases(model, base_size):
    """The canonical bases of one size by filtering every candidate: all
    C(q-2, k-3) rows (0, 1, extra..., inf), extras in `combinations` order,
    go through the `permutations` passes at once, and a row is dropped as
    soon as one image under the map sending an ordered triple of it to
    (0, 1, inf) is lexicographically smaller.  The reference for
    `search._canonical_levels`, which builds each size from the one below;
    both take their cross ratios from `search._cross_ratio_factors`."""
    q, k = model.q, base_size
    ratio, times = search._cross_ratio_factors(model.ctx)
    count = math.comb(q - 2, k - 3)
    bases = np.empty((count, k), dtype=times.dtype)
    bases[:, :2] = 0, 1
    bases[:, 2:-1] = np.fromiter(chain.from_iterable(combinations(range(2, q), k - 3)),
                                 dtype=times.dtype, count=count * (k - 3)).reshape(count, k - 3)
    bases[:, -1] = q
    for x, z in permutations(range(k), 2):
        f = ratio(bases, bases[:, [x]], bases[:, [z]])
        for y in range(k):
            if y == x or y == z:
                continue
            img = np.sort(times[f, ratio(bases[:, [y]], bases[:, [z]], bases[:, [x]])], axis=1)
            first = (img != bases).argmax(axis=1)[:, None]
            smaller = np.take_along_axis(img, first, 1) < np.take_along_axis(bases, first, 1)
            keep = ~smaller.ravel()
            bases, f = bases[keep], f[keep]
    return list(map(tuple, bases.tolist()))


def reference_min_ac(model):
    """`exhaustive_min_ac` with the plain DFS: each node ORs the pair masks of
    its new point with the whole subset, and checks full cover, size and
    the C(s+r,2) counting bound itself.  The bases of every size come from
    `filter_canonical_bases`, so the two searches share no base generator.
    The seed comes from `search.randomized_greedy`, read at call time, so a
    test that patches it patches both searches."""
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
    base_size = max(3, best_size - 4)
    if smaller := smallest_ac(range(3, base_size), lambda s: filter_canonical_bases(model, s)):
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

    for base in filter_canonical_bases(model, base_size):
        extend(list(base), cover(base), [t for t in params if t not in base])
    return best_size, best_witness


def is_minimal_ac(model, subset) -> bool:
    """True iff no AC-subset is left once any one point is dropped;
    ValueError unless the subset is AC."""
    subset = list(subset)
    if not is_ac_subset(model, subset):
        raise ValueError("input is not an AC-subset")
    for i in range(len(subset)):
        if is_ac_subset(model, subset[:i] + subset[i + 1:]):
            return False
    return True


def curve_points(arc):
    """The q+1 canonical points of the NRC `arc`: (1, t, ..., t^N) for
    t = 0..q-1, then (0, ..., 0, 1) for inf."""
    ctx, n_dim = arc.field, arc.n_dim
    pts = [tuple(field_pow(ctx, t, k) for k in range(n_dim + 1)) for t in range(ctx.q)]
    pts.append((0,) * n_dim + (1,))
    return pts


def gdrs_generator(ctx, n_dim: int, alphas, vs, v_last: int):
    """(N+1) x (q+1) GDRS generator matrix as a list of column tuples.  The
    columns are nonzero multiples of distinct NRC points, so every (N+1)-minor
    is a nonzero multiple of a Vandermonde determinant and the code is MDS."""
    q = ctx.q
    if len(set(alphas)) != len(alphas) or len(alphas) != q:
        raise ValueError("alphas must be q pairwise distinct elements")
    if any(v == 0 for v in vs) or len(vs) != q or v_last == 0:
        raise ValueError("scalings must be nonzero")
    cols = [tuple(ctx.mul(v, field_pow(ctx, a, k)) for k in range(n_dim + 1))
            for a, v in zip(alphas, vs)]
    cols.append((0,) * n_dim + (v_last,))
    return cols


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


def completeness_by_hyperplane(arc):
    """The points extending the NRC `arc`, in the order of `pg_points`, by
    building each of the C(q+1, N) hyperplanes from the product over its
    parameters and screening it against the points no earlier one hit."""
    ctx, n_dim = arc.field, arc.n_dim
    q = ctx.q
    pts = pg_points(ctx, n_dim)
    add, mul, neg, _ = field_tables(ctx)
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
    return "external" if field_pow(ctx, disc, (q - 1) // 2) == 1 else "internal"


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
