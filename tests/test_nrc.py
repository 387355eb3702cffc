import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from conicac.bounds import prime_powers_up_to
from conicac.geometry import build_conic_model, canon_point
from conicac import nrc
from conicac.gf import factor_prime_power, field_for_order
from conicac.nrc import (P0_PERSISTENCE, P0_REL_TOL, NrcArc, P0Entry, _c_schedule,
                         _odd_primes, _p0_margin, completeness_brute, corollary11_range,
                         is_prime, nrc_points, p0_solve, point_blocks)
from conicac.tables import EXACT_T
from oracles import (completeness_by_hyperplane, curve_points, gdrs_generator, is_arc,
                     nucleus, pg_points, theta)

P0_DEFAULT = {
    1: 757, 2: 1399, 3: 2129, 4: 2887, 5: 3623, 6: 4621, 7: 5417, 8: 6247,
    9: 7079, 10: 7919, 11: 8779, 12: 9629, 13: 10499, 14: 11383, 15: 12253,
    16: 13147,
}

P0_C162 = {1: 877, 2: 1543, 3: 2273, 4: 3037, 5: 3821}


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(757) and is_prime(33013)
    assert not is_prime(139129)     # 373^2
    assert not is_prime(1) and not is_prime(0)
    assert is_prime(2 ** 61 - 1)    # Mersenne prime
    assert not is_prime(2 ** 61 + 1)


def test_p0_default_thresholds():
    for h, want in P0_DEFAULT.items():
        entry = p0_solve(h)
        assert entry.p0 == want, (h, entry.p0)
        assert entry.c == _c_schedule(h)
        assert is_prime(entry.p0)


def test_p0_override_thresholds():
    for h, want in P0_C162.items():
        assert p0_solve(h, c_override=1.62).p0 == want


def oracle_p0(h, c):
    """p0(h) by a Miller-Rabin walk over the odd numbers: the reference for
    the block-sieve walk of `p0_solve`."""
    window = []
    n = 1
    while True:
        n += 2
        if not is_prime(n):
            continue
        if _p0_margin(n, h, c) > -P0_REL_TOL * math.sqrt(n):
            window.append(n)
            if len(window) == P0_PERSISTENCE + 1:
                return P0Entry(h=h, c=c, p0=window[0], check_value=_p0_margin(window[0], h, c))
        else:
            window.clear()


@pytest.mark.parametrize("c_override", [None, 1.62])
def test_p0_matches_miller_rabin_walk(c_override):
    for h in range(1, 17):
        c = _c_schedule(h) if c_override is None else c_override
        assert p0_solve(h, c_override=c_override) == oracle_p0(h, c), h


def test_odd_primes_across_sieve_blocks(monkeypatch):
    want = [n for n in range(3, 20000, 2) if is_prime(n)]
    for block in (1, 7, 1 << 15):
        monkeypatch.setattr(nrc, "PRIME_BLOCK", block)
        walk = _odd_primes()
        assert [next(walk) for _ in want] == want, block


def test_p0_threshold_is_a_crossing():
    """The previous odd prime sits clearly below the slackened threshold."""
    for h in (1, 4, 9, 16):
        p0 = p0_solve(h).p0
        prev = p0 - 2
        while not is_prime(prev):
            prev -= 2
        c = _c_schedule(h)
        assert _p0_margin(prev, h, c) <= -P0_REL_TOL * math.sqrt(prev)
        assert _p0_margin(p0, h, c) > -P0_REL_TOL * math.sqrt(p0)


def test_p0_correction_terms_negligible_for_large_h():
    """For h above a few units the 29/(4 p^(h-1/2)) and 20/p^(h+1/2) terms
    are far below the tolerance, so dropping them changes nothing."""
    def plain_p0(h, c):
        window = []
        p = 1
        while True:
            p += 2
            if not is_prime(p):
                continue
            lhs = math.sqrt(p) - 4 * c * math.sqrt((2 * h + 1) * math.log(p))
            if lhs > -P0_REL_TOL * math.sqrt(p):
                window.append(p)
                if len(window) == 11:
                    return window[0]
            else:
                window.clear()

    for h in range(6, 17):
        entry = p0_solve(h)
        assert plain_p0(h, entry.c) == entry.p0, h


def test_p0_monotone_within_fixed_c():
    vals = [p0_solve(h).p0 for h in range(6, 20)]  # c = 1.62 throughout
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("c_override, pinned", [(None, P0_DEFAULT), (1.62, P0_C162)])
def test_p0_walk_limit_sits_below_the_crossing(monkeypatch, c_override, pinned):
    """The refusal bound never refuses a reachable p0 and is close to the
    crossing: with the limit at p0 itself every pinned threshold is still
    found, and with half of it `p0_solve` refuses."""
    for h, want in pinned.items():
        monkeypatch.setattr(nrc, "P0_MAX", want)
        assert p0_solve(h, c_override=c_override).p0 == want
        monkeypatch.setattr(nrc, "P0_MAX", want // 2)
        with pytest.raises(ValueError, match="walk limit"):
            p0_solve(h, c_override=c_override)


def test_p0_rejects_bad_h():
    with pytest.raises(ValueError):
        p0_solve(0)


def test_c_schedule():
    assert [_c_schedule(h) for h in (1, 2, 3, 4, 5, 6, 19, 20, 28, 29, 100)] == \
        [1.525, 1.548, 1.572, 1.585, 1.585, 1.62, 1.62, 1.635, 1.635, 1.835, 1.835]


# --- curves and arcs ------------------------------------------------------

def test_nrc_dim2_is_the_conic():
    for q in (5, 7, 8, 9):
        ctx = field_for_order(q)
        arc = nrc_points(ctx, 2)
        conic = {(1, t, ctx.mul(t, t)) for t in range(q)} | {(0, 0, 1)}
        assert set(curve_points(arc)) == conic


def test_nrc_point_count_and_canonical():
    ctx = field_for_order(7)
    arc = nrc_points(ctx, 3)
    assert len(curve_points(arc)) == 8
    assert len(set(curve_points(arc))) == 8
    for P in curve_points(arc):
        lead = next(x for x in P if x)
        assert lead == 1  # canonical: leftmost nonzero coordinate is 1


def test_nrc_dimension_limits():
    ctx = field_for_order(5)
    with pytest.raises(ValueError):
        nrc_points(ctx, 1)
    with pytest.raises(ValueError):
        nrc_points(ctx, 4)  # N > q-2


@pytest.mark.parametrize("q,n", [(5, 2), (5, 3), (7, 2), (7, 3), (8, 2), (9, 2)])
def test_nrc_is_arc(q, n):
    ctx = field_for_order(q)
    arc = nrc_points(ctx, n)
    assert is_arc(curve_points(arc), n, ctx)


def test_is_arc_rejects_degenerate():
    ctx = field_for_order(5)
    pts = curve_points(nrc_points(ctx, 2))
    assert not is_arc(pts + [pts[0]], 2, ctx)
    three_collinear = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    assert not is_arc(three_collinear, 2, ctx)
    with pytest.raises(ValueError):
        is_arc([(1, 0)], 2, ctx)


def test_conic_plus_nucleus_is_arc_even_q():
    model = build_conic_model(4)
    pts = [(1, t, model.ctx.mul(t, t)) for t in range(4)] + [(0, 0, 1), nucleus(model)]
    assert is_arc(pts, 2, model.ctx)


def test_gdrs_unit_scalings_give_nrc():
    ctx = field_for_order(7)
    cols = gdrs_generator(ctx, 2, list(range(7)), [1] * 7, 1)
    assert is_arc(cols, 2, ctx)
    assert [canon_point(ctx, c) for c in cols] == curve_points(nrc_points(ctx, 2))


def test_gdrs_scaled_columns_stay_mds():
    ctx = field_for_order(5)
    cols = gdrs_generator(ctx, 2, [0, 1, 2, 3, 4], [1, 2, 3, 4, 2], 3)
    assert is_arc(cols, 2, ctx)
    assert {canon_point(ctx, c) for c in cols} == set(curve_points(nrc_points(ctx, 2)))


def test_gdrs_all_minors_q13():
    """All C(14, 4) = 1001 minors are nonzero, and the scaled columns are
    multiples of the NRC points, in order."""
    ctx = field_for_order(13)
    vs = [1 + t % 12 for t in range(13)]
    cols = gdrs_generator(ctx, 3, list(range(13)), vs, 5)
    assert is_arc(cols, 3, ctx)
    canon = [tuple(ctx.div(x, next(y for y in c if y)) for x in c) for c in cols]
    assert canon == curve_points(nrc_points(ctx, 3))


def test_nrc_arc_points_follow_from_field_and_dimension():
    ctx = field_for_order(7)
    assert curve_points(NrcArc(n_dim=2, field=ctx)) == curve_points(nrc_points(ctx, 2))
    assert curve_points(nrc_points(ctx, 3))[:3] == [(1, 0, 0, 0), (1, 1, 1, 1), (1, 2, 4, 1)]
    assert curve_points(nrc_points(ctx, 3))[-1] == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        NrcArc(n_dim=6, field=ctx)


def test_gdrs_input_validation():
    ctx = field_for_order(5)
    with pytest.raises(ValueError):
        gdrs_generator(ctx, 2, [0, 1, 2, 3, 3], [1] * 5, 1)  # duplicate alpha
    with pytest.raises(ValueError):
        gdrs_generator(ctx, 2, [0, 1, 2, 3, 4], [1, 0, 1, 1, 1], 1)
    with pytest.raises(ValueError):
        gdrs_generator(ctx, 2, [0, 1, 2, 3, 4], [1] * 5, 0)


# --- completeness ---------------------------------------------------------

def test_conic_complete_small_odd_q():
    for q in (5, 7):
        arc = nrc_points(field_for_order(q), 2)
        assert completeness_brute(arc) == []


def test_conic_extendable_by_nucleus_even_q():
    arc = nrc_points(field_for_order(4), 2)
    ext = completeness_brute(arc)
    assert ext == [nucleus(build_conic_model(4))]


def _all_points(q, n_dim):
    """Every point of PG(N,q) with its leftmost nonzero coordinate 1."""
    return [P for P in product(range(q), repeat=n_dim + 1)
            if any(P) and next(x for x in P if x) == 1]


def test_completeness_matches_arc_oracle():
    """Every reported extension point really extends the arc, checked with
    the minor-based arc test; every non-reported point fails it."""
    for q, n in ((8, 2), (5, 3), (7, 3)):
        ctx = field_for_order(q)
        arc = nrc_points(ctx, n)
        ext = completeness_brute(arc)
        want = [P for P in _all_points(q, n)
                if P not in curve_points(arc) and is_arc(curve_points(arc) + [P], n, ctx)]
        assert ext == want, (q, n)


def test_completeness_extension_points_pg6_8():
    ctx = field_for_order(8)
    arc = nrc_points(ctx, 6)
    ext = completeness_brute(arc)
    assert len(ext) == 10
    for P in ext:
        assert P not in curve_points(arc) and is_arc(curve_points(arc) + [P], 6, ctx)


def _block_rows(q, n):
    """The `point_blocks` of PG(n,q), each as one array of code rows."""
    dtype = np.min_scalar_type(q - 1)
    return [np.column_stack([np.full(q ** len(tail), x, dtype=dtype) for x in fixed] + tail)
            for fixed, tail in point_blocks(q, n)]


@pytest.mark.parametrize("q, n, dtype", [(4, 3, np.uint8), (16, 2, np.uint8),
                                         (256, 2, np.uint8), (257, 2, np.uint16)])
def test_canonical_points_smallest_dtype(q, n, dtype):
    """Point codes use the smallest unsigned dtype holding q-1, so the
    blocks and the survivors of the screen take one byte per coordinate
    for q <= 256."""
    for _, tail in point_blocks(q, n):
        assert all(x.dtype == dtype and x.flags.c_contiguous for x in tail)
    pts = np.concatenate(_block_rows(q, n))
    assert pts.dtype == dtype
    assert pts.shape == ((q ** (n + 1) - 1) // (q - 1), n + 1)
    assert int(pts.max()) == q - 1
    rows = pts.tolist()
    assert rows[0] == [0] * n + [1] and rows == sorted(rows)


def test_pg_points_match_old_construction(monkeypatch):
    """The blocks of `point_blocks`, joined in order, are the points of
    `oracles.pg_points`, at the default block size and at sizes that cut
    every instance into many blocks (one point each when the size is below
    q).  Each block holds at most SCREEN_BLOCK points."""
    cases = [(q, n) for q in range(2, 17) if factor_prime_power(q)
             for n in range(2, 30) if q ** n <= 2e6]
    assert len(cases) == 77
    for q, n in cases:
        want = pg_points(field_for_order(q), n)
        sizes = [nrc.SCREEN_BLOCK, q ** (n // 2) + 1] + ([q - 1] if len(want) < 1000 else [])
        for block in sizes:
            monkeypatch.setattr(nrc, "SCREEN_BLOCK", block)
            blocks = _block_rows(q, n)
            assert all(len(b) <= block for b in blocks), (q, n, block)
            pts = np.concatenate(blocks)
            assert pts.dtype == want.dtype and np.array_equal(pts, want), (q, n, block)


def _instances(limit):
    """Every (q, N) with q a prime power in [4, 32], 2 <= N <= q-2 and
    q^N <= limit."""
    return [(q, n) for q in range(4, 33) if factor_prime_power(q)
            for n in range(2, q - 1) if q ** n <= limit]


@lru_cache(maxsize=None)
def _oracle(q, n):
    return completeness_by_hyperplane(nrc_points(field_for_order(q), n))


def _check_against_hyperplane_oracle(cases):
    for q, n in cases:
        assert completeness_brute(nrc_points(field_for_order(q), n)) == _oracle(q, n), (q, n)


def test_completeness_matches_hyperplane_oracle():
    """The prefix walk returns the same points, in the same order, as
    screening the C(q+1, N) hyperplanes one at a time.  q = 256 and 257
    take the uint8 and uint16 point dtypes with uint16 and uint32 keys, and
    span more than one block of the screen."""
    cases = _instances(5 * 10 ** 5)
    assert len(cases) == 47
    _check_against_hyperplane_oracle(cases + [(256, 2), (257, 2)])


def test_completeness_across_blocks_matches_hyperplane_oracle(monkeypatch):
    """With SCREEN_BLOCK below the point count, every instance meets its
    first SCREEN_HEAD prefixes block by block: blocks of q^(N-2) points and
    the default head, blocks of one point with every prefix in the head,
    and blocks of q points with a head of one prefix."""
    for q, n in _instances(5 * 10 ** 5):
        configs = [(q ** max(1, n - 2) + 1, nrc.SCREEN_HEAD)]
        if q ** n <= 5000:
            configs += [(1, 10 ** 9), (q, 1)]
        for block, head in configs:
            monkeypatch.setattr(nrc, "SCREEN_BLOCK", block)
            monkeypatch.setattr(nrc, "SCREEN_HEAD", head)
            assert (q ** (n + 1) - 1) // (q - 1) > block
            got = completeness_brute(nrc_points(field_for_order(q), n))
            assert got == _oracle(q, n), (q, n, block)


@pytest.mark.slow
def test_completeness_matches_hyperplane_oracle_slow():
    cases = _instances(2 * 10 ** 6)
    assert len(cases) == 55
    _check_against_hyperplane_oracle(cases)


def test_prefix_rule_matches_explicit_hyperplanes():
    """For a prefix T' of N-1 finite parameters with prod_{T'} (x - t) =
    sum a_k x^k, u = sum a_k P_k and v = sum a_k P_(k+1): P lies on the
    hyperplane of T' u {t} iff v = t*u, and on that of T' u {inf} iff
    u = 0.  Checked against the dot product of P with the coefficients of
    the product over the finite parameters of the N-subset."""
    rng = np.random.default_rng(7)

    def poly(ctx, params):
        coef = [1]
        for t in params:  # multiply by (x - t)
            m = ctx.neg(t)
            coef = [ctx.add(a, ctx.mul(m, b)) for a, b in zip([0] + coef, coef + [0])]
        return coef

    def dot(ctx, coef, xs):
        acc = 0
        for a, x in zip(coef, xs):
            acc = ctx.add(acc, ctx.mul(a, x))
        return acc

    seen = {True: 0, False: 0}
    for q, n in ((4, 2), (7, 3), (8, 4), (9, 3), (13, 5), (16, 4), (27, 3)):
        ctx = field_for_order(q)
        pts = pg_points(ctx, n)
        for _ in range(30):
            prefix = sorted(rng.choice(q, n - 1, replace=False).tolist())
            P = pts[rng.integers(len(pts))].tolist()
            a = poly(ctx, prefix)
            u, v = dot(ctx, a, P[:-1]), dot(ctx, a, P[1:])
            for t in [t for t in range(q) if t not in prefix] + [q]:
                plane = poly(ctx, prefix + [t] if t < q else prefix)
                on_plane = dot(ctx, plane, P) == 0
                assert on_plane == (u == 0 if t == q else v == ctx.mul(t, u)), (q, n, prefix, P, t)
                seen[on_plane] += 1
    assert seen[True] >= 100 and seen[False] >= 1000, seen


def _application_instances(limit):
    """(q, N) for q in EXACT_T, 3 <= N <= min(q-2, q+2-t(q)), q^N <= limit."""
    return [(q, n) for q, t in EXACT_T.items()
            for n in range(3, min(q - 2, q + 2 - t) + 1) if q ** n <= limit]


def test_nrc_complete_in_exact_t_range():
    """The paper's application: every NRC in PG(N,q) with
    3 <= N <= q+2-t(q) is complete, checked by brute force."""
    cases = _application_instances(2 * 10 ** 6)
    assert len(cases) == 32
    for q, n in cases:
        assert completeness_brute(nrc_points(field_for_order(q), n)) == [], (q, n)


@pytest.mark.slow
def test_nrc_complete_in_exact_t_range_slow():
    cases = _application_instances(10 ** 8)
    assert len(cases) == 44
    for q, n in cases:
        assert completeness_brute(nrc_points(field_for_order(q), n)) == [], (q, n)


def test_completeness_guard():
    arc = nrc_points(field_for_order(31), 8)
    with pytest.raises(ValueError):
        completeness_brute(arc)


# --- completeness ranges --------------------------------------------------

def test_corollary_range_examples():
    assert corollary11_range(25) == (3, 12)
    assert corollary11_range(9) == (3, 3)
    assert corollary11_range(5) is None
    assert corollary11_range(7) is None


def test_corollary_range_matches_scalar_theta():
    """The range from `theta_values` equals the one from the scalar Theta
    for every prime power up to 20000."""
    for q in prime_powers_up_to(20000):
        hi = math.floor(q + 2 - theta(q))
        assert corollary11_range(q) == ((3, hi) if hi >= 3 else None), q


def test_corollary_range_within_exact_range():
    """The guaranteed range never exceeds what the exact minima allow:
    floor(q+2-Theta(q)) <= q+2-t(q) since t(q) < Theta(q)."""
    for q, t in EXACT_T.items():
        rng = corollary11_range(q)
        if rng is None:
            continue
        lo, hi = rng
        assert lo == 3
        assert hi <= q + 2 - t


def test_corollary_range_grows_with_q():
    vals = [corollary11_range(q)[1] for q in (9, 16, 25, 49, 81, 121, 169)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
