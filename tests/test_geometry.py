import random
from itertools import combinations

import numpy as np
import pytest

from conicac.geometry import ConicModel, build_conic_model, canon_point, pack_mask
from conicac.gf import factor_prime_power, field_for_order, field_tables
from oracles import bisecant_mpoints, classify_point, closed_form_sigma, m_coords

MODEL_QS = [q for q in range(4, 33) if factor_prime_power(q)]


# --- scalar oracles: incidence by dot products, points by enumeration ----

def line_through(ctx, P, Q):
    """Canonical dual coordinates of the unique line through distinct P, Q."""
    a = ctx.sub(ctx.mul(P[1], Q[2]), ctx.mul(P[2], Q[1]))
    b = ctx.sub(ctx.mul(P[2], Q[0]), ctx.mul(P[0], Q[2]))
    c = ctx.sub(ctx.mul(P[0], Q[1]), ctx.mul(P[1], Q[0]))
    return canon_point(ctx, (a, b, c))


def on_line(ctx, P, line):
    s = 0
    for x, a in zip(P, line):
        s = ctx.add(s, ctx.mul(x, a))
    return s == 0


def all_points(q):
    """Every point of PG(2,q), in lexicographic order."""
    return ([(0, 0, 1)] + [(0, 1, z) for z in range(q)]
            + [(1, y, z) for y in range(q) for z in range(q)])


def conic_point(model, t):
    return (0, 0, 1) if t == model.inf else (1, t, model.ctx.mul(t, t))


def m_points(model):
    return list(zip(*m_coords(model).tolist()))


def tangent_count(model, P):
    return sum(on_line(model.ctx, P, l) for l in model.tangent.values())


def test_canon_point_examples():
    f5 = field_for_order(5)
    assert canon_point(f5, (0, 2, 4)) == (0, 1, 2)
    assert canon_point(f5, (3, 0, 0)) == (1, 0, 0)
    assert canon_point(f5, (0, 0, 4)) == (0, 0, 1)
    # idempotent
    assert canon_point(f5, canon_point(f5, (2, 3, 1))) == canon_point(f5, (2, 3, 1))
    with pytest.raises(ValueError):
        canon_point(f5, (0, 0, 0))


def test_line_through_and_incidence():
    f7 = field_for_order(7)
    rng = random.Random(7)
    pts = [(1, y, z) for y in range(7) for z in range(7)]
    for _ in range(50):
        P, Q = rng.sample(pts, 2)
        line = line_through(f7, P, Q)
        assert on_line(f7, P, line) and on_line(f7, Q, line)
        assert line == line_through(f7, Q, P)
        # a line of PG(2,7) carries exactly 8 points
        count = sum(on_line(f7, R, line) for R in all_points(7))
        assert count == 8


@pytest.mark.parametrize("q", MODEL_QS)
def test_point_counts(q):
    model = build_conic_model(q)
    assert len(model.params) == q + 1
    assert len({conic_point(model, t) for t in model.params}) == q + 1
    assert len(all_points(q)) == q * q + q + 1
    assert model.m_size == q * q - (q % 2 == 0)
    # `m_index` in closed form against the enumerated M-points
    assert np.array_equal(model.m_index(*m_coords(model)), np.arange(model.m_size))


def test_nucleus_even_q():
    model = build_conic_model(8)
    assert model.nucleus == (0, 1, 0)
    assert tangent_count(model, model.nucleus) == 9
    assert build_conic_model(4).nucleus == (0, 1, 0)
    assert build_conic_model(9).nucleus is None


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_tangents_concurrent_even_q(q):
    model = build_conic_model(q)
    N = model.nucleus
    for line in model.tangent.values():
        assert on_line(model.ctx, N, line)


@pytest.mark.parametrize("q", MODEL_QS)
def test_tangent_meets_conic_only_at_t(q):
    model = build_conic_model(q)
    for t, line in model.tangent.items():
        hits = [s for s in model.params if on_line(model.ctx, conic_point(model, s), line)]
        assert hits == [t], (t, hits)


@pytest.mark.parametrize("q", MODEL_QS)
def test_bisecants_carry_q_minus_1_m_points(q):
    model = build_conic_model(q)
    union = 0
    for t1, t2 in combinations(model.params, 2):
        idxs = bisecant_mpoints(model, t1, t2)
        assert len(idxs) == q - 1
        assert len(set(idxs)) == q - 1
        union |= model.pair_mask(t1, t2)
    # all bisecants together cover M_q exactly
    assert union == model.full_mask


@pytest.mark.parametrize("q", MODEL_QS)
def test_bisecant_indices_match_line_scan(q):
    """Independent oracle: the M-points on the bisecant through params
    (t1, t2) are exactly the M-points incident to the line joining them."""
    model = build_conic_model(q)
    ctx = model.ctx
    rng = random.Random(q)
    pairs = rng.sample(list(combinations(model.params, 2)), 10)
    pairs += [(0, model.inf), (rng.randrange(1, q), model.inf)]
    for t1, t2 in pairs:
        line = line_through(ctx, conic_point(model, t1), conic_point(model, t2))
        want = [i for i, P in enumerate(m_points(model)) if on_line(ctx, P, line)]
        assert bisecant_mpoints(model, t1, t2) == want
        assert bisecant_mpoints(model, t2, t1) == want


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 121, 128])
def test_closed_form_bisecants_match_the_table(q):
    """`bisecants` and `m_index` in closed form against `closed_form_sigma`,
    computed from the coordinates of the enumerated M-points, for every
    ordered pair (t, s), inf on either side: prime fields, odd and even
    extension fields."""
    model = build_conic_model(q)
    assert np.array_equal(model.m_index(*m_coords(model)), np.arange(model.m_size))
    sigma = closed_form_sigma(model)
    for t in model.params:
        others = np.array([s for s in model.params if s != t])
        rows = model.bisecants(t, others).reshape(q, q - 1)
        want = sigma(t, np.arange(model.m_size))
        # row s lists q-1 distinct points with sigma_P(t) = s, and there are no others
        assert (want[rows] == others[:, None]).all(), t
        assert np.unique(rows).size == rows.size, t
        assert (np.bincount(want, minlength=q + 1)[others] == q - 1).all(), t
    assert model.bisecants(0, []).size == 0


@pytest.mark.parametrize("q", [8, 9, 13, 16, 25])
def test_pair_masks_match_closed_form_sigma(q):
    """`pair_mask(t1, t2)` marks exactly the M-points P with sigma_P(t1) = t2,
    from `closed_form_sigma`, for every ordered pair of distinct parameters;
    0 on the diagonal, where sigma_P(t1) = t1 marks the tangent at t1."""
    model = build_conic_model(q)
    sigma = closed_form_sigma(model)
    everything = np.arange(model.m_size)
    for t1 in model.params:
        row = sigma(t1, everything)
        for t2 in model.params:
            want = pack_mask(row == t2) if t2 != t1 else 0
            assert model.pair_mask(t1, t2) == want, (t1, t2)


def test_classification_counts_odd_q():
    model = build_conic_model(5)
    kinds = {}
    for P in all_points(model.q):
        kinds.setdefault(classify_point(model, P), []).append(P)
    assert len(kinds["on-conic"]) == 6
    assert len(kinds["external"]) == 15   # q(q+1)/2
    assert len(kinds["internal"]) == 10   # q(q-1)/2
    assert "nucleus" not in kinds


def test_classification_counts_even_q():
    model = build_conic_model(8)
    kinds = {}
    for P in all_points(model.q):
        kinds.setdefault(classify_point(model, P), []).append(P)
    assert len(kinds["on-conic"]) == 9
    assert len(kinds["nucleus"]) == 1
    assert len(kinds["m-even"]) == 63


def test_on_conic_example():
    model = build_conic_model(7)
    assert classify_point(model, (1, 3, 2)) == "on-conic"  # 3^2 = 2 mod 7


def test_m_index_is_lexicographic():
    for q in (8, 9):
        model = build_conic_model(q)
        pts = m_points(model)
        assert pts == sorted(pts)
        excluded = {conic_point(model, t) for t in model.params} | {model.nucleus}
        assert pts == [P for P in all_points(q) if P not in excluded]


@pytest.mark.parametrize("q", MODEL_QS)
def test_classify_point_matches_tangent_count(q):
    """Closed form (x1^2 - x0*x2 zero, square or non-square) against the
    number of tangents through each point of PG(2,q)."""
    model = build_conic_model(q)
    conic = {conic_point(model, t) for t in model.params}
    want = {2: "external", 0: "internal", 1: "m-even", q + 1: "nucleus"}
    for P in all_points(q):
        kind = "on-conic" if P in conic else want[tangent_count(model, P)]
        assert classify_point(model, P) == kind, P


def test_param_name_roundtrip():
    model = build_conic_model(5)
    for t in model.params:
        assert model.parse_param(model.param_name(t)) == t
    with pytest.raises(ValueError):
        model.parse_param("9")


def test_model_cache_keeps_only_the_latest():
    build_conic_model(5)
    build_conic_model(7)
    assert build_conic_model.cache_info().currsize == 1


# 263 has the widest ADDEXP rows (W = 2048 for 4n = 1048) in uint16
@pytest.mark.parametrize("q", [128, 256, 263])
def test_model_arrays_are_quadratic_in_q(q):
    """The model's arrays take at most 52 q^2 bytes: 8 q^2 for the int32
    addition and multiplication tables, 8 q^2 for the intp keys, about
    4 q^2 for LSUB and at most 2q * 8q * 2 bytes for ADDEXP.  A table of
    sigma_P(t) for every t and P would take 2(q+1)q^2 bytes in int16."""
    model = ConicModel(field_for_order(q))
    total = sum(v.nbytes for v in vars(model).values() if isinstance(v, np.ndarray))
    assert total <= 52 * q * q


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        build_conic_model(6)


# 256 is the first q whose inf code overflows 8 bits
@pytest.mark.parametrize("q", MODEL_QS + [121, 127, 128, 256])
def test_partner_table_properties(q):
    """sigma_P is an involution, its fixed points are the tangents through
    P, and each t is paired with every other parameter on the q-1 M-points
    of their bisecant.  The values are read through `ConicModel.sigma` at
    every key, one row per parameter, and equal the closed form from the
    coordinates row by row."""
    model = build_conic_model(q)
    params = np.array(model.params)
    partner = model.sigma(params, model.key).astype(np.int64)  # [t, M-index]
    assert partner.shape == (q + 1, model.m_size)
    closed = closed_form_sigma(model)
    idx = np.arange(model.m_size)
    for t in model.params:
        assert np.array_equal(partner[t], closed(t, idx)), t
    assert (partner[partner, idx] == params[:, None]).all()

    on_tangent = q - (q % 2 == 0)  # the M-points of a tangent: all but t and the nucleus
    for t in model.params:
        counts = np.bincount(partner[t], minlength=q + 1)
        assert counts[t] == on_tangent
        assert (np.delete(counts, t) == q - 1).all()

    fixed = partner == params[:, None]
    x0, x1, x2 = m_coords(model)
    add, mul, _, _ = field_tables(model.ctx)
    for t, (a, b, c) in model.tangent.items():
        assert np.array_equal(fixed[t], add[add[mul[a, x0], mul[b, x1]], mul[c, x2]] == 0), t
    fixed = fixed.sum(axis=0)
    if q % 2 == 0:
        assert (fixed == 1).all()
        return
    # odd q: q(q+1)/2 external points on two tangents, q(q-1)/2 internal
    # points on none
    assert np.bincount(fixed).tolist() == [q * (q - 1) // 2, 0, q * (q + 1) // 2]
    want = {"external": 2, "internal": 0}
    for i, P in enumerate(m_points(model)):
        assert fixed[i] == want[classify_point(model, P)]
