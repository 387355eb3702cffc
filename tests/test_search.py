import math
import random
from itertools import combinations

import pytest

from conicac.geometry import build_conic_model
from conicac.search import (CoverageState, coverage_mask, exhaustive_min_ac,
                            greedy_search, is_ac_subset, is_minimal_ac,
                            randomized_greedy)
from conicac.tables import EXACT_T

ORACLE_QS = (5, 7, 8, 9, 11, 13)


def _det3(ctx, A, B, C):
    t1 = ctx.mul(A[0], ctx.sub(ctx.mul(B[1], C[2]), ctx.mul(B[2], C[1])))
    t2 = ctx.mul(A[1], ctx.sub(ctx.mul(B[2], C[0]), ctx.mul(B[0], C[2])))
    t3 = ctx.mul(A[2], ctx.sub(ctx.mul(B[0], C[1]), ctx.mul(B[1], C[0])))
    return ctx.add(ctx.add(t1, t2), t3)


def oracle_pair_cover(model):
    """Independent per-pair coverage sets: M-point P lies on the bisecant
    through conic params (t1, t2) iff det(C(t1), C(t2), P) vanishes."""
    ctx = model.ctx
    out = {}
    for t1, t2 in combinations(model.params, 2):
        A, B = model.conic_point[t1], model.conic_point[t2]
        out[(t1, t2)] = frozenset(
            i for i, P in enumerate(model.m_points) if _det3(ctx, A, B, P) == 0)
    return out


@pytest.mark.parametrize("q", ORACLE_QS)
def test_coverage_matches_determinant_oracle(q):
    model = build_conic_model(q)
    pair_cover = oracle_pair_cover(model)
    rng = random.Random(q)
    for _ in range(500):
        size = rng.randint(2, min(q, 8))
        subset = rng.sample(model.params, size)
        want = set()
        for t1, t2 in combinations(sorted(subset), 2):
            want |= pair_cover[(t1, t2)]
        mask = coverage_mask(model, subset)
        assert {i for i in range(model.m_size) if mask >> i & 1} == want
        # incremental state agrees with the batch mask
        st = CoverageState(model)
        deltas = [st.add(t) for t in subset]
        assert st.covered == mask
        assert sum(deltas) == mask.bit_count()
        assert st.uncovered_count == model.m_size - len(want)


def test_coverage_add_examples():
    model = build_conic_model(5)
    st = CoverageState(model)
    assert st.add(0) == 0                # one point spans no bisecant
    assert st.add(model.inf) == 4        # bisecant carries q-1 points
    assert st.uncovered_count == 21
    with pytest.raises(ValueError):
        st.add(0)


def test_is_ac_subset_examples():
    model = build_conic_model(5)
    all_but_one = [t for t in model.params if t != model.inf]
    assert is_ac_subset(model, all_but_one)
    assert not is_ac_subset(model, model.params)      # not proper
    assert not is_ac_subset(model, [0, 1])
    with pytest.raises(ValueError):
        is_ac_subset(model, [0, 0, 1])


def test_is_minimal_ac():
    m5 = build_conic_model(5)
    t5, w5 = exhaustive_min_ac(m5)
    assert is_minimal_ac(m5, w5)
    # a minimum witness padded by one extra point is AC but not minimal
    extra = next(t for t in m5.params if t not in w5)
    if is_ac_subset(m5, w5 + [extra]):
        assert not is_minimal_ac(m5, w5 + [extra])
    with pytest.raises(ValueError):
        is_minimal_ac(m5, [0, 1])


@pytest.mark.parametrize("q", ORACLE_QS)
def test_uncovered_points_lie_on_many_one_chosen_bisecants(q):
    """Every uncovered M-point sees at least w-2 bisecants that pass through
    exactly one of the w chosen conic points."""
    model = build_conic_model(q)
    pair_cover = oracle_pair_cover(model)
    single = {t: frozenset().union(*(pair_cover[(min(t, s), max(t, s))]
                                     for s in model.params if s != t))
              for t in model.params}
    rng = random.Random(100 + q)
    for _ in range(40):
        w = rng.randint(3, max(3, (q - 1) // 2))
        chosen = rng.sample(model.params, w)
        mask = coverage_mask(model, chosen)
        for i in range(model.m_size):
            if mask >> i & 1:
                continue
            hits = sum(1 for t in chosen if i in single[t])
            assert hits >= w - 2, (q, chosen, i, hits)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_best_gain_lower_bound(q):
    """From any w-subset with w < (q+3)/2 and U uncovered points, some
    candidate covers at least ceil((w-2) U / (q+1-w)) new points."""
    model = build_conic_model(q)
    rng = random.Random(200 + q)
    for _ in range(40):
        w = rng.randint(3, (q + 1) // 2)
        chosen = rng.sample(model.params, w)
        mask = coverage_mask(model, chosen)
        uncov = model.m_size - mask.bit_count()
        if uncov == 0:
            continue
        best = 0
        for t in model.params:
            if t in chosen:
                continue
            gain = 0
            for s in chosen:
                gain |= model.pair_mask(t, s)
            best = max(best, (gain & ~mask).bit_count())
        need = -((w - 2) * uncov // -(q + 1 - w))
        assert best >= need, (q, chosen, best, need)


@pytest.mark.parametrize("q", ORACLE_QS + (16, 17, 19, 23, 25, 27, 29, 31, 32))
def test_greedy_produces_ac_and_obeys_gain_bound(q):
    model = build_conic_model(q)
    res = greedy_search(model)
    assert res.is_ac and is_ac_subset(model, res.witness)
    assert res.size == len(res.witness)
    for after, delta, uncov_after in res.step_log:
        w_prev = after - 1
        if w_prev < 3 or 2 * w_prev >= q + 3:
            continue
        u_before = uncov_after + delta
        assert delta >= -((w_prev - 2) * u_before // -(q + 1 - w_prev))


def test_greedy_size_within_recursion_bound():
    from conicac.bounds import bound_a_trace
    for q in (7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        model = build_conic_model(q)
        res = greedy_search(model)
        tr = bound_a_trace(q)
        assert tr.bound is not None and res.size <= tr.bound


def test_randomized_greedy_deterministic():
    model = build_conic_model(13)
    a = randomized_greedy(model, seed=7, restarts=30)
    b = randomized_greedy(model, seed=7, restarts=30)
    assert a.witness == b.witness and a.size == b.size
    c = randomized_greedy(model, seed=8, restarts=30)
    assert c.is_ac


# Witness and step log of randomized_greedy(model, seed=1, restarts=20); any
# change to the model or the greedy must reproduce them exactly.  The q cover
# prime fields and odd and even extension fields.
PINNED_GREEDY = {
    16: ([10, 5, 2, 0, 15, 14, 16, 1, 8],
         [(1, 0, 255), (2, 15, 240), (3, 30, 210), (4, 42, 168), (5, 48, 120),
          (6, 46, 74), (7, 40, 34), (8, 22, 12), (9, 12, 0)]),
    17: ([10, 17, 5, 2, 0, 8, 12, 1, 16, 9],
         [(1, 0, 289), (2, 16, 273), (3, 32, 241), (4, 45, 196), (5, 52, 144),
          (6, 56, 88), (7, 40, 48), (8, 26, 22), (9, 17, 5), (10, 5, 0)]),
    25: ([10, 17, 5, 4, 1, 9, 11, 0, 3, 20, 15, 25],
         [(1, 0, 625), (2, 24, 601), (3, 48, 553), (4, 69, 484), (5, 84, 400),
          (6, 92, 308), (7, 92, 216), (8, 72, 144), (9, 70, 74), (10, 42, 32),
          (11, 21, 11), (12, 11, 0)]),
    27: ([10, 17, 5, 4, 1, 23, 15, 9, 0, 13, 14, 16, 3],
         [(1, 0, 729), (2, 26, 703), (3, 52, 651), (4, 75, 576), (5, 92, 484),
          (6, 102, 382), (7, 101, 281), (8, 94, 187), (9, 71, 116),
          (10, 58, 58), (11, 37, 21), (12, 11, 10), (13, 10, 0)]),
    32: ([20, 11, 4, 1, 27, 3, 21, 31, 5, 10, 6, 18, 13, 28, 30],
         [(1, 0, 1023), (2, 31, 992), (3, 62, 930), (4, 90, 840),
          (5, 112, 728), (6, 128, 600), (7, 132, 468), (8, 121, 347),
          (9, 102, 245), (10, 99, 146), (11, 69, 77), (12, 44, 33),
          (13, 22, 11), (14, 9, 2), (15, 2, 0)]),
    49: ([20, 33, 11, 9, 3, 42, 31, 35, 1,
          16, 22, 19, 38, 15, 28, 12, 49, 17, 39],
         [(1, 0, 2401), (2, 48, 2353), (3, 96, 2257), (4, 141, 2116),
          (5, 180, 1936), (6, 211, 1725), (7, 232, 1493), (8, 245, 1248),
          (9, 236, 1012), (10, 227, 785), (11, 206, 579), (12, 155, 424),
          (13, 142, 282), (14, 111, 171), (15, 73, 98), (16, 48, 50),
          (17, 28, 22), (18, 18, 4), (19, 4, 0)]),
    64: ([40, 22, 9, 3, 51, 49, 46, 55, 5, 52, 56,
          60, 15, 28, 63, 8, 12, 59, 27, 38, 2, 7],
         [(1, 0, 4095), (2, 63, 4032), (3, 126, 3906), (4, 186, 3720),
          (5, 240, 3480), (6, 286, 3194), (7, 324, 2870), (8, 339, 2531),
          (9, 346, 2185), (10, 357, 1828), (11, 342, 1486), (12, 310, 1176),
          (13, 284, 892), (14, 235, 657), (15, 197, 460), (16, 156, 304),
          (17, 126, 178), (18, 80, 98), (19, 56, 42), (20, 18, 24),
          (21, 16, 8), (22, 8, 0)]),
}


@pytest.mark.parametrize("q", sorted(PINNED_GREEDY))
def test_randomized_greedy_pinned_for_fixed_seed(q):
    res = randomized_greedy(build_conic_model(q), seed=1, restarts=20)
    witness, step_log = PINNED_GREEDY[q]
    assert res.witness == witness
    assert res.step_log == step_log


def test_randomized_greedy_job_count_invariant():
    model = build_conic_model(11)
    a = randomized_greedy(model, seed=3, restarts=12, jobs=1)
    b = randomized_greedy(model, seed=3, restarts=12, jobs=3)
    assert a.witness == b.witness


def test_randomized_greedy_zero_prob_is_greedy_quality():
    model = build_conic_model(9)
    res = randomized_greedy(model, seed=1, restarts=5, random_step_prob=0.0)
    assert res.is_ac
    # with no random steps every pass is gain-maximal, so no pass can be
    # worse than the deterministic tie-break by more than tie noise
    for after, delta, uncov_after in res.step_log:
        w_prev = after - 1
        if w_prev < 3 or 2 * w_prev >= 9 + 3:
            continue
        u_before = uncov_after + delta
        assert delta >= -((w_prev - 2) * u_before // -(9 + 1 - w_prev))


def test_randomized_greedy_validates_restarts():
    model = build_conic_model(5)
    with pytest.raises(ValueError):
        randomized_greedy(model, seed=1, restarts=0)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_exhaustive_matches_known_minimum(q):
    model = build_conic_model(q)
    size, witness = exhaustive_min_ac(model)
    assert size == EXACT_T[q]
    assert is_ac_subset(model, witness)
    assert is_minimal_ac(model, witness)


@pytest.mark.parametrize("q", (5, 7, 9, 11))
def test_exhaustive_never_above_randomized(q):
    model = build_conic_model(q)
    size, _ = exhaustive_min_ac(model)
    rand = randomized_greedy(model, seed=2, restarts=50)
    assert size <= rand.size


def test_exhaustive_ceiling_enforced():
    model = build_conic_model(13)
    with pytest.raises(ValueError):
        exhaustive_min_ac(model, ceiling=11)
    size, _ = exhaustive_min_ac(model, ceiling=11, force=True)
    assert size == EXACT_T[13]


def test_witness_line_format():
    model = build_conic_model(5)
    res = greedy_search(model)
    line = res.witness_line(model)
    q, size, names = line.split(";")
    assert q == "5" and int(size) == res.size
    parsed = [model.parse_param(s) for s in names.split(",")]
    assert parsed == res.witness
