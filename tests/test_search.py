import concurrent.futures
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from concurrent.futures import Future
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import conicac
from conicac import cli, search
from conicac.bounds import bound_a_trace, prime_powers_up_to
from conicac.geometry import ConicModel, build_conic_model
from conicac.gf import factor_prime_power, field_for_order
from conicac.search import (CoverageState, _canonical_levels, _cross_ratio_factors,
                            _pair_masks, exhaustive_min_ac, is_ac_subset, randomized_greedy)
from conicac.tables import EXACT_T
from oracles import (closed_form_sigma, coverage_mask, covered, filter_canonical_bases,
                     gains, is_minimal_ac, m_coords, parse_param, reference_min_ac)

ORACLE_QS = (5, 7, 8, 9, 11, 13)
MODEL_QS = [q for q in range(4, 33) if factor_prime_power(q)]


def _det3(ctx, A, B, C):
    t1 = ctx.mul(A[0], ctx.sub(ctx.mul(B[1], C[2]), ctx.mul(B[2], C[1])))
    t2 = ctx.mul(A[1], ctx.sub(ctx.mul(B[2], C[0]), ctx.mul(B[0], C[2])))
    t3 = ctx.mul(A[2], ctx.sub(ctx.mul(B[0], C[1]), ctx.mul(B[1], C[0])))
    return ctx.add(ctx.add(t1, t2), t3)


def oracle_pair_cover(model):
    """Independent per-pair coverage sets: M-point P lies on the bisecant
    through conic params (t1, t2) iff det(C(t1), C(t2), P) vanishes."""
    ctx = model.ctx
    conic = [(1, t, ctx.mul(t, t)) for t in range(model.q)] + [(0, 0, 1)]
    m_points = list(zip(*m_coords(model).tolist()))
    out = {}
    for t1, t2 in combinations(model.params, 2):
        A, B = conic[t1], conic[t2]
        out[(t1, t2)] = frozenset(
            i for i, P in enumerate(m_points) if _det3(ctx, A, B, P) == 0)
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
        assert covered(st) == mask
        assert sum(deltas) == mask.bit_count()
        assert st.uncovered_count == model.m_size - len(want)
        # gain counts: points each unchosen candidate would newly cover
        assert gains(st) == {
            t: len(set().union(*(pair_cover[tuple(sorted((t, s)))]
                                 for s in subset)) - want)
            for t in model.params if t not in subset}


@pytest.mark.parametrize("q", (8, 9, 11, 13, 16, 25))
def test_coverage_state_matches_a_recount_after_every_add(monkeypatch, q):
    """Walk whole parameter orders, inf at varying positions, and recount
    coverage and gains from the pair masks after every `add`: while the
    state holds the covered points, and after it switches to `uncov`.
    With no slack the switch comes at half of M_q, so both regimes run."""
    monkeypatch.setattr(search, "SLACK", 0)
    model = build_conic_model(q)
    pair = {(t, s): model.pair_mask(t, s) for t in model.params for s in model.params if s != t}
    rng = random.Random(400 + q)
    for pos in (0, 1, 4, q // 2, q):
        order = rng.sample(range(q), q)
        order.insert(pos, model.inf)
        st = CoverageState(model)
        mask, regimes = 0, set()
        for k, t in enumerate(order):
            before = mask
            for s in order[:k]:
                mask |= pair[t, s]
            assert st.add(t) == mask.bit_count() - before.bit_count()
            regimes.add(st.uncov is None)
            assert covered(st) == mask
            assert st.uncovered_count == model.m_size - mask.bit_count()
            chosen = order[:k + 1]
            want = {}
            for c in sorted(set(model.params) - set(chosen)):
                line = 0
                for s in chosen:
                    line |= pair[c, s]
                want[c] = (line & ~mask).bit_count()
            assert gains(st) == want, (order, k)
        assert regimes == {True, False}


def test_coverage_slack_moves_only_the_switch(monkeypatch):
    """The slack changes when `CoverageState` switches to `uncov`, not the
    greedy witnesses and step logs: for every prime power 7 <= q <= 64 they
    equal those of the switch at half of M_q.  By default, q = 16 scans the
    uncovered points from the first add and q = 127 starts from the covered
    ones."""
    models = [build_conic_model(q) for q in range(7, 65) if factor_prime_power(q)]
    default = [[randomized_greedy(m, seed=seed, restarts=3) for seed in (0, 1)] for m in models]
    small, large = CoverageState(build_conic_model(16)), CoverageState(build_conic_model(127))
    small.add(0)
    large.add(0)
    assert small.uncov is not None and large.uncov is None
    monkeypatch.setattr(search, "SLACK", 0)
    for model, results in zip(models, default):
        for seed, res in zip((0, 1), results):
            half = randomized_greedy(model, seed=seed, restarts=3)
            assert (res.witness, res.step_log) == (half.witness, half.step_log), (model.q, seed)


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
    for bad in (-1, model.inf + 1):
        with pytest.raises(ValueError, match="not on the conic"):
            is_ac_subset(model, [0, 1, bad])


def test_coverage_mask_refuses_duplicates():
    # the bisecant {1, 1} is undefined, so both callers of the flags refuse
    with pytest.raises(ValueError, match="duplicate"):
        coverage_mask(build_conic_model(5), [1, 1, 2])


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
    res = randomized_greedy(model, seed=1, restarts=1, random_step_prob=0.0)
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
        res = randomized_greedy(model, seed=1, restarts=1, random_step_prob=0.0)
        tr = bound_a_trace(q)
        assert tr.bound is not None and res.size <= tr.bound


def test_randomized_greedy_deterministic():
    model = build_conic_model(13)
    a = randomized_greedy(model, seed=7, restarts=30)
    b = randomized_greedy(model, seed=7, restarts=30)
    assert a.witness == b.witness and a.size == b.size
    c = randomized_greedy(model, seed=8, restarts=30)
    assert c.is_ac


# Witness and step log of randomized_greedy(model, seed=1, restarts=20), or
# restarts=5 for the benchmark sizes q = 121, 127, 128; any change to the
# model or the greedy must reproduce them exactly.  The q cover prime fields
# and odd and even extension fields.
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
    121: ([40, 66, 22, 18, 7, 53, 77, 103, 9, 76, 81, 63, 3, 8, 32, 26, 24,
           111, 108, 72, 73, 36, 61, 34, 67, 80, 118, 50, 106, 115, 47, 55,
           57, 71, 0],
          [(1, 0, 14641), (2, 120, 14521), (3, 240, 14281), (4, 357, 13924),
           (5, 468, 13456), (6, 573, 12883), (7, 664, 12219),
           (8, 737, 11482), (9, 797, 10685), (10, 863, 9822),
           (11, 901, 8921), (12, 926, 7995), (13, 916, 7079),
           (14, 863, 6216), (15, 839, 5377), (16, 776, 4601),
           (17, 721, 3880), (18, 660, 3220), (19, 589, 2631),
           (20, 479, 2152), (21, 448, 1704), (22, 388, 1316),
           (23, 318, 998), (24, 258, 740), (25, 202, 538), (26, 158, 380),
           (27, 106, 274), (28, 94, 180), (29, 58, 122), (30, 57, 65),
           (31, 30, 35), (32, 9, 26), (33, 15, 11), (34, 10, 1), (35, 1, 0)]),
    127: ([81, 65, 22, 18, 7, 85, 103, 102, 9, 36, 110, 112, 6, 66, 62, 61,
           96, 49, 113, 70, 71, 97, 95, 60, 16, 73, 118, 17, 105, 58, 38,
           50, 12, 27, 94, 127],
          [(1, 0, 16129), (2, 126, 16003), (3, 252, 15751), (4, 375, 15376),
           (5, 492, 14884), (6, 604, 14280), (7, 700, 13580),
           (8, 778, 12802), (9, 846, 11956), (10, 912, 11044),
           (11, 942, 10102), (12, 962, 9140), (13, 964, 8176),
           (14, 946, 7230), (15, 914, 6316), (16, 872, 5444),
           (17, 804, 4640), (18, 746, 3894), (19, 671, 3223),
           (20, 554, 2669), (21, 525, 2144), (22, 460, 1684),
           (23, 393, 1291), (24, 304, 987), (25, 263, 724), (26, 203, 521),
           (27, 113, 408), (28, 127, 281), (29, 71, 210), (30, 78, 132),
           (31, 54, 78), (32, 25, 53), (33, 29, 24), (34, 14, 10),
           (35, 7, 3), (36, 3, 0)]),
    128: ([57, 1, 125, 26, 44, 120, 52, 126, 0, 104, 9, 99, 71, 100, 14, 41,
           116, 92, 36, 83, 75, 117, 40, 121, 20, 103, 53, 90, 78, 21, 18,
           30, 106, 128, 69],
          [(1, 0, 16383), (2, 127, 16256), (3, 254, 16002), (4, 378, 15624),
           (5, 496, 15128), (6, 606, 14522), (7, 708, 13814),
           (8, 798, 13016), (9, 857, 12159), (10, 920, 11239),
           (11, 955, 10284), (12, 982, 9302), (13, 975, 8327),
           (14, 966, 7361), (15, 926, 6435), (16, 886, 5549),
           (17, 825, 4724), (18, 758, 3966), (19, 685, 3281),
           (20, 611, 2670), (21, 526, 2144), (22, 449, 1695),
           (23, 378, 1317), (24, 312, 1005), (25, 258, 747), (26, 210, 537),
           (27, 161, 376), (28, 121, 255), (29, 87, 168), (30, 63, 105),
           (31, 42, 63), (32, 30, 33), (33, 16, 17), (34, 12, 5),
           (35, 5, 0)]),
}


PINNED_RESTARTS = {121: 5, 127: 5, 128: 5}


@pytest.mark.parametrize("q", sorted(PINNED_GREEDY))
def test_randomized_greedy_pinned_for_fixed_seed(q):
    res = randomized_greedy(build_conic_model(q), seed=1,
                            restarts=PINNED_RESTARTS.get(q, 20))
    witness, step_log = PINNED_GREEDY[q]
    assert res.witness == witness
    assert res.step_log == step_log


def test_randomized_greedy_job_count_invariant():
    model = build_conic_model(11)
    a = randomized_greedy(model, seed=3, restarts=12, jobs=1)
    b = randomized_greedy(model, seed=3, restarts=12, jobs=3)
    assert a.witness == b.witness


def test_randomized_greedy_runs_on_the_callers_model(monkeypatch):
    calls = []
    monkeypatch.setattr(search, "build_conic_model",
                        lambda q: calls.append(q) or build_conic_model(q))
    own = ConicModel(field_for_order(11))
    res = randomized_greedy(own, seed=1, restarts=3)
    assert calls == []
    assert res.witness == randomized_greedy(build_conic_model(11), seed=1, restarts=3).witness


def test_randomized_greedy_starts_no_more_workers_than_restarts(monkeypatch):
    workers = []

    class InlineExecutor:  # records max_workers and runs each chunk in this process
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    model = build_conic_model(11)
    one = randomized_greedy(model, seed=1, restarts=2, jobs=1)
    many = randomized_greedy(model, seed=1, restarts=2, jobs=64)
    assert workers == [2]
    assert (many.witness, many.step_log) == (one.witness, one.step_log)
    assert randomized_greedy(model, seed=1, restarts=1, jobs=64).witness == \
        randomized_greedy(model, seed=1, restarts=1).witness
    assert workers == [2]  # one restart runs in this process


SIGMA_QS = (7, 8, 9, 13, 16, 17, 25, 27, 32)


@pytest.mark.parametrize("q", SIGMA_QS)
def test_every_table_read_goes_through_sigma(q):
    """`ConicModel.sigma` equals the closed form from the coordinates of P at
    every parameter and every key, read as one block with both in random
    order.  A model whose keys are the M-indices and whose `sigma` is that
    closed form gives the same greedy witnesses, step logs and, for
    q <= 13, exact minimum: the search reads sigma only through `sigma`,
    at keys taken from `key`."""
    model = build_conic_model(q)
    oracle = closed_form_sigma(model)
    idx = np.arange(model.m_size)
    rng = np.random.default_rng(q)
    block, params = rng.permutation(idx), rng.permutation(q + 1)
    assert np.array_equal(model.sigma(params, model.key[block]), oracle(params, block))

    plain = ConicModel(field_for_order(q))
    plain.key, plain.sigma = idx, oracle
    want = randomized_greedy(model, seed=1, restarts=20)
    got = randomized_greedy(plain, seed=1, restarts=20)
    assert (got.witness, got.step_log, got.is_ac) == (want.witness, want.step_log, True)
    if q <= 13:
        assert exhaustive_min_ac(plain) == exhaustive_min_ac(model)


SPAWN_SCRIPT = """
import json, multiprocessing, sys
from conicac.geometry import build_conic_model
from conicac.search import randomized_greedy

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    model = build_conic_model(11)
    runs = [randomized_greedy(model, seed=3, restarts=12, jobs=jobs)
            for jobs in (1, 2)]
    print(json.dumps([[r.witness, r.step_log] for r in runs]))
"""
START_METHODS = [m for m in ("spawn", "fork") if m in multiprocessing.get_all_start_methods()]


def test_randomized_greedy_spawn_start_method_invariant(tmp_path):
    """Workers started by spawn rebuild the model from scratch, and forked
    ones inherit the parent's; the result must depend on neither the start
    method nor the job count."""
    script = tmp_path / "spawn_run.py"
    script.write_text(SPAWN_SCRIPT)
    src = str(Path(conicac.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    here = randomized_greedy(build_conic_model(11), seed=3, restarts=12)
    for method in START_METHODS:
        out = subprocess.run([sys.executable, str(script), method], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        one, two = json.loads(out.stdout)
        assert one == two, method
        assert one == json.loads(json.dumps([here.witness, here.step_log])), method


def test_randomized_greedy_zero_prob_is_greedy_quality():
    model = build_conic_model(9)
    res = randomized_greedy(model, seed=1, restarts=5, random_step_prob=0.0)
    assert res.is_ac
    # with no random steps every step takes a maximal gain, so each one
    # removes at least the bound-A share of the uncovered points
    for after, delta, uncov_after in res.step_log:
        w_prev = after - 1
        if w_prev < 3 or 2 * w_prev >= 9 + 3:
            continue
        u_before = uncov_after + delta
        assert delta >= -((w_prev - 2) * u_before // -(9 + 1 - w_prev))


def assert_greedy_under_bound_a(q, seed):
    """With no random steps every greedy step takes a maximal gain, so after
    w >= 5 chosen points at most U_w of `bound_a_trace(q)` stay uncovered
    (the paper's averaging argument; the trace may end below 0, and U_w
    is 0 from there on)."""
    bound = dict(bound_a_trace(q).steps)
    res = randomized_greedy(build_conic_model(q), seed=seed, restarts=1, random_step_prob=0.0)
    for w, _, uncovered in res.step_log:
        if w >= 5:
            assert uncovered <= max(bound.get(w, 0), 0), (q, seed, w)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("q", [q for q in prime_powers_up_to(128) if q >= 7])
def test_greedy_stays_under_bound_a(q, seed):
    assert_greedy_under_bound_a(q, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("q", [q for q in prime_powers_up_to(512) if q > 128])
def test_greedy_stays_under_bound_a_up_to_512(q, seed):
    assert_greedy_under_bound_a(q, seed)


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


@pytest.mark.parametrize("q", (13, 16))
def test_exhaustive_finds_sizes_below_the_base_on_canonical_bases(monkeypatch, q):
    # a seed of size q (the conic minus one point) makes the base size
    # q - 4 > t(q), so t(q) is found among the canonical t(q)-bases
    model = build_conic_model(q)
    seed = search.SearchResult(q=q, size=q, witness=model.params[:-1], is_ac=True)
    monkeypatch.setattr(search, "randomized_greedy", lambda *args, **kwargs: seed)
    size, witness = exhaustive_min_ac(model)
    assert size == EXACT_T[q] and is_minimal_ac(model, witness)
    assert witness in [list(b) for b in canonical_level(model, size)]


@pytest.mark.parametrize("q", [q for q in sorted(EXACT_T) if q <= 25])
def test_exhaustive_matches_the_reference_dfs(q):
    model = build_conic_model(q)
    assert exhaustive_min_ac(model) == reference_min_ac(model)


@pytest.mark.parametrize("q", [q for q in MODEL_QS if q >= 5])
def test_pair_masks_match_pair_mask(q):
    model = build_conic_model(q)
    assert _pair_masks(model) == [[model.pair_mask(t, u) for u in model.params]
                                  for t in model.params]


def test_exhaustive_builds_the_cross_ratio_tables_once(monkeypatch):
    # an AC seed of size t(23) + 2 makes the base size 10, and the level
    # skip lets sizes 8 and 9 through: one `_canonical_levels` pass serves
    # all three
    model = build_conic_model(23)
    _, witness = exhaustive_min_ac(model)
    witness += [t for t in model.params if t not in witness][:2]
    seed = search.SearchResult(q=23, size=len(witness), witness=witness, is_ac=True)
    monkeypatch.setattr(search, "randomized_greedy", lambda *args, **kwargs: seed)
    calls = []
    factors = search._cross_ratio_factors
    monkeypatch.setattr(search, "_cross_ratio_factors",
                        lambda ctx: calls.append(ctx.q) or factors(ctx))
    assert exhaustive_min_ac(model)[0] == EXACT_T[23]
    assert calls == [23]


@pytest.mark.parametrize("extra", (1, 2, 3, 4))
@pytest.mark.parametrize("q", (13, 16, 17, 19, 23, 25))
def test_exhaustive_matches_the_reference_dfs_from_a_weaker_seed(monkeypatch, q, extra):
    # an AC seed of size t(q) + extra lowers the base size and makes both
    # searches prove t(q) from a weaker upper bound.  The DFS branches that
    # find a smaller cover are reached only this way, as the greedy seed at
    # every pinned q already has size t(q).  The base size is then
    # t(q) + extra - 4, so extra = 1, 2 and 3 find t(q) three, two and one
    # levels below a base, and extra = 4 finds a base that is a cover
    assert_matches_the_reference_dfs_from_a_weaker_seed(monkeypatch, q, extra)


def assert_matches_the_reference_dfs_from_a_weaker_seed(monkeypatch, q, extra):
    """Seed both searches with the witness of t(q) and `extra` more points;
    the reference extends each base by every other point, the search only
    by the points above its largest finite one.  The search visits a
    subsequence of the reference's sets, in the same order, so the two
    agree when the first cover the reference finds is one of them."""
    model = build_conic_model(q)
    seed_with_extra_points(monkeypatch, model, extra)
    size, found = exhaustive_min_ac(model)
    assert (size, found) == reference_min_ac(model)
    assert size == EXACT_T[q] and is_minimal_ac(model, found)


def seed_with_extra_points(monkeypatch, model, extra):
    """Patch the greedy seed of `exhaustive_min_ac` to its own witness plus
    the first `extra` other points; return the seed size."""
    _, witness = exhaustive_min_ac(model)
    witness += [t for t in model.params if t not in witness][:extra]
    seed = search.SearchResult(q=model.q, size=len(witness), witness=witness, is_ac=True)
    monkeypatch.setattr(search, "randomized_greedy", lambda *args, **kwargs: seed)
    return seed.size


@pytest.mark.slow
@pytest.mark.parametrize("extra", (1, 2))
@pytest.mark.parametrize("q", (27, 29))
def test_exhaustive_matches_the_reference_dfs_from_a_weaker_seed_slow(monkeypatch, q, extra):
    """The tier-1 test above at the two pinned q past 25.  Budget, measured
    on a 2-vCPU VM in one pytest run: 1.1 s (27-1), 2.5 s (27-2), 2.0 s
    (29-1) and 5.1 s (29-2), 11 s in all."""
    assert_matches_the_reference_dfs_from_a_weaker_seed(monkeypatch, q, extra)


class _ReadLog(list):
    """A row of the pair-mask table that logs (row, column) of every read."""

    def __init__(self, t, row, reads):
        super().__init__(row)
        self.t, self.reads = t, reads

    def __getitem__(self, c):
        self.reads.append((self.t, c))
        return super().__getitem__(c)


@pytest.mark.parametrize("q, extra", [(13, 0), (16, 0), (19, 0), (23, 0), (17, 2), (23, 1)])
def test_exhaustive_extends_each_base_only_above_its_largest_finite_point(monkeypatch, q, extra):
    # The row of inf is read only where the acc of a base is built: one run
    # of reads per row of the base, in order, each over the same candidate
    # columns.  Those must be the finite points above the base's largest
    # finite point, and nothing at or below it; extra > 0 seeds the search
    # t(q) + extra points, so that the DFS also finds smaller covers.
    model = build_conic_model(q)
    k = max(3, seed_with_extra_points(monkeypatch, model, extra) - 4)
    reads = []
    pair_masks = search._pair_masks
    monkeypatch.setattr(search, "_pair_masks", lambda m: [
        _ReadLog(t, row, reads) for t, row in enumerate(pair_masks(m))])
    assert exhaustive_min_ac(model)[0] == EXACT_T[q]
    runs = []  # maximal runs of reads from one row: (row, columns)
    for t, c in reads:
        if runs and runs[-1][0] == t:
            runs[-1][1].append(c)
        else:
            runs.append((t, [c]))
    level = set(canonical_level(model, k))
    builds = [i for i, (t, _) in enumerate(runs) if t == q]
    assert builds
    for i in builds:
        base = tuple(t for t, _ in runs[i - k + 1:i + 1])
        cands = runs[i][1]
        assert base in level, base
        assert all(cs == cands for _, cs in runs[i - k + 1:i]), base
        assert cands == list(range(base[-2] + 1, q)), base


def test_witness_line_format():
    model = build_conic_model(5)
    res = randomized_greedy(model, seed=1, restarts=1, random_step_prob=0.0)
    line = res.witness_line(model)
    q, size, names = line.split(";")
    assert q == "5" and int(size) == res.size
    parsed = [parse_param(model, s) for s in names.split(",")]
    assert parsed == res.witness


# --- canonical bases -------------------------------------------------------

def _mobius_matrix(ctx, x, y, z, inf):
    """2x2 matrix over F_q sending parameters (x, y, z) to (0, 1, inf)."""
    if x == inf:
        return (0, ctx.sub(y, z), 1, ctx.neg(z))
    if y == inf:
        return (1, ctx.neg(x), 1, ctx.neg(z))
    if z == inf:
        return (1, ctx.neg(x), 0, ctx.sub(y, x))
    yz = ctx.sub(y, z)
    yx = ctx.sub(y, x)
    return (yz, ctx.neg(ctx.mul(x, yz)), yx, ctx.neg(ctx.mul(z, yx)))


def _mobius_apply(ctx, mat, t, inf):
    a, b, c, d = mat
    if t == inf:
        num, den = a, c
    else:
        num = ctx.add(ctx.mul(a, t), b)
        den = ctx.add(ctx.mul(c, t), d)
    return inf if den == 0 else ctx.div(num, den)


def oracle_canonical_bases(model, base_size):
    """Scalar reference: bases through {0, 1, inf} that equal their minimal
    sorted image over the Moebius maps sending an ordered triple of the
    base to (0, 1, inf).  The triple (0, 1, inf) maps the base to itself, so
    that holds exactly when no image is smaller."""
    ctx, inf = model.ctx, model.inf
    rest = [t for t in model.params if t not in (0, 1, inf)]
    out = []
    for extra in combinations(rest, base_size - 3):
        base = tuple(sorted((0, 1, inf) + extra))
        if not any(tuple(sorted(_mobius_apply(ctx, _mobius_matrix(ctx, x, y, z, inf), t, inf)
                                for t in base)) < base
                   for x, y, z in permutations(base, 3)):
            out.append(base)
    return out


def canonical_level(model, k):
    """The last level of `_canonical_levels(model, k)` as a list of tuples."""
    *_, level = _canonical_levels(model, k)
    return list(map(tuple, level.tolist()))


def assert_levels_match_the_filter(q, top):
    """Levels 3..top: one per size, each equal to `filter_canonical_bases`,
    strictly increasing and with columns 0, 1 and inf first, second and last."""
    model = build_conic_model(q)
    levels = list(_canonical_levels(model, top))
    assert len(levels) == top - 2
    for k, level in zip(range(3, top + 1), levels):
        rows = list(map(tuple, level.tolist()))
        assert rows == filter_canonical_bases(model, k), k
        assert all(a < b for a, b in zip(rows, rows[1:])), k
        assert level.shape[1] == k
        assert (level[:, 0] == 0).all() and (level[:, 1] == 1).all(), k
        assert (level[:, -1] == q).all(), k


@pytest.mark.parametrize("q", [q for q in MODEL_QS if 7 <= q <= 17])
def test_canonical_bases_match_scalar_moebius_oracle(q):
    model = build_conic_model(q)
    assert canonical_level(model, 6) == oracle_canonical_bases(model, 6)


# Canonicity test groupings: the defaults, one pair (x, z) per step, every
# pair of a block in one step, and blocks of 7 candidate rows.
GROUPINGS = ({}, {"CANONICAL_STEP": 1}, {"CANONICAL_STEP": 1 << 40}, {"CANONICAL_BLOCK": 7})


def assert_levels_match_the_filter_in_every_grouping(monkeypatch, q, top):
    for grouping in GROUPINGS:
        with monkeypatch.context() as patch:
            for name, value in grouping.items():
                patch.setattr(search, name, value)
            assert_levels_match_the_filter(q, top)


@pytest.mark.parametrize("q", (8, 9, 11, 13))
def test_canonical_levels_match_the_filter_in_combinations_order(monkeypatch, q):
    # sizes 3..min(q-3, 10), as in the scalar-oracle test below
    assert_levels_match_the_filter_in_every_grouping(monkeypatch, q, min(q - 3, 10))


def test_canonical_levels_match_the_filter_at_the_exact_limit(monkeypatch):
    # q = 61 puts inf on bit 61 of the uint64 code masks
    assert_levels_match_the_filter_in_every_grouping(monkeypatch, cli.EXACT_MAX_Q, 6)


@pytest.mark.slow
@pytest.mark.parametrize("q", (31, 32))
def test_canonical_levels_match_the_filter_up_to_10(q):
    """Sizes 3..10 at the largest q of the paper's table.  The filter takes
    about 5 s per q on a 2-vCPU VM.  Size 11, the base size the rule picks
    at q = 32, would filter C(30, 8) rows; the pinned `ac exact 32` output
    checks that level instead."""
    assert_levels_match_the_filter(q, 10)


@pytest.mark.parametrize("q", [q for q in MODEL_QS if 11 <= q <= 13])
def test_canonical_8_bases_match_scalar_moebius_oracle(q):
    # 8-point bases, the size `exhaustive_min_ac` uses at q = 23 and 25
    model = build_conic_model(q)
    assert canonical_level(model, 8) == oracle_canonical_bases(model, 8)


@pytest.mark.parametrize("q", (8, 9, 11, 13))
def test_canonical_bases_match_scalar_moebius_oracle_at_every_size(q):
    # base sizes 3..min(q-3, 10): at q = 13, every size the rule
    # k = max(3, g - 4) and the sizes below it can reach, as g <= q
    model, top = build_conic_model(q), min(q - 3, 10)
    for k, level in zip(range(3, top + 1), _canonical_levels(model, top)):
        assert list(map(tuple, level.tolist())) == oracle_canonical_bases(model, k), k


@pytest.mark.parametrize("q", (8, 9, 11, 13))
def test_every_prefix_of_a_canonical_set_is_canonical(q):
    # the prefix lemma `exhaustive_min_ac` extends its bases by: the k-1
    # smallest finite points of a canonical m-set, with inf, make a
    # canonical k-set, for every 3 <= k < m, at every size m up to q + 1
    model = build_conic_model(q)
    sizes = range(3, q + 2)
    levels = {k: set(filter_canonical_bases(model, k)) for k in sizes}
    for m in sizes[1:]:
        assert levels[m], (q, m)
        for row in levels[m]:
            for k in range(3, m):
                assert row[:k - 1] + (q,) in levels[k], (row, k)


# Number of canonical 6-point bases, recorded with the scalar canonicaliser.
CANONICAL_BASE_COUNTS = {7: 1, 8: 1, 9: 2, 11: 4, 13: 5, 16: 8, 17: 10, 19: 13,
                         23: 22, 25: 28, 27: 34, 29: 42, 31: 51, 32: 53}
# Counts at the base sizes `exhaustive_min_ac` picks for q = 23, 25, 27,
# recorded with the np.intp-coded canonicaliser.
RULE_BASE_COUNTS = {(23, 8): 83, (25, 8): 131, (27, 9): 382}


def test_canonical_base_counts_pinned():
    assert {q: len(canonical_level(build_conic_model(q), 6))
            for q in CANONICAL_BASE_COUNTS} == CANONICAL_BASE_COUNTS
    assert {(q, k): len(canonical_level(build_conic_model(q), k))
            for q, k in RULE_BASE_COUNTS} == RULE_BASE_COUNTS


@pytest.mark.parametrize("q", MODEL_QS + [256])  # 256: inf needs uint16
def test_cross_ratio_is_the_moebius_map_to_0_1_inf(q):
    """The factors `_canonical_levels` multiplies, times[[t,x]/[t,z], [y,z]/[y,x]],
    form the map sending (x, y, z) to (0, 1, inf), a permutation of the codes."""
    ratio, times = _cross_ratio_factors(field_for_order(q))
    everything = list(range(q + 1))
    rng = random.Random(300 + q)
    for _ in range(20):
        x, y, z = rng.sample(everything, 3)
        scale = ratio(y, z, x)
        assert 0 < scale < q
        images = times[ratio(np.arange(q + 1), x, z), scale]
        assert [images[x], images[y], images[z]] == [0, 1, q]
        assert sorted(images.tolist()) == everything
