"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete."""

import random
from contextlib import contextmanager
from itertools import combinations

from conicac.bounds import bound_a_trace, sqrt_qlnq
from conicac.geometry import build_conic_model
from conicac.gf import field_for_order
from conicac.nrc import completeness_brute, is_prime, nrc_points, p0_solve
from conicac.search import CoverageState, exhaustive_min_ac, randomized_greedy
from conicac.tables import (EXACT_T, KNOWN_TBAR_SAMPLE, embedded_table2_rows,
                            verify_rows)
from oracles import bisecant_mpoints, bound_c_phi, coverage_mask, covered, is_arc, m_coords

EXACT_FAST_QS = (5, 7, 8, 9, 11, 13)   # the rest of EXACT_T takes seconds to
                                       # minutes (see README), so it is left out
GREEDY_LARGE = {49: 18, 64: 22, 81: 25, 121: 33, 169: 41}

P0_DEFAULT = [757, 1399, 2129, 2887, 3623, 4621, 5417, 6247, 7079, 7919,
              8779, 9629, 10499, 11383, 12253, 13147]
P0_C162 = [877, 1543, 2273, 3037, 3821]


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def sample_prime_powers(lo, hi, count):
    out = []
    ratio = (hi / lo) ** (1 / (count - 1))
    for k in range(count):
        n = int(round(lo * ratio ** k))
        while not is_prime(n):
            n += 1
        out.append(n)
    return sorted(set(out))


def test_criterion_1_exact_minima():
    with criterion(1, "exact minima"):
        for q in EXACT_FAST_QS:
            size, witness = exhaustive_min_ac(build_conic_model(q))
            assert size == EXACT_T[q], (q, size)


def test_criterion_2_randomized_greedy_quality():
    with criterion(2, "randomized greedy quality"):
        for q, t in sorted(EXACT_T.items()):
            res = randomized_greedy(build_conic_model(q), seed=1, restarts=200,
                                    random_step_prob=0.1)
            assert res.is_ac and res.size <= t + 1, (q, res.size, t)
        for q, tbar in sorted(GREEDY_LARGE.items()):
            res = randomized_greedy(build_conic_model(q), seed=1, restarts=200,
                                    random_step_prob=0.1)
            assert res.is_ac and res.size <= tbar + 3, (q, res.size, tbar)


def test_criterion_3_recursion_trace_and_endpoints():
    with criterion(3, "recursion trace and endpoints"):
        tr = bound_a_trace(11)
        assert [u for _, u in tr.steps] == [36, 20, 6, 0]
        assert tr.bound == 8
        assert abs(bound_a_trace(55711).star - 1.8341) < 5e-4
        assert abs(bound_a_trace(13995829).star - 1.8180) < 5e-4


def test_criterion_4_explicit_bound_machinery():
    with criterion(4, "explicit bound machinery"):
        assert bound_c_phi(12755807) / sqrt_qlnq(12755807) < 1.835
        ratio = (10 ** 8 / 10 ** 2) ** (1 / 199)
        grid = sorted({int(round(100 * ratio ** k)) for k in range(200)})
        stars = [bound_c_phi(q) / sqrt_qlnq(q) for q in grid]
        assert all(b < a for a, b in zip(stars, stars[1:]))
        for q in sample_prime_powers(7, 14 * 10 ** 6, 200):
            a = bound_a_trace(q).star if q > 5 else None
            c = bound_c_phi(q) / sqrt_qlnq(q)
            assert min(x for x in (a, c) if x is not None) < 1.835, q


def test_criterion_5_p0_tables():
    with criterion(5, "p0 threshold tables"):
        assert [p0_solve(h).p0 for h in range(1, 17)] == P0_DEFAULT
        assert [p0_solve(h, c_override=1.62).p0 for h in range(1, 6)] == P0_C162


def test_criterion_6_nrc_completeness():
    with criterion(6, "NRC completeness"):
        ext = completeness_brute(nrc_points(field_for_order(4), 2))
        assert len(ext) == 1 and ext[0] == build_conic_model(4).nucleus
        for q, n in ((5, 2), (7, 2), (7, 3)):
            assert completeness_brute(nrc_points(field_for_order(q), n)) == []
        assert len(completeness_brute(nrc_points(field_for_order(8), 6))) > 1


def test_criterion_7_property_suites():
    with criterion(7, "property suites"):
        _coverage_oracle_and_gain_bound()
        _bisecant_sizes()
        _arc_minor_equivalence()


def _coverage_oracle_and_gain_bound():
    for q in (5, 7, 8, 9, 11, 13):
        model = build_conic_model(q)
        ctx = model.ctx

        def det3(A, B, C):
            t1 = ctx.mul(A[0], ctx.sub(ctx.mul(B[1], C[2]), ctx.mul(B[2], C[1])))
            t2 = ctx.mul(A[1], ctx.sub(ctx.mul(B[2], C[0]), ctx.mul(B[0], C[2])))
            t3 = ctx.mul(A[2], ctx.sub(ctx.mul(B[0], C[1]), ctx.mul(B[1], C[0])))
            return ctx.add(ctx.add(t1, t2), t3)

        conic = [(1, t, ctx.mul(t, t)) for t in range(q)] + [(0, 0, 1)]
        m_points = list(zip(*m_coords(model).tolist()))
        pair_cover = {}
        for t1, t2 in combinations(model.params, 2):
            A, B = conic[t1], conic[t2]
            pair_cover[(t1, t2)] = {
                i for i, P in enumerate(m_points) if det3(A, B, P) == 0}

        rng = random.Random(q)
        for _ in range(500):
            subset = rng.sample(model.params, rng.randint(2, min(q, 8)))
            want = set()
            for pair in combinations(sorted(subset), 2):
                want |= pair_cover[pair]
            st = CoverageState(model)
            for t in subset:
                st.add(t)
            assert covered(st) == coverage_mask(model, subset)
            assert {i for i in range(model.m_size) if covered(st) >> i & 1} == want

            # gain bound at this state
            w = len(subset)
            uncov = model.m_size - len(want)
            if not (3 <= w and 2 * w < q + 3) or uncov == 0:
                continue
            best = 0
            for t in model.params:
                if t in subset:
                    continue
                gain = 0
                for s in subset:
                    gain |= model.pair_mask(t, s)
                best = max(best, (gain & ~covered(st)).bit_count())
            assert best >= -((w - 2) * uncov // -(q + 1 - w)), (q, subset)


def _bisecant_sizes():
    from conicac.gf import factor_prime_power
    for q in range(5, 33):
        if factor_prime_power(q) is None:
            continue
        model = build_conic_model(q)
        for t1, t2 in combinations(model.params, 2):
            assert len(bisecant_mpoints(model, t1, t2)) == q - 1


def _arc_minor_equivalence():
    for q, n in ((5, 2), (5, 3), (7, 2), (7, 3), (8, 2), (9, 2)):
        ctx = field_for_order(q)
        arc = nrc_points(ctx, n)
        assert is_arc(arc.points, n, ctx)
        assert not is_arc(arc.points + [arc.points[0]], n, ctx)


def test_criterion_8_table_verification():
    with criterion(8, "table verification"):
        verdicts = verify_rows(embedded_table2_rows() + KNOWN_TBAR_SAMPLE)
        bad = [v for v in verdicts if not v.ok]
        assert bad == [], bad
        for q, tbar, tstar in KNOWN_TBAR_SAMPLE:
            star = tbar / sqrt_qlnq(q)
            assert star <= tstar < star + 0.01
