import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conicac import bounds
from conicac.bounds import (BOUNDS_Q_MAX, bound_a_trace, bound_a_values, bound_b,
                            bound_b_values, bound_c_phi, bound_c_values,
                            bound_theorem32, bound_theorem34, bound_values,
                            curve_emit, default_xi, evaluate_bound, f_q_log,
                            in_q1, is_prime_power, prime_powers_up_to,
                            sqrt_qlnq, theorem41_bound, theta, theta_values)
from conicac.cli import FIG_GRIDS
from conicac.gf import factor_prime_power
from conicac.nrc import is_prime
from conicac.tables import EXACT_T


def sample_prime_powers(lo, hi, count):
    """Geometric q-grid snapped to the next prime at or above each point."""
    out = []
    ratio = (hi / lo) ** (1 / (count - 1))
    for k in range(count):
        n = int(round(lo * ratio ** k))
        while not is_prime(n):
            n += 1
        out.append(n)
    return sorted(set(out))


# --- exact recursion ------------------------------------------------------

def oracle_trace(q, w0, u0):
    """Independent re-derivation with Fraction ceilings."""
    steps = [(w0, u0)]
    w, u = w0, u0
    while u > 0 and q + 1 - w >= 1:
        u = u - math.ceil(Fraction((w - 2) * u, q + 1 - w))
        steps.append((w + 1, u))
        if u <= 0:
            return steps, w
        w += 1
    return steps, None


def test_recursion_hand_example_q11():
    tr = bound_a_trace(11)
    assert tr.steps == [(5, 36), (6, 20), (7, 6), (8, 0)]
    assert tr.w_fin == 7 and tr.bound == 8
    assert math.isclose(tr.star, 8 / math.sqrt(11 * math.log(11)), rel_tol=1e-12)
    assert abs(tr.star - 1.5577) < 5e-5


@pytest.mark.parametrize("q", [7, 8, 9, 16, 32, 101, 1024, 55711, 999983])
def test_recursion_matches_fraction_oracle(q):
    tr = bound_a_trace(q)
    steps, w_fin = oracle_trace(q, 5, (q - 5) ** 2)
    assert tr.steps == steps and tr.w_fin == w_fin


def test_recursion_input_validation():
    with pytest.raises(ValueError):
        bound_a_trace(4)


def test_recursion_infeasible_start():
    tr = bound_a_trace(5)  # U_5 = 0: nothing to cover, no bound
    assert tr.steps == [(5, 0)]
    assert tr.w_fin is None and tr.bound is None and not tr.feasible


def test_recursion_dominates_exact_minimum():
    for q, t in EXACT_T.items():
        if q == 5:
            continue  # U_5 = 0 gives no bound
        tr = bound_a_trace(q)
        assert tr.bound >= t


def test_recursion_star_shape():
    """Starred recursion values rise to a peak near 55711, then decay."""
    assert abs(bound_a_trace(55711).star - 1.834) < 1e-3
    assert abs(bound_a_trace(13995829).star - 1.81801) < 1e-4
    # the bound is an integer, so the starred value carries jitter up to
    # about 1/sqrt(q ln q); allow for it and check the trend only
    rising = sample_prime_powers(101, 55711, 30)
    stars = [bound_a_trace(q).star for q in rising]
    assert all(b > a - 0.025 for a, b in zip(stars, stars[1:]))
    assert stars[-1] > stars[0]
    falling = sample_prime_powers(55711, 13995829, 30)
    stars = [bound_a_trace(q).star for q in falling]
    assert all(b < a + 0.025 for a, b in zip(stars, stars[1:]))
    assert stars[-1] < stars[0]


def test_bound_a_values_match_trace():
    qs = prime_powers_up_to(20000)
    assert bound_a_values(qs) == [bound_a_trace(q).bound for q in qs]


@pytest.mark.parametrize("qs, want", [
    ([5], [None]),
    ([7, 5, 11], [6, None, 8]),
    ([11, 7, 11], [8, 6, 8]),
    ([], []),
])
def test_bound_a_values_keep_input_order(qs, want):
    assert bound_a_values(qs) == want


def test_bound_a_values_input_validation():
    with pytest.raises(ValueError):
        bound_a_values([7, 4])


def test_bound_a_values_fall_back_to_python_ints(monkeypatch):
    """With the int64 limit lowered, the q still live when the guard trips
    are finished by the scalar trace, with the same values."""
    qs = prime_powers_up_to(2000)
    want = [bound_a_trace(q).bound for q in qs]
    monkeypatch.setattr(bounds, "_INT64_MAX",
                        max((w - 2) * u for w, u in bound_a_trace(1009).steps))
    calls = []
    monkeypatch.setattr(bounds, "bound_a_trace",
                        lambda q: calls.append(q) or bound_a_trace(q))
    assert bound_a_values(qs) == want
    assert 0 < len(calls) < len(qs)


@pytest.mark.parametrize("q", [45000017, 50000017, 2 ** 32 + 15])
def test_bound_a_at_the_int64_limit(q):
    """(w-2)*U_w peaks at 0.89x the int64 maximum at q = 45000017 and at
    1.16x at q = 50000017; at the prime 2^32 + 15, U_5 = (q-5)^2 alone
    exceeds it.  Run in a subprocess with a timeout: a wrapped U need not
    ever reach 0."""
    src = str(Path(bounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"from conicac.bounds import curve_emit; print(curve_emit([{q}], ['A']))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env={**os.environ, "PYTHONPATH": path})
    want = bound_a_trace(q).bound
    assert out.stdout.strip() == repr([(q, "A", float(want), want / sqrt_qlnq(q))])


# --- truncated product ----------------------------------------------------

def test_f_q_log_small_cases():
    # w=2 includes the i=1 factor 1 + 1/q and the i=2 factor 1
    assert math.isclose(f_q_log(11, 2), math.log(Fraction(12, 11)), rel_tol=1e-12)
    exact = Fraction(1)
    for i in range(1, 6):
        exact *= 1 - Fraction(i - 2, 11 + 1 - i)
    assert math.isclose(f_q_log(11, 5), math.log(exact), rel_tol=1e-12)
    with pytest.raises(ValueError):
        f_q_log(11, 0)
    with pytest.raises(ValueError):
        f_q_log(11, 11)


def test_f_q_log_monotone_decreasing_in_w():
    for q in (101, 1009):
        vals = [f_q_log(q, w) for w in range(3, q // 2)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_scan_bound_agrees_with_exp_form():
    """The binary64 scan and the closed-form relaxation pick consistent w:
    the relaxed left side is always >= the exact one, so the relaxed scan
    can never stop earlier."""
    for q in (101, 1009, 10007):
        xi = default_xi(q)
        exact = bound_theorem32(q, xi)
        relaxed = bound_b(q, xi)
        assert exact is not None and relaxed is not None
        assert relaxed[0] >= exact[0]
        assert relaxed[1] >= exact[1]


def _bound_b_scan(q, xi):
    """Linear scan over every w < (q+3)/2: the oracle for the bisection."""
    target = math.log(xi) - 2 * math.log(q)
    for w in range(1, (q + 2) // 2 + 1):
        if w - (q - 1) * math.log((q + 1) / (q + 1 - w)) <= target:
            return w, w + 1 + xi
    return None


def test_bound_b_bisection_matches_scan():
    for q in prime_powers_up_to(50000):
        assert bound_b(q) == _bound_b_scan(q, default_xi(q)), q
    # xi = 2e4 > q^2 at q=101 makes w=1 admissible
    assert bound_b(101, 2e4)[0] == 1
    for q, xi in ((7, 1.0), (101, 1.0), (101, 2e4), (1009, 50.0)):
        assert bound_b(q, xi) == _bound_b_scan(q, xi), (q, xi)


def test_bound_b_infeasible_small_q():
    assert bound_b(9) is None
    with pytest.raises(ValueError):
        bound_b(4)
    with pytest.raises(ValueError):
        bound_b(101, xi=0.5)


def test_bound_b_large_q_sandwiched():
    """The relaxed scan sits between the exact scan and the closed form."""
    for q in (10 ** 6 + 3, 12755807, 13995829):
        w, val = bound_b(q)
        assert 2 * w < q + 3
        exact = bound_theorem32(q, default_xi(q))[1]
        assert exact <= val <= bound_c_phi(q)
        assert 1.5 < val / sqrt_qlnq(q) < 1.9


# --- explicit bounds ------------------------------------------------------

def test_phi_values():
    assert abs(bound_c_phi(5) - 10.68) < 0.01
    star = bound_c_phi(12755807) / sqrt_qlnq(12755807)
    assert star < 1.835
    with pytest.raises(ValueError):
        bound_c_phi(4)


def test_phi_star_eventually_decreasing():
    qs = sample_prime_powers(1000, 10 ** 9, 200)
    stars = [bound_c_phi(q) / sqrt_qlnq(q) for q in qs]
    assert all(b < a for a, b in zip(stars, stars[1:]))


def test_theorem34_specializations():
    for q in (9, 101, 10007, 999983):
        assert math.isclose(bound_theorem34(q, 1.0),
                            2 * sqrt_qlnq(q) + 5, rel_tol=1e-12)
        assert math.isclose(bound_theorem34(q, math.sqrt(q)),
                            math.sqrt(3 * q * math.log(q)) + math.sqrt(q) + 4,
                            rel_tol=1e-12)
        assert math.isclose(bound_theorem34(q, default_xi(q)),
                            bound_c_phi(q), rel_tol=1e-9)


def test_default_xi_is_stationary_point():
    """phi'(xi) at the default xi matches the closed form and a numeric
    derivative; at xi=1 the function is still decreasing."""
    def deriv(q, xi):
        return 1 - math.sqrt(2 * q) / (2 * xi * math.sqrt(2 * math.log(q) - math.log(xi)))

    for q in (101, 10007, 999983):
        xi = default_xi(q)
        lnq = math.log(q)
        closed = 1 - math.sqrt(3 * lnq / (3 * lnq + math.log(lnq) + math.log(3)))
        assert math.isclose(deriv(q, xi), closed, rel_tol=1e-9)
        h = xi * 1e-6
        numeric = (bound_theorem34(q, xi + h) - bound_theorem34(q, xi - h)) / (2 * h)
        assert abs(numeric - deriv(q, xi)) < 1e-4
        assert deriv(q, 1.0) < 0


def test_xi_one_and_sqrt_q_dominate_phi():
    # xi=1 dips below the default-xi closed form only for q <= 13
    for q in sample_prime_powers(17, 10 ** 7, 40):
        phi = bound_c_phi(q)
        assert bound_theorem34(q, 1.0) >= phi - 1e-9
        assert bound_theorem34(q, math.sqrt(q)) >= phi - 1e-9


def test_combined_star_below_1835():
    """min of the recursion star and Phi star stays below 1.835 on a sample
    across the whole range."""
    for q in sample_prime_powers(7, 14 * 10 ** 6, 200):
        a = bound_a_trace(q).star
        c = bound_c_phi(q) / sqrt_qlnq(q)
        best = c if a is None else min(a, c)
        assert best < 1.835, q


def test_theta_branches():
    s101 = sqrt_qlnq(101)
    assert math.isclose(theta(101), 1.62 * s101, rel_tol=1e-12)
    assert math.isclose(theta(128), 1.62 * sqrt_qlnq(128), rel_tol=1e-12)
    assert math.isclose(theta(32003), 1.635 * sqrt_qlnq(32003), rel_tol=1e-12)
    assert math.isclose(theta(139129), 1.674 * sqrt_qlnq(139129), rel_tol=1e-12)
    # far out, the explicit branch takes over
    big = 2 ** 31 - 1
    assert math.isclose(theta(big), min(1.835 * sqrt_qlnq(big), bound_c_phi(big)),
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        theta(100)
    with pytest.raises(ValueError):
        theta(4)


def test_theta_refuses_q_above_the_limit_before_factoring(monkeypatch):
    def no_factoring(q):
        raise AssertionError("q factored above the limit")

    monkeypatch.setattr(bounds, "factor_prime_power", no_factoring)
    for q in (BOUNDS_Q_MAX + 19, 1000000000000000003):
        with pytest.raises(ValueError, match=f"above the bounds limit {BOUNDS_Q_MAX}"):
            theta(q)


def test_theta_dominates_exact_minimum():
    for q, t in EXACT_T.items():
        if q >= 8:
            assert t < theta(q)


@pytest.mark.parametrize("fn", [theta, theorem41_bound])
def test_theta_and_theorem41_factor_q_once(monkeypatch, fn):
    calls = []

    def counted(q):
        calls.append(q)
        return factor_prime_power(q)

    monkeypatch.setattr(bounds, "factor_prime_power", counted)
    for q in (7, 11, 128, 139129):
        calls.clear()
        fn(q)
        assert calls == [q]


def test_theorem41_examples():
    assert theorem41_bound(64)[0] == 1.525
    assert theorem41_bound(11)[0] == 1.572
    assert theorem41_bound(7)[0] == 1.635
    assert theorem41_bound(2000 + 48)[0] == 1.572   # 2048 in (1553, 2351]
    assert theorem41_bound(3001)[0] == 1.585
    assert theorem41_bound(16384)[0] == 1.620
    assert theorem41_bound(131072)[0] == 1.674
    assert theorem41_bound(253009)[0] == 1.686
    c, val = theorem41_bound(1024)
    assert math.isclose(val, c * sqrt_qlnq(1024), rel_tol=1e-12)
    with pytest.raises(ValueError):
        theorem41_bound(5)
    with pytest.raises(ValueError):
        theorem41_bound(10)


# --- array passes ---------------------------------------------------------

def bound_b_pairs(qs):
    """`bound_b_values` in the scalar `bound_b` form: (w, value) or None."""
    w, value = bound_b_values(qs)
    return [(a, v) if a else None for a, v in zip(w.tolist(), value.tolist())]


def assert_arrays_match_scalar(qs):
    """Array B (w and value), C and theta equal the scalar functions bit for
    bit: every value is a positive finite float, so == is bitwise."""
    assert bound_b_pairs(qs) == [bound_b(q) for q in qs]
    assert bound_c_values(qs).tolist() == [bound_c_phi(q) for q in qs]
    assert theta_values(qs).tolist() == [theta(q) for q in qs]


def test_array_bounds_match_scalar_on_fig1():
    assert_arrays_match_scalar(prime_powers_up_to(FIG_GRIDS["fig1"]))


def test_array_bounds_match_scalar_on_a_fig2_sample():
    qs = random.Random(1).sample(prime_powers_up_to(FIG_GRIDS["fig2"]), 20000)
    assert_arrays_match_scalar(qs)


def test_bound_b_values_math_log_path(monkeypatch):
    """With an infinite slack every bisection probe is decided with
    math.log alone, the path np.log hands its near ties to."""
    monkeypatch.setattr(bounds, "B_LOG_SLACK", math.inf)
    qs = prime_powers_up_to(20000)
    assert bound_b_pairs(qs) == [bound_b(q) for q in qs]


def test_array_bounds_input_validation():
    for fn in (bound_b_values, bound_c_values, theta_values):
        with pytest.raises(ValueError):
            fn([7, 4])
    assert bound_b_values([])[0].size == bound_c_values([]).size == theta_values([]).size == 0
    with pytest.raises(ValueError, match="q=100 is not a prime power"):
        theta_values([7, 100, 11])
    with pytest.raises(ValueError):
        bound_values("Z", [11])


# --- emission helpers -----------------------------------------------------

def test_evaluate_bound():
    assert evaluate_bound("A", 11) == 8.0
    assert evaluate_bound("A", 5) is None
    assert evaluate_bound("B", 9) is None
    with pytest.raises(ValueError):
        evaluate_bound("theta", 100)  # not a prime power
    assert math.isclose(evaluate_bound("C", 101), bound_c_phi(101), rel_tol=0)
    with pytest.raises(ValueError):
        evaluate_bound("Z", 11)


def test_curve_emit_rows():
    rows = curve_emit([11], ["A", "C"])
    assert [r[:2] for r in rows] == [(11, "A"), (11, "C")]
    q, name, value, star = rows[0]
    assert value == 8.0
    assert math.isclose(star, 8 / sqrt_qlnq(11), rel_tol=1e-12)
    # infeasible pairs are skipped, not emitted as None
    rows = curve_emit([9], ["B"])
    assert rows == []
    # q-major in the order given, duplicates kept, q = 5 has no A row
    grid, names = [11, 5, 7, 11], ["A", "C"]
    want = [(q, n, evaluate_bound(n, q)) for q in grid for n in names
            if evaluate_bound(n, q) is not None]
    assert [r[:3] for r in curve_emit(grid, names)] == want


def test_prime_powers_up_to():
    got = prime_powers_up_to(200)
    want = [q for q in range(5, 201) if factor_prime_power(q)]
    assert got == want
    assert prime_powers_up_to(32)[10:] == [25, 27, 29, 31, 32]
    assert [prime_powers_up_to(n) for n in range(5)] == [[]] * 5
    assert prime_powers_up_to(1024)[-4:] == [1013, 1019, 1021, 1024]  # 2^10 at the limit
    got = prime_powers_up_to(10 ** 4)
    assert got == [q for q in range(5, 10 ** 4 + 1) if factor_prime_power(q)]
    assert all(type(q) is int for q in got)


def test_prime_power_predicates():
    assert is_prime_power(343) and not is_prime_power(100)
    assert in_q1(8) and in_q1(139129)
    assert not in_q1(139130) and not in_q1(7) and not in_q1(13)
