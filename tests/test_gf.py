import random

import numpy as np
import pytest

from conicac import gf
from conicac.gf import (FIELD_MAX_Q, FieldCtx, FieldError, factor_prime_power,
                        factor_prime_powers, field_for_order, field_new, field_tables,
                        is_prime, min_irreducible, primes_up_to)
from oracles import field_pow

PRIME_POWERS_64 = [q for q in range(2, 65) if factor_prime_power(q)]


def oracle_mul(ctx, a, b):
    """Independent check: schoolbook polynomial product reduced by long
    division against the context modulus."""
    p = ctx.p
    if ctx.m == 1:
        return (a * b) % p

    def digits(x):
        out = []
        while x:
            out.append(x % p)
            x //= p
        return out

    da, db = digits(a), digits(b)
    prod = [0] * (len(da) + len(db) or 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = ctx.modulus
    deg = len(mod) - 1
    while len(prod) > deg:
        lead = prod[-1]
        if lead:
            shift = len(prod) - 1 - deg
            for i, c in enumerate(mod):
                prod[shift + i] = (prod[shift + i] - lead * c) % p
        prod.pop()
    code = 0
    for c in reversed(prod):
        code = code * p + c
    return code


def test_minimal_modulus_gf8():
    # degree-3 monic polys over F_2 ordered by coefficient integer:
    # x^3+x+1 (11) precedes x^3+x^2+1 (13)
    assert field_new(2, 3).modulus == [1, 1, 0, 1]


def test_minimal_modulus_gf9():
    # x^2+1 has no root in F_3: 0^2+1=1, 1^2+1=2, 2^2+1=2
    assert field_new(3, 2).modulus == [1, 0, 1]


def test_prime_field_has_no_modulus():
    assert field_new(5, 1).modulus is None


def test_construction_errors():
    with pytest.raises(FieldError):
        FieldCtx(4, 1)
    with pytest.raises(FieldError):
        FieldCtx(2, 0)
    with pytest.raises(FieldError):
        FieldCtx(2, 64)
    with pytest.raises(FieldError):
        FieldCtx(2, 21)  # above the table-backed limit of 2^20 elements


def test_field_for_order_checks_the_limit_before_factoring(monkeypatch):
    def no_factoring(q):
        raise AssertionError("q factored above the field limit")

    monkeypatch.setattr(gf, "factor_prime_power", no_factoring)
    for q in (FIELD_MAX_Q + 1, 1000000000000000003):  # the prime would take 10^9 divisions
        with pytest.raises(FieldError, match=f"exceeds the table-backed field limit {FIELD_MAX_Q}"):
            field_for_order(q)


def test_gf8_mul_examples():
    f = field_new(2, 3)
    assert f.mul(2, 2) == 4          # x * x = x^2
    assert f.mul(2, 4) == 3          # x * x^2 = x^3 = x + 1
    assert all(f.add(a, 0) == a for a in range(8))


def test_inv_zero_rejected():
    for f in (field_new(7, 1), field_new(2, 3)):
        with pytest.raises(FieldError):
            f.inv(0)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_mul_matches_long_division_oracle(p, m):
    f = field_new(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(300):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == oracle_mul(f, a, b)


def _tables(f):
    q = f.q
    add = np.array([[f.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[f.mul(a, b) for b in range(q)] for a in range(q)])
    return add, mul


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_field_axioms(q):
    f = field_new(*factor_prime_power(q))
    add, mul = _tables(f)
    # commutativity and associativity, exhaustive
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    for t in (add, mul):
        assert np.array_equal(t[t], t[:, t])  # t[t[a,b],c] == t[a,t[b,c]]
    # distributivity on random triples
    rng = random.Random(q)
    for _ in range(1000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    # inverses
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_frobenius_and_order(q):
    f = field_new(*factor_prime_power(q))
    for a in range(q):
        for b in range(q):
            frob = field_pow(f, f.add(a, b), f.p)
            assert frob == f.add(field_pow(f, a, f.p), field_pow(f, b, f.p))
    for a in range(1, q):
        assert field_pow(f, a, q - 1) == 1


def test_multiplicative_group_cyclic_small():
    for q in (4, 8, 9, 16, 25, 27):
        f = field_new(*factor_prime_power(q))
        orders = set()
        for a in range(1, q):
            o = 1
            x = a
            while x != 1:
                x = f.mul(x, a)
                o += 1
            orders.add(o)
        assert q - 1 in orders  # a generator exists
        assert all((q - 1) % o == 0 for o in orders)


def test_factor_prime_powers_match_scalar():
    qs = list(range(-2, 300001))
    p, m = factor_prime_powers(qs)
    assert list(zip(p.tolist(), m.tolist())) == [factor_prime_power(q) or (0, 0) for q in qs]


@pytest.mark.parametrize("q, want", [
    (2 ** 32 + 15, (2 ** 32 + 15, 1)),  # prime
    (65521 ** 2, (65521, 2)),
    (3 ** 20, (3, 20)),
    (99991 * 99989, (0, 0)),            # two primes near 10^5
    (9999999967, (9999999967, 1)),      # the largest prime below 10^10
])
def test_factor_prime_powers_large_q(q, want):
    p, m = factor_prime_powers([q, 7, q])
    assert (p.tolist(), m.tolist()) == ([want[0], 7, want[0]], [want[1], 1, want[1]])
    assert factor_prime_power(q) == (want if want[1] else None)


def test_primes_up_to():
    assert primes_up_to(0).tolist() == primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(10000).tolist() == [n for n in range(10001) if is_prime(n)]


def test_factor_prime_power():
    assert factor_prime_power(139129) == (373, 2)
    assert factor_prime_power(128) == (2, 7)
    assert factor_prime_power(100) is None
    assert factor_prime_power(97) == (97, 1)


def numpy_field_oracle(p, m):
    """add, mul, neg and inv tables of GF(p^m) from digit vectors alone:
    digit-wise sums, and schoolbook products reduced modulo
    min_irreducible(p, m); inv[0] = 0."""
    q = p ** m
    weights = p ** np.arange(m)
    d = np.arange(q)[:, None] // weights % p  # q x m digits, constant term first
    add = (d[:, None, :] + d[None, :, :]) % p @ weights
    prod = np.zeros((q, q, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            prod[:, :, i + j] += d[:, None, i] * d[None, :, j]
    if m > 1:
        mod = min_irreducible(p, m)
        for k in range(2 * m - 2, m - 1, -1):  # cancel x^k with x^(k-m) * mod
            lead = prod[:, :, k] % p
            for i, c in enumerate(mod):
                prod[:, :, k - m + i] -= lead * c
    mul = prod[:, :, :m] % p @ weights
    neg = (-d % p) @ weights
    inv = (mul == 1).argmax(axis=1)
    return add, mul, neg, inv


@pytest.mark.parametrize("q", [4, 8, 9, 27, 31, 256, 257, 1031])
def test_field_tables_in_any_dtype_by_row_blocks(q, monkeypatch):
    """`field_tables` in the smallest unsigned dtype holding q-1, filled
    three rows per step, equals the numpy oracle."""
    monkeypatch.setattr(gf, "TABLE_BLOCK", 3 * q + 1)
    dtype = np.min_scalar_type(q - 1)
    tables = field_tables(field_for_order(q), dtype)
    for got, want in zip(tables, numpy_field_oracle(*factor_prime_power(q))):
        assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_64 if q >= 4] + [121, 125, 128, 243, 256])
def test_field_matches_numpy_oracle(q):
    p, m = factor_prime_power(q)
    f = FieldCtx(p, m)
    add, mul, neg, inv = numpy_field_oracle(p, m)
    for got, want in zip(field_tables(f), (add, mul, neg, inv)):
        assert np.array_equal(got, want)
    elems = range(q)
    assert np.array_equal([[f.add(a, b) for b in elems] for a in elems], add)
    assert np.array_equal([[f.mul(a, b) for b in elems] for a in elems], mul)
    assert np.array_equal([[f.sub(a, b) for b in elems] for a in elems], add[:, neg])
    assert np.array_equal([[f.div(a, b) for b in elems[1:]] for a in elems], mul[:, inv[1:]])
    assert [f.neg(a) for a in elems] == neg.tolist()
    assert [f.inv(a) for a in elems[1:]] == inv[1:].tolist()
    # pow against repeated multiplication, negative exponents through inv
    for e in (0, 1, 2, 3, q - 2, q - 1, q, -1, -2):
        want = np.ones(q, dtype=np.int64)
        base = np.arange(q) if e >= 0 else inv
        for _ in range(abs(e)):
            want = mul[want, base]
        got = [field_pow(f, a, e) for a in (elems if e >= 0 else elems[1:])]
        assert got == (want if e >= 0 else want[1:]).tolist(), e
