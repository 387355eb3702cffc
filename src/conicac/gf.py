"""Exact arithmetic in GF(p^m).

Elements are dense integer codes in [0, q): the base-p digits of a code are
the coefficients of the representing polynomial, least-significant digit =
constant term, reduced modulo `modulus`, the smallest monic irreducible of
degree m (None for a prime field).  Every field, prime or not, is held as
lookup tables over the powers of one multiplicative generator alpha:

    exp[i] = alpha^i,   log[alpha^i] = i,   alpha^zech[n] = 1 + alpha^n,

where zech is the Zech logarithm (Lidl & Niederreiter, *Finite Fields*,
ch. 9).  The log of 0 is the sentinel 2(q-1), and exp reads 0 from index
2(q-1) on, so a product is exp[log a + log b] without a test for zero, and
a sum of nonzero a, b is exp[log a + zech[(log b - log a) mod (q-1)]], with
zech[n] the sentinel where 1 + alpha^n = 0.  The scalar `FieldCtx` methods
and the whole-field arrays of `field_tables` are both these lookups;
`is_prime` is the shared deterministic primality test.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np


class FieldError(ValueError):
    pass


FIELD_MAX_Q = 1 << 20  # the tables hold O(q) Python ints
TABLE_BLOCK = 1 << 16  # entries per step of the `field_tables` build
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, correct for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_from_code(code: int, p: int) -> list[int]:
    coeffs = []
    while code:
        coeffs.append(code % p)
        code //= p
    return coeffs


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial mod over F_p, as deg(mod) digits."""
    a, d = list(a), len(mod) - 1
    for top in range(len(a) - 1, d - 1, -1):
        f = a[top]
        if f:
            for i, c in enumerate(mod):
                a[top - d + i] = (a[top - d + i] - f * c) % p
    return a[:d]


def _irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d, 2 * p ** d):
            if not any(_poly_mod(coeffs, _poly_from_code(code, p), p)):
                return False
    return True


def min_irreducible(p: int, m: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Polynomials are ordered by the integer formed by their coefficient codes
    read most-significant first in base p, which for our digit convention is
    just the element code of the coefficient vector.
    """
    for k in range(p ** m, 2 * p ** m):
        coeffs = _poly_from_code(k, p)
        if _irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")


def _generator_powers(p: int, m: int, modulus) -> np.ndarray:
    """alpha^0, ..., alpha^(q-2) for the generator alpha of smallest code.

    Multiplication by g is F_p-linear on digit vectors: row i of its matrix
    is g*x^i, so one matrix product gives c*g for every code c, and the
    walk 1, g, g^2, ... visits all q-1 units exactly when g generates."""
    q = p ** m
    weights = p ** np.arange(m, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
    for g in range(1, q):
        rows = [digits[g].tolist()]
        for _ in range(m - 1):  # g*x^(i+1) = (g*x^i)*x, reduced by the monic modulus
            top = rows[-1][-1]
            rows.append([(a - top * c) % p for a, c in zip([0] + rows[-1][:-1], modulus)])
        step = ((digits @ np.array(rows, dtype=np.int64)) % p @ weights).tolist()
        powers, x = [1], step[1]
        while x != 1:
            powers.append(x)
            x = step[x]
        if len(powers) == q - 1:
            return np.array(powers, dtype=np.int64)
    raise FieldError(f"no multiplicative generator found for q={q}")


def check_field_size(q: int) -> None:
    if q > FIELD_MAX_Q:
        raise FieldError(f"q={q} exceeds the table-backed field limit {FIELD_MAX_Q}")


class FieldCtx:
    """Immutable GF(p^m) arithmetic context; safe to share across workers."""

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise FieldError(f"p={p} is not prime")
        if m < 1:
            raise FieldError(f"m={m} must be >= 1")
        q = p ** m
        check_field_size(q)
        self.p = p
        self.m = m
        self.q = q
        self.modulus = min_irreducible(p, m) if m > 1 else None
        n = self._n = q - 1
        powers = _generator_powers(p, m, self.modulus)
        log = np.full(q, 2 * n, dtype=np.int64)  # 2n: the log of 0
        log[powers] = np.arange(n)
        # 1 + c only changes the constant digit of c
        zech = log[powers - powers % p + (powers + 1) % p]
        powers = powers.tolist()
        self._exp = powers + powers + [0] * (2 * n + 1)
        self._log = log.tolist()
        self._zech = zech.tolist()

    # --- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if not a or not b:
            return a or b
        la = self._log[a]
        return self._exp[la + self._zech[(self._log[b] - la) % self._n]]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log[self.p - 1]]

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inverse of zero")
        return self._exp[self._n - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise FieldError("inverse of zero")
        return self._exp[self._log[a] + self._n - self._log[b]]

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m})"


def log_tables(ctx: FieldCtx):
    """The lookup tables of `ctx` as int32 arrays (q <= 2^20, logs below
    2^22): exp, with exp[i] = alpha^(i mod (q-1)) below 2(q-1) and 0 from
    there on; log, with log[0] the sentinel 2(q-1); and zech."""
    return tuple(np.array(t, dtype=np.int32) for t in (ctx._exp, ctx._log, ctx._zech))


def field_tables(ctx: FieldCtx, dtype=np.int32):
    """The field as arrays in `dtype`: q x q addition and multiplication
    tables, and the length-q negation and inverse tables (inv[0] = 0).
    Each entry is the scalar method's lookup, done for all elements at
    once.  The q x q tables are filled about TABLE_BLOCK entries at a time,
    so no q x q index array is made."""
    q, n = ctx.q, ctx._n
    exp, log, zech = log_tables(ctx)
    exp = exp.astype(dtype)
    add, mul = np.empty((q, q), dtype=dtype), np.empty((q, q), dtype=dtype)
    rows = max(1, TABLE_BLOCK // q)
    for lo in range(0, q, rows):
        la = log[lo:lo + rows, None]
        mul[lo:lo + rows] = exp[la + log]
        add[lo:lo + rows] = exp[la + zech.take(log - la, mode="wrap")]  # wrap: index mod n
    add[0] = add[:, 0] = np.arange(q)  # a + 0 = a; the Zech form needs a, b != 0
    neg = exp[log + log[ctx.p - 1]]
    inv = exp[n - log]
    inv[0] = 0
    return add, mul, neg, inv


@lru_cache(maxsize=None)
def field_new(p: int, m: int) -> FieldCtx:
    return FieldCtx(p, m)


def factor_prime_power(q: int):
    """Return (p, m) with q = p^m, or None when q is not a prime power."""
    if q < 2:
        return None
    for d in chain((2,), range(3, math.isqrt(q) + 1, 2)):  # smallest prime factor
        if q % d == 0:
            m = 0
            while q % d == 0:
                q //= d
                m += 1
            return (d, m) if q == 1 else None
    return (q, 1)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array (sieve of Eratosthenes)."""
    flags = np.ones(max(n + 1, 2), dtype=bool)
    flags[:2] = False
    for d in range(2, math.isqrt(n) + 1):
        if flags[d]:
            flags[d * d::d] = False
    return np.flatnonzero(flags)


def factor_prime_powers(qs) -> tuple[np.ndarray, np.ndarray]:
    """`factor_prime_power` for every q of qs at once: int64 arrays (p, m)
    with q = p^m, and (0, 0) where q is not a prime power.  Each prime d up
    to sqrt(max q), in increasing order, divides in one array step the q
    with no smaller prime factor; a q with none up to its square root is
    prime.  The q below d^2 leave that set every 32 primes: such a q is
    prime, so d divides it only when q = d, which the step records
    correctly.  The divisions run in the smallest unsigned dtype holding
    max q: on x86-64, uint32 division measured 1.7x faster than int64."""
    q = np.asarray(qs, dtype=np.int64)
    q_max = int(q.max(initial=0))
    p = np.where(q >= 2, q, 0)  # smallest prime factor; q itself until one is found
    todo = np.flatnonzero(q >= 4)
    t = q[todo].astype(np.min_scalar_type(q_max))
    for i, d in enumerate(primes_up_to(math.isqrt(q_max)).tolist()):
        if i % 32 == 0:
            keep = t >= d * d
            todo, t = todo[keep], t[keep]
            if not todo.size:
                break
        hit = t % d == 0
        if hit.any():
            p[todo[hit]] = d
            todo, t = todo[~hit], t[~hit]
    m = np.zeros_like(q)
    rest = q.copy()
    live = np.flatnonzero(p)
    while live.size:
        rest[live] //= p[live]
        m[live] += 1
        live = live[rest[live] % p[live] == 0]
    power = rest == 1
    return np.where(power, p, 0), np.where(power, m, 0)


def field_for_order(q: int) -> FieldCtx:
    check_field_size(q)  # before the trial division, which takes sqrt(q) steps
    pm = factor_prime_power(q)
    if pm is None:
        raise FieldError(f"q={q} is not a prime power")
    return field_new(*pm)
