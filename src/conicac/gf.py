"""Exact arithmetic in GF(p^m).

Elements are dense integer codes in [0, q): the base-p digits of a code are
the coefficients of the representing polynomial, least-significant digit =
constant term.  Prime fields work directly mod p; extension fields go through
exp/log tables built from a multiplicative generator, so every operation is a
couple of array lookups.  `field_tables` gives whole add/mul tables for
vectorized code; `is_prime` is the shared deterministic primality test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class FieldError(ValueError):
    pass


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


def _code_from_poly(coeffs: list[int], p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_divmod(a: list[int], b: list[int], p: int):
    """Quotient and remainder of a by b over F_p; b must be nonzero."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    lb_inv = pow(lb, p - 2, p) if p > 2 else lb
    quot = [0] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        factor = (a[-1] * lb_inv) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
    while a and a[-1] == 0:
        a.pop()
    return quot, a


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    return _poly_divmod(a, mod, p)[1]


def _irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p ** d):
            g = _poly_from_code(low, p)
            g += [0] * (d - len(g)) + [1]
            if not _poly_mod(coeffs, g, p):
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


class FieldCtx:
    """Immutable GF(p^m) arithmetic context; safe to share across workers."""

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise FieldError(f"p={p} is not prime")
        if m < 1:
            raise FieldError(f"m={m} must be >= 1")
        q = p ** m
        if q >= 1 << 63:
            raise FieldError(f"q={q} exceeds the 64-bit range")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = None
            self._log = self._exp = None
        else:
            self.modulus = min_irreducible(p, m)
            self._build_exp_log()

    def _mul_slow(self, a: int, b: int) -> int:
        prod = _poly_mul(_poly_from_code(a, self.p), _poly_from_code(b, self.p), self.p)
        return _code_from_poly(_poly_mod(prod, self.modulus, self.p), self.p)

    def _build_exp_log(self):
        q = self.q
        for g in range(2, q):
            exp = [0] * (q - 1)
            x, ok = 1, True
            for i in range(q - 1):
                exp[i] = x
                x = self._mul_slow(x, g)
                if x == 1 and i < q - 2:
                    ok = False
                    break
            if ok and x == 1:
                log = [0] * q
                for i, e in enumerate(exp):
                    log[e] = i
                self._exp = exp
                self._log = log
                return
        raise FieldError(f"no multiplicative generator found for q={q}")

    # --- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.m == 1:
            return (a * b) % self.p
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        if self.m == 1:
            return pow(a, e, self.p)
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m})"


def field_tables(ctx: FieldCtx):
    """Addition and multiplication tables of the field as q x q int64 arrays."""
    q = ctx.q
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = ctx.add(a, b)
            mul[a, b] = ctx.mul(a, b)
    return add, mul


@lru_cache(maxsize=None)
def field_new(p: int, m: int) -> FieldCtx:
    return FieldCtx(p, m)


def factor_prime_power(q: int):
    """Return (p, m) with q = p^m, or None when q is not a prime power."""
    if q < 2:
        return None
    d = 2
    n = q
    while d * d <= n:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            return (d, m) if n == 1 else None
        d += 1
    return (q, 1)


def field_for_order(q: int) -> FieldCtx:
    pm = factor_prime_power(q)
    if pm is None:
        raise FieldError(f"q={q} is not a prime power")
    return field_new(*pm)
