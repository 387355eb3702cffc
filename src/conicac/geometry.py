"""PG(2,q), the fixed conic {(1,t,t^2)} u {(0,0,1)}, and bisecant incidence.

Conic points are indexed by a parameter t in F_q u {inf}; the point at
infinity is encoded as the code q (one past the field range) so arrays of
size q+1 stay dense.  Plane points are canonical triples (0,0,1), (0,1,z)
and (1,y,z); `pg_points` lists them in lexicographic order.  The off-conic
point set M_q is the points of that list with x1^2 != x0*x2 except the
nucleus (0,1,0) of even q: (0,1,z), then (1,y,z) with z != y^2, q^2 - [q even]
in all.  The model keeps no coordinates for them: `ConicModel.m_index`
indexes them in closed form, (0,1,z) as z - [q even] and (1,y,z) as
q - [q even] + y*(q-1) + z - [z > y^2].  The order keeps bitset layouts
reproducible.

The bisecant of {t1, t2} is the line [t1*t2, -(t1+t2), 1], and the
bisecant of {t, inf} is x1 = t*x0; `ConicModel.bisecants` lists their
M-points from these equations.  So an off-conic point P = (x0,x1,x2)
lies on the bisecant {t, s} exactly when s = sigma_P(t), where

    sigma_P(t) = (x1*t - x2) / (x0*t - x1),   sigma_P(inf) = x1/x0,

with a zero denominator giving inf.  sigma_P is the Moebius involution with
matrix [[x1, -x2], [x0, -x1]]; its fixed points are the t whose tangent
passes through P.  They are the roots of x0*t^2 - 2*x1*t + x2 (plus inf
when x0 = 0): two, none or one, as x1^2 - x0*x2 is a nonzero square, a
non-square or q is even, which names P external, internal or m-even.  The
model stores sigma_P(t) for every t and every M-point in a (q+1) x |M_q|
table derived from `bisecants`: row t holds s on the M-points of each
bisecant {t, s}, and the tangent sentinel q+1 on the rest, the M-points of
the tangent at t.  `ConicModel.sigma` is its one reader.  The tangent at t
is read off (x - t)^2: the line [t^2, -2t, 1], and [1, 0, 0] at inf.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import FieldCtx, FieldError, field_for_order, field_tables


def canon_point(ctx: FieldCtx, triple) -> tuple[int, int, int]:
    """Scale so the leftmost nonzero coordinate is 1; idempotent."""
    x0, x1, x2 = triple
    if x0:
        s = ctx.inv(x0)
        return (1, ctx.mul(x1, s), ctx.mul(x2, s))
    if x1:
        s = ctx.inv(x1)
        return (0, 1, ctx.mul(x2, s))
    if x2:
        return (0, 0, 1)
    raise ValueError("zero triple has no projective point")


def pg_points(ctx: FieldCtx, n_dim: int) -> np.ndarray:
    """All (q^(N+1)-1)/(q-1) canonical points of PG(N,q) as code rows in
    lexicographic order, (0,...,0,1) first, in the smallest unsigned dtype
    that holds q-1 (uint8 for q <= 256).  The array is in Fortran order, so
    each coordinate column is contiguous; it is filled block by block of
    leading coordinate, each digit column a repeat/tile of 0..q-1."""
    q = ctx.q
    dtype = np.min_scalar_type(q - 1)
    digits = np.arange(q, dtype=dtype)
    pts = np.zeros(((q ** (n_dim + 1) - 1) // (q - 1), n_dim + 1), dtype=dtype, order="F")
    row = 0
    for lead in range(n_dim, -1, -1):
        free = n_dim - lead
        block = pts[row:row + q ** free]
        block[:, lead] = 1
        for j in range(free):
            block[:, lead + 1 + j] = np.tile(np.repeat(digits, q ** (free - 1 - j)), q ** j)
        row += len(block)
    return pts


def pack_mask(flags) -> int:
    """Python-int bitset with bit i set when flags[i] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class ConicModel:
    """Immutable incidence model shared read-only by the search layers."""

    def __init__(self, ctx: FieldCtx):
        q = ctx.q
        if q < 4:
            raise ValueError(f"q={q} < 4: conic model undefined")
        self.ctx = ctx
        self.q = q
        self.inf = q  # parameter code for the point at infinity

        self.params = list(range(q)) + [q]

        two = ctx.add(1, 1)
        self.tangent = {t: canon_point(ctx, (ctx.mul(t, t), ctx.neg(ctx.mul(two, t)), 1))
                        for t in range(q)}
        self.tangent[q] = (1, 0, 0)
        # for even q the tangents [t^2, 0, 1] and [1, 0, 0] all pass through (0,1,0)
        self.nucleus = (0, 1, 0) if q % 2 == 0 else None

        add, mul, neg, _ = field_tables(ctx)
        self._add, self._mul, self._neg = add, mul, neg
        self._even = 1 - q % 2
        self.m_size = q * q - self._even
        self.full_mask = (1 << self.m_size) - 1

        # closed-form M-index and bisecants (`m_index`, `bisecants`)
        self._square = mul.diagonal().copy()
        self._run = np.arange(q - 1, dtype=np.int32)
        # M-index of the first M-point (1, y, z) of each row y; int32 like the
        # field tables, which holds every M-index and z*q while q^2 + q < 2^31
        self._row_start = (q - self._even + np.arange(q) * (q - 1)).astype(np.int32)

        # sigma_P(t) = s on the bisecant {t, s}; the points left in row t lie
        # on the tangent at t and keep the tangent code q+1
        dtype = np.int16 if q + 2 <= np.iinfo(np.int16).max else np.int32
        self._partner = np.full((q + 1, self.m_size), q + 1, dtype=dtype)
        params = np.arange(q + 1)
        for t in self.params:
            others = np.delete(params, t)
            self._partner[t, self.bisecants(t, others)] = np.repeat(others, q - 1)
        self._partner.flags.writeable = False

    # --- queries ----------------------------------------------------------

    def param_name(self, t) -> str:
        return "inf" if t == self.inf else str(t)

    def parse_param(self, s: str) -> int:
        if s == "inf":
            return self.inf
        t = int(s)
        if not 0 <= t < self.q:
            raise ValueError(f"parameter {s} out of range for q={self.q}")
        return t

    def sigma(self, t, idx) -> np.ndarray:
        """sigma_P(t) for the M-points P of the index array idx, q+1 where P
        lies on the tangent at t.  t is a parameter code or an integer column
        that broadcasts against idx, one row per code."""
        return self._partner.take(np.multiply(t, self.m_size) + idx)

    def m_index(self, x0, x1, x2) -> np.ndarray:
        """M-index of the canonical M-points with coordinate arrays x0, x1, x2,
        in closed form: (0,1,z) is z - [q even] and (1,y,z) is
        q - [q even] + y*(q-1) + z - [z > y^2]."""
        return np.where(x0 == 1, self._affine_index(x1, x2), x2 - self._even)

    def _affine_index(self, y, z):
        return self._row_start.take(y) + z - (z > self._square.take(y))

    def bisecants(self, t: int, s) -> np.ndarray:
        """M-indices of the bisecants {t, s} for the parameters s != t of the
        array s, in closed form: q-1 per s, in the order of s.  They are
        (1, y, (t+s)*y - t*s) for y not in {t, s} plus (0, 1, t+s), and, with
        inf, (1, t, z) for z != t^2."""
        q, run = self.q, self._run
        s = np.asarray(s, dtype=np.intp)
        if t == self.inf:
            return (self._row_start.take(s)[:, None] + run).ravel()
        is_inf = s == self.inf
        s = np.where(is_inf, int(t == 0), s)  # a finite stand-in; its row is replaced below
        y = run + (run >= t)  # every y but t
        a, b = self._add[t].take(s), self._neg.take(self._mul[t].take(s))
        z = self._mul.take(a, axis=0).take(y, axis=1)
        z = self._add.ravel().take(z * q + b[:, None])
        rows = self._affine_index(y, z)
        # the column y = s holds the conic point (1, s, s^2): put (0, 1, t+s) there
        rows[np.arange(len(s)), s - (s > t)] = a - self._even
        rows[is_inf] = self._row_start[t] + run
        return rows.ravel()

    def pair_mask(self, t1, t2) -> int:
        """Bitmask over M_q of the bisecant through conic points t1, t2."""
        return pack_mask(self.sigma(t1, np.arange(self.m_size)) == t2)

    def classify_point(self, P) -> str:
        """Kind of the point P (any nonzero triple): on-conic, nucleus,
        m-even, or, for odd q, external or internal (see the module docstring)."""
        ctx = self.ctx
        x0, x1, x2 = P
        disc = ctx.sub(ctx.mul(x1, x1), ctx.mul(x0, x2))
        if disc == 0:
            return "on-conic"
        if self.q % 2 == 0:
            return "nucleus" if x0 == x2 == 0 else "m-even"
        return "external" if ctx.pow(disc, (self.q - 1) // 2) == 1 else "internal"


@lru_cache(maxsize=1)  # one sigma_P(t) table alive at a time: it is O(q^3)
def build_conic_model(q: int) -> ConicModel:
    try:
        ctx = field_for_order(q)
    except FieldError as e:
        raise ValueError(str(e)) from e
    return ConicModel(ctx)
