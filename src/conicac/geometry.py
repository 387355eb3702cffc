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
tangent at t is read off (x - t)^2: the line [t^2, -2t, 1], and [1, 0, 0]
at inf.

`ConicModel.sigma` evaluates sigma_P(t) in closed form from O(q^2)
tables.  For P = (1,y,z) put D = y^2 - z, nonzero off the conic; then
sigma_P(t) = y + D/(t - y), which is inf at t = y and y at t = inf.  For
P = (0,1,z), sigma_P(t) = z - t: the same form with base z, D = 1 and
D/(t - c) read as -t.  With n = q - 1 and the power of two W >= 4n, each
M-point has one integer key in `ConicModel.key`,

    key = row*W + n + log D,   row = y for (1,y,z) and q + z for (0,1,z),

and sigma_P(t) = ADDEXP[key - LSUB[t, key >> log2 W]] in the flattened
2q x W table ADDEXP.  LSUB[t, row] is log(t - y) on the rows y and
log(-1/t) on the rows q + z, in [0, n), so that j = n + log D - LSUB lies
in [0, 2n) and entry j of ADDEXP row y or q + z holds base + alpha^(j - n)
= base + D/(t - c).  Two sentinels of LSUB move j past 2n: -n where
D/(t - c) is 0 (t = inf on the rows y, t = 0 on the rows q + z) into the
band [2n, 3n) that holds the base, and -2n where sigma_P(t) is inf (t = y,
and t = inf on the rows q + z) into the band [3n, 4n) that holds inf.
A fixed point needs no sentinel: sigma_P(t) = t there, and the search only
counts sigma values that are chosen parameters, which t is once added.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import (FieldCtx, FieldError, check_field_size, field_for_order, field_tables,
                 log_tables)


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

        # sigma_P(t) in closed form: the keys and tables of the module docstring
        n = q - 1
        exp, log, _ = log_tables(ctx)
        self._shift = shift = (4 * n - 1).bit_length()  # W = 2^shift >= 4n
        rows = np.arange(q, dtype=np.intp)
        self.key = np.empty(self.m_size, dtype=np.intp)
        self.key[:q - self._even] = ((q + rows[self._even:]) << shift) + n  # (0, 1, z)
        affine = self.key[q - self._even:].reshape(q, n)  # (1, y, z), z != y^2 ascending
        d = add.take(self._square, axis=0).take(neg, axis=1)  # y^2 - z at [y, z]
        affine[:] = log.take(d[d != 0]).reshape(q, n)
        affine += (rows[:, None] << shift) + n
        del d  # a q x q temporary: gone before the tables below are built

        self._lsub = np.empty((q + 1, 2 * q), dtype=np.min_scalar_type(-2 * n))
        self._lsub[:q, :q] = log.take(add.take(neg, axis=1))  # log(t - y)
        self._lsub[rows, rows] = -2 * n  # t = y: inf
        self._lsub[q, :q] = -n  # t = inf: y
        self._lsub[:q, q:] = ((log[neg[1]] - log) % n)[:, None]  # log(-1/t)
        self._lsub[0, q:] = -n  # t = 0: z
        self._lsub[q, q:] = -2 * n  # t = inf: inf

        addexp = np.empty((2 * q, 1 << shift), dtype=np.min_scalar_type(q))
        addexp[:q, :n] = add.take(exp[:n], axis=1)  # base + alpha^j
        addexp[:q, n:2 * n] = addexp[:q, :n]  # alpha^n = 1
        addexp[:q, 2 * n:3 * n] = rows[:, None]
        addexp[:q, 3 * n:] = q
        addexp[q:] = addexp[:q]
        self._addexp = addexp.ravel()
        for table in (self.key, self._lsub, self._addexp):
            table.flags.writeable = False

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

    def sigma(self, t, key) -> np.ndarray:
        """sigma_P(t) for the M-points P of the key array `key`, t where t is a
        fixed point of sigma_P.  t is a parameter code, or a 1-D array of
        codes that gives one row per code."""
        lsub = self._lsub.take(t, axis=0).take(key >> self._shift, axis=-1)
        return self._addexp.take(key - lsub)

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
        """Bitmask over M_q of the bisecant through conic points t1, t2; 0
        when t1 = t2."""
        flags = np.zeros(self.m_size, dtype=bool)
        if t1 != t2:
            flags[self.bisecants(t1, [t2])] = True
        return pack_mask(flags)


# The largest q whose model `build_conic_model` builds.  `ac search 4096
# --restarts 1` took 45 s at 856 MB peak RSS on a 2-vCPU VM (4049: 47 s,
# 841 MB).  The field tables and ADDEXP grow as q^2: q = 2^15 would ask for
# several GB per table.
MODEL_MAX_Q = 4096


# Kept although the model is O(q^2): worker processes look the model up by
# q instead of unpickling it, and the benchmark calls `cache_clear` before
# every operation.
@lru_cache(maxsize=1)
def build_conic_model(q: int) -> ConicModel:
    try:
        check_field_size(q)  # a q past the field tables is refused as by every command
        if q > MODEL_MAX_Q:
            raise ValueError(f"q={q} exceeds the conic model limit {MODEL_MAX_Q}")
        ctx = field_for_order(q)
    except FieldError as e:
        raise ValueError(str(e)) from e
    return ConicModel(ctx)
