"""PG(2,q), the fixed conic {(1,t,t^2)} u {(0,0,1)}, and bisecant incidence.

Conic points are indexed by a parameter t in F_q u {inf}; the point at
infinity is encoded as the code q (one past the field range) so arrays of
size q+1 stay dense.  Plane points are canonical triples (0,0,1), (0,1,z)
and (1,y,z).  The off-conic point set M_q (nucleus excluded for even q) is
indexed in lexicographic order, which keeps bitset layouts reproducible
across runs.

The bisecant of {t1, t2} is the line [t1*t2, -(t1+t2), 1], and the
bisecant of {t, inf} is x1 = t*x0.  So an off-conic point P = (x0,x1,x2)
lies on the bisecant {t, s} exactly when s = sigma_P(t), where

    sigma_P(t) = (x1*t - x2) / (x0*t - x1),   sigma_P(inf) = x1/x0,

with a zero denominator giving inf.  sigma_P is the Moebius involution with
matrix [[x1, -x2], [x0, -x1]]; its fixed points are the t whose tangent
passes through P (two, none or one for external, internal and even-q
points).  The model stores sigma_P(t) for every t and every M-point as the
(q+1) x |M_q| partner table, with the tangent sentinel q+1 at the fixed
points; a bisecant is one equality test on a row of it.  The tangent at t
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


def line_through(ctx: FieldCtx, P, Q) -> tuple[int, int, int]:
    """Canonical dual coordinates of the unique line through distinct P, Q."""
    a = ctx.sub(ctx.mul(P[1], Q[2]), ctx.mul(P[2], Q[1]))
    b = ctx.sub(ctx.mul(P[2], Q[0]), ctx.mul(P[0], Q[2]))
    c = ctx.sub(ctx.mul(P[0], Q[1]), ctx.mul(P[1], Q[0]))
    return canon_point(ctx, (a, b, c))


def on_line(ctx: FieldCtx, P, line) -> bool:
    s = 0
    for x, a in zip(P, line):
        s = ctx.add(s, ctx.mul(x, a))
    return s == 0


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
        self.conic_point = {}
        for t in range(q):
            self.conic_point[t] = (1, t, ctx.mul(t, t))
        self.conic_point[q] = (0, 0, 1)
        self._conic_set = set(self.conic_point.values())

        two = ctx.add(1, 1)
        self.tangent = {t: canon_point(ctx, (ctx.mul(t, t), ctx.neg(ctx.mul(two, t)), 1))
                        for t in range(q)}
        self.tangent[q] = (1, 0, 0)

        self.nucleus = None
        if q % 2 == 0:
            # tangent at t is [t^2, 0, 1] (and [1, 0, 0] at inf)
            P = (0, 1, 0)
            assert all(on_line(ctx, P, l) for l in self.tangent.values())
            self.nucleus = P

        excluded = set(self._conic_set)
        if self.nucleus is not None:
            excluded.add(self.nucleus)
        self.m_points = [P for P in self._all_points() if P not in excluded]
        self.m_index = {P: i for i, P in enumerate(self.m_points)}
        self.m_size = len(self.m_points)
        self.full_mask = (1 << self.m_size) - 1

        add, mul = field_tables(ctx)
        neg = add.argmin(axis=0)     # add[neg[b], b] == 0
        inv = (mul == 1).argmax(axis=1)  # mul[a, inv[a]] == 1 for a != 0
        x0, x1, x2 = np.array(self.m_points, dtype=np.int64).T
        tangent_code = q + 1
        dtype = np.int16 if q + 2 <= np.iinfo(np.int16).max else np.int32
        self.partner = np.empty((q + 1, self.m_size), dtype=dtype)
        neg_x1, neg_x2 = neg[x1], neg[x2]
        for t in range(q):
            mul_t = mul[t]
            den = add[mul_t.take(x0), neg_x1]
            num = add[mul_t.take(x1), neg_x2]
            row = np.where(den == 0, self.inf, mul[num, inv[den]])
            row[row == t] = tangent_code
            self.partner[t] = row
        self.partner[self.inf] = np.where(x0 == 1, x1, tangent_code)
        self.partner.flags.writeable = False

    # --- construction helpers --------------------------------------------

    def _all_points(self):
        """Every point of PG(2,q), in lexicographic order."""
        ctx = self.ctx
        pts = [(0, 0, 1)]
        pts += [(0, 1, z) for z in range(ctx.q)]
        pts += [(1, y, z) for y in range(ctx.q) for z in range(ctx.q)]
        return pts

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

    def bisecant_mpoints(self, t1, t2):
        """Sorted M_q indices on the line through conic points t1, t2."""
        if t1 == t2:
            raise ValueError("bisecant needs two distinct parameters")
        return np.flatnonzero(self.partner[t1] == t2).tolist()

    def pair_mask(self, t1, t2) -> int:
        """Bitmask over M_q of the bisecant through conic points t1, t2."""
        return pack_mask(self.partner[t1] == t2)

    def tangent_count(self, P) -> int:
        ctx = self.ctx
        return sum(on_line(ctx, P, l) for l in self.tangent.values())

    def classify_point(self, P) -> str:
        if P in self._conic_set:
            return "on-conic"
        if self.nucleus is not None and P == self.nucleus:
            return "nucleus"
        if self.q % 2 == 0:
            return "m-even"
        n = self.tangent_count(P)
        if n == 2:
            return "external"
        if n == 0:
            return "internal"
        raise AssertionError(f"odd-q point {P} on {n} tangents")


@lru_cache(maxsize=None)
def build_conic_model(q: int) -> ConicModel:
    try:
        ctx = field_for_order(q)
    except FieldError as e:
        raise ValueError(str(e)) from e
    return ConicModel(ctx)
