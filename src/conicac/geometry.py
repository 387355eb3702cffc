"""PG(2,q), the fixed conic {(1,t,t^2)} u {(0,0,1)}, and bisecant incidence.

Conic points are indexed by a parameter t in F_q u {inf}; the point at
infinity is encoded as the code q (one past the field range) so arrays of
size q+1 stay dense.  Plane points have the codes 0 for (0,0,1), 1+z for
(0,1,z) and 1+q+q*y+z for (1,y,z), which order them lexicographically.  The
off-conic point set M_q (nucleus excluded for even q) is indexed in that
order, which keeps bitset layouts reproducible across runs.

The bisecant of {t1, t2} is the line [t1*t2, -(t1+t2), 1]: it holds
(0,1,t1+t2) and (1,y,(t1+t2)*y - t1*t2) for every y, of which y = t1, t2 are
the two conic points.  The bisecant of {t, inf} is x1 = t*x0: the points
(1,t,z), of which z = t^2 is on the conic, and (0,0,1) = inf.  The model
builds one M_q bitmask per pair from these closed forms.  The tangent at t
is likewise read off (x - t)^2: the line [t^2, -2t, 1], and [1, 0, 0] at inf.
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
        points = self._all_points()
        keep = [code for code, P in enumerate(points) if P not in excluded]
        self.m_points = [points[code] for code in keep]
        self.m_index = {P: i for i, P in enumerate(self.m_points)}
        self.m_size = len(self.m_points)
        self.full_mask = (1 << self.m_size) - 1

        # plane code -> M index; excluded points go to the spare index m_size
        m_of_code = np.full(len(points), self.m_size, dtype=np.int64)
        m_of_code[keep] = np.arange(self.m_size)
        add, mul = field_tables(ctx)
        neg = add.argmin(axis=0)  # add[neg[b], b] == 0
        ys = np.arange(q)
        self._pair_mask = {}
        for t1 in range(q):
            # one row per t2 > t1 and a last row for t2 = inf, each holding
            # the plane codes of the q+1 points on the bisecant
            t2s = np.arange(t1 + 1, q)
            sums, prods = add[t1, t2s], mul[t1, t2s]
            codes = np.empty((len(t2s) + 1, q + 1), dtype=np.int64)
            codes[:-1, 0] = 1 + sums
            codes[:-1, 1:] = 1 + q + q * ys + add[mul[sums[:, None], ys], neg[prods][:, None]]
            codes[-1, 0] = 0
            codes[-1, 1:] = 1 + q + q * t1 + ys
            idx = m_of_code[codes]
            assert ((idx < self.m_size).sum(axis=1) == q - 1).all()
            hit = np.zeros((len(codes), self.m_size + 1), dtype=bool)
            np.put_along_axis(hit, idx, True, axis=1)
            rows = np.packbits(hit[:, :-1], axis=1, bitorder="little")
            for t2, row in zip([*t2s.tolist(), self.inf], rows):
                self._pair_mask[(t1, t2)] = int.from_bytes(row.tobytes(), "little")

    # --- construction helpers --------------------------------------------

    def _all_points(self):
        """Every point of PG(2,q), in plane-code order."""
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
        mask = self.pair_mask(t1, t2)
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def pair_mask(self, t1, t2) -> int:
        key = (t1, t2) if t1 < t2 else (t2, t1)
        return self._pair_mask[key]

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
