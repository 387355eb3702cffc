"""Reference readers shared by the tests, imported as `from oracles import ...`.

They answer questions the library itself never asks: the coordinates of
the M-points, the M-points of one bisecant, the coverage of a subset as a
bitset, the covered set and the gain of every candidate of a
`CoverageState`, a closed-form sigma_P(t) that needs no table, and the arc
test by (N+1)-minors.
"""

from itertools import combinations

import numpy as np

from conicac.geometry import pack_mask, pg_points
from conicac.gf import field_tables
from conicac.search import _covered_flags


def m_coords(model):
    """The M-points as a 3 x |M_q| int64 coordinate array in M-index order:
    the points of `pg_points` off the conic, less the nucleus of even q."""
    mul = field_tables(model.ctx)[1]
    x0, x1, x2 = pg_points(model.ctx, 2).T.astype(np.int64)
    off = mul[x1, x1] != mul[x0, x2]
    if model.nucleus is not None:
        off &= (x0 != 0) | (x2 != 0)
    return np.stack([x0[off], x1[off], x2[off]])


def bisecant_mpoints(model, t1, t2):
    """Sorted M_q indices on the line through conic points t1, t2."""
    if t1 == t2:
        raise ValueError("bisecant needs two distinct parameters")
    return np.flatnonzero(model.sigma(t1, np.arange(model.m_size)) == t2).tolist()


def coverage_mask(model, subset) -> int:
    """Bitmask over M_q of the points on some bisecant of the subset."""
    return pack_mask(_covered_flags(model, subset))


def covered(state) -> int:
    """Bitmask over M_q of the points a `CoverageState` has covered, read
    from its covered flags, or from `uncov` once it holds that instead."""
    if state.uncov is None:
        listed = np.sort(state._cov[:state._ncov])
        assert np.array_equal(listed, np.flatnonzero(state.covered)), "index list != flags"
        return pack_mask(state.covered)
    flags = np.ones(state.model.m_size, dtype=bool)
    flags[state.uncov] = False
    return pack_mask(flags)


def gains(state) -> dict[int, int]:
    """Number of newly covered points for each unchosen parameter."""
    return {t: int(state.gain[t]) for t in state.unchosen()}


def closed_form_sigma(model):
    """A drop-in for `model.sigma` that reads no table: sigma_P(t) =
    (x1*t - x2) / (x0*t - x1) from `field_tables` and `m_coords`.  A zero
    denominator gives inf (q), a fixed point the tangent code q+1, and
    t = inf gives x1/x0 where x0 = 1, otherwise q+1."""
    q = model.q
    add, mul, neg, inv = field_tables(model.ctx)
    x0, x1, x2 = m_coords(model)

    def sigma(t, idx):
        t = np.asarray(t)
        a, b, c = x0[idx], x1[idx], x2[idx]
        finite = np.where(t == q, 0, t)
        den = add[mul[finite, a], neg[b]]
        num = add[mul[finite, b], neg[c]]
        value = np.where(den == 0, q, mul[num, inv[den]])
        value = np.where(value == t, q + 1, value)
        return np.where(t == q, np.where(a == 1, b, q + 1), value)

    return sigma


def _det(ctx, rows) -> int:
    """Determinant over GF(q) by Gaussian elimination with pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = ctx.neg(det)
        det = ctx.mul(det, a[col][col])
        inv = ctx.inv(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = ctx.mul(a[r][col], inv)
                for c in range(col, n):
                    a[r][c] = ctx.sub(a[r][c], ctx.mul(f, a[col][c]))
    return det


def is_arc(points, n_dim: int, ctx) -> bool:
    """True iff every (N+1)-subset of the points is linearly independent."""
    for pt in points:
        if len(pt) != n_dim + 1:
            raise ValueError("point dimension mismatch")
    for sub in combinations(points, n_dim + 1):
        if _det(ctx, sub) == 0:
            return False
    return True
