"""Construction of AC-subsets: incremental coverage, greedy and randomized
greedy search, and exhaustive minimum search with minimality verification.

Coverage is tracked as a Python-int bitset over the M_q index space, so a
step is a handful of OR / popcount operations.  `CoverageState` is the one
incremental-coverage implementation: besides the covered set it keeps, for
every not-yet-chosen parameter, the union of its bisecants with the chosen
ones, so the gain of a candidate is a single AND + popcount.  The greedy
passes drive a `CoverageState`.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

from .geometry import ConicModel, build_conic_model

DEFAULT_EXHAUSTIVE_CEILING = 32
ENV_MAX_Q = "AC_MAX_Q_EXHAUSTIVE"


@dataclass
class SearchResult:
    q: int
    size: int
    witness: list[int]
    is_ac: bool
    is_minimal: bool | None = None
    seed: int | None = None
    restarts: int = 1
    step_log: list[tuple[int, int, int]] = field(default_factory=list)

    def witness_line(self, model: ConicModel) -> str:
        names = ",".join(model.param_name(t) for t in self.witness)
        return f"{self.q};{self.size};{names}"


class CoverageState:
    """Single-owner mutable coverage of M_q by the chosen conic parameters."""

    def __init__(self, model: ConicModel):
        self.model = model
        self.chosen: list[int] = []
        self.covered = 0
        # unchosen parameter -> union of its bisecants with the chosen ones;
        # keys stay in ascending parameter order
        self.gain_mask = dict.fromkeys(model.params, 0)

    @property
    def uncovered_count(self) -> int:
        return self.model.m_size - self.covered.bit_count()

    def gains(self) -> dict[int, int]:
        """Number of newly covered points for each unchosen parameter."""
        uncovered = ~self.covered
        return {t: (m & uncovered).bit_count() for t, m in self.gain_mask.items()}

    def add(self, t: int) -> int:
        """Append parameter t; return the number of newly covered points."""
        if t not in self.gain_mask:
            raise ValueError(f"parameter {t} already chosen or not on the conic")
        mask = self.gain_mask.pop(t)
        delta = (mask & ~self.covered).bit_count()
        self.covered |= mask
        self.chosen.append(t)
        for s in self.gain_mask:
            self.gain_mask[s] |= self.model.pair_mask(s, t)
        return delta


def coverage_mask(model: ConicModel, subset) -> int:
    mask = 0
    for t1, t2 in combinations(subset, 2):
        mask |= model.pair_mask(t1, t2)
    return mask


def is_ac_subset(model: ConicModel, subset) -> bool:
    """Proper subset of the conic covering every point of M_q."""
    subset = list(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("subset has duplicate parameters")
    if len(subset) >= model.q + 1:
        return False
    return coverage_mask(model, subset) == model.full_mask


def is_minimal_ac(model: ConicModel, subset) -> bool:
    subset = list(subset)
    if not is_ac_subset(model, subset):
        raise ValueError("input is not an AC-subset")
    for i in range(len(subset)):
        if is_ac_subset(model, subset[:i] + subset[i + 1:]):
            return False
    return True


def _greedy_run(model: ConicModel, start=(), rng: random.Random | None = None,
                random_step_prob: float = 0.0):
    """One greedy pass.  With rng=None ties break on the smallest parameter
    code; otherwise ties break uniformly at random and each step is fully
    random with probability random_step_prob."""
    state = CoverageState(model)
    step_log: list[tuple[int, int, int]] = []

    def commit(t):
        delta = state.add(t)
        step_log.append((len(state.chosen), delta, state.uncovered_count))

    for t in start:
        commit(t)

    while state.covered != model.full_mask:
        if rng is not None and random_step_prob > 0 and rng.random() < random_step_prob:
            commit(rng.choice(list(state.gain_mask)))
            continue
        gains = state.gains()
        best_delta = max(gains.values())
        best = [t for t, g in gains.items() if g == best_delta]
        commit(best[0] if rng is None else rng.choice(best))

    return state.chosen, step_log


def greedy_search(model: ConicModel, start=()) -> SearchResult:
    chosen, step_log = _greedy_run(model, start=start)
    return SearchResult(q=model.q, size=len(chosen), witness=chosen,
                        is_ac=is_ac_subset(model, chosen), step_log=step_log)


def _restart_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index) & 0x7FFFFFFFFFFFFFFF


def _run_restart_chunk(q, seed, indices, prob):
    model = build_conic_model(q)
    out = []
    for i in indices:
        rng = random.Random(_restart_seed(seed, i))
        chosen, log = _greedy_run(model, rng=rng, random_step_prob=prob)
        out.append((len(chosen), i, chosen, log))
    return out


def randomized_greedy(model: ConicModel, seed: int, restarts: int,
                      random_step_prob: float = 0.1, jobs: int = 1) -> SearchResult:
    """Best AC-subset over `restarts` independent randomized greedy passes.

    Deterministic given (seed, restarts, random_step_prob) regardless of
    job count: restart i always uses the stream seeded by (seed, i), and the
    winner is the smallest size with the lowest restart index."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    results = []
    if jobs == 1 or restarts == 1:
        results = _run_restart_chunk(model.q, seed, range(restarts), random_step_prob)
    else:
        chunks = [list(range(k, restarts, jobs)) for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_run_restart_chunk, model.q, seed, c, random_step_prob)
                    for c in chunks if c]
            for f in futs:
                results.extend(f.result())
    size, _, chosen, log = min(results, key=lambda r: (r[0], r[1]))
    return SearchResult(q=model.q, size=size, witness=chosen,
                        is_ac=is_ac_subset(model, chosen), seed=seed,
                        restarts=restarts, step_log=log)


# --- exhaustive search ----------------------------------------------------

def _mobius_matrix(ctx, x, y, z, inf):
    """2x2 matrix over F_q sending parameters (x, y, z) to (0, 1, inf)."""
    if x == inf:
        return (0, ctx.sub(y, z), 1, ctx.neg(z))
    if y == inf:
        return (1, ctx.neg(x), 1, ctx.neg(z))
    if z == inf:
        return (1, ctx.neg(x), 0, ctx.sub(y, x))
    yz = ctx.sub(y, z)
    yx = ctx.sub(y, x)
    return (yz, ctx.neg(ctx.mul(x, yz)), yx, ctx.neg(ctx.mul(z, yx)))


def _mobius_apply(ctx, mat, t, inf):
    a, b, c, d = mat
    if t == inf:
        num, den = a, c
    else:
        num = ctx.add(ctx.mul(a, t), b)
        den = ctx.add(ctx.mul(c, t), d)
    if den == 0:
        return inf
    return ctx.div(num, den)


def _canonical_base(model: ConicModel, base: tuple[int, ...]) -> tuple[int, ...]:
    """Minimal image of `base` under PGL(2,q), among images containing
    {0, 1, inf}: minimize sorted images over all ordered triples of base."""
    ctx, inf = model.ctx, model.inf
    best = None
    for x in base:
        for y in base:
            if y == x:
                continue
            for z in base:
                if z == x or z == y:
                    continue
                mat = _mobius_matrix(ctx, x, y, z, inf)
                img = tuple(sorted(_mobius_apply(ctx, mat, t, inf) for t in base))
                if best is None or img < best:
                    best = img
    return best


def _canonical_bases(model: ConicModel, base_size: int):
    """All base subsets of size base_size up to the PGL(2,q) parameter
    action: representatives contain {0, 1, inf} and are minimal images."""
    inf = model.inf
    fixed = (0, 1, inf)
    rest = [t for t in model.params if t not in fixed]
    for extra in combinations(rest, base_size - 3):
        base = tuple(sorted(fixed + extra))
        if _canonical_base(model, base) == base:
            yield base


def exhaustive_min_ac(model: ConicModel, base_size: int = 6,
                      ceiling: int | None = None, force: bool = False):
    """Exact minimum AC-subset size t(q) with a witness.

    Enumerates base subsets of size base_size up to projective equivalence
    and extends each in all ways, keeping only candidates smaller than the
    current best.  A randomized-greedy run seeds the initial upper bound
    (pruning only; exactness is unaffected)."""
    q = model.q
    if ceiling is None:
        ceiling = int(os.environ.get(ENV_MAX_Q, DEFAULT_EXHAUSTIVE_CEILING))
    if q > ceiling and not force:
        raise ValueError(f"q={q} above exhaustive ceiling {ceiling}; "
                         f"use force or set {ENV_MAX_Q}")

    params = model.params
    full = model.full_mask
    qm1 = q - 1

    # tiny fields: direct enumeration by subset size
    if q + 1 <= base_size + 2:
        for s in range(3, q + 1):
            for comb in combinations(params, s):
                if coverage_mask(model, comb) == full:
                    return s, list(comb)
        raise AssertionError("full conic minus one point must be AC")

    start = randomized_greedy(model, seed=0, restarts=20)
    best_size = start.size
    best_witness = list(start.witness)

    # sizes below the base size (only possible while C(s,2)*(q-1) >= |M_q|)
    for s in range(3, base_size):
        if math.comb(s, 2) * qm1 < model.m_size:
            continue
        for comb in combinations(params, s):
            if coverage_mask(model, comb) == full:
                return s, list(comb)

    def extend(subset, covered, cand_from):
        nonlocal best_size, best_witness
        s = len(subset)
        if covered == full:
            if s < best_size:
                best_size = s
                best_witness = list(subset)
            return
        if s + 1 >= best_size:
            return
        # r extra points add at most (C(s+r,2)-C(s,2))*(q-1) covered points
        uncovered = model.m_size - covered.bit_count()
        r = best_size - 1 - s
        if (math.comb(s + r, 2) - math.comb(s, 2)) * qm1 < uncovered:
            return
        for j, t in enumerate(cand_from):
            mask = covered
            for u in subset:
                mask |= model.pair_mask(t, u)
            # zero-gain extensions still recurse: they enable later coverage
            extend(subset + [t], mask, cand_from[j + 1:])

    for base in _canonical_bases(model, base_size):
        covered = coverage_mask(model, base)
        rest = [t for t in params if t not in base]
        extend(list(base), covered, rest)

    assert is_ac_subset(model, best_witness)
    return best_size, best_witness
