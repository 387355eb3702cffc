"""Construction of AC-subsets: incremental coverage, randomized greedy
search, and exhaustive minimum search.

An M-point P is covered by a chosen set S when sigma_P(s) is in S for some
s in S (see `geometry`: P lies on the bisecant {s, sigma_P(s)}).  The
bisecants through one conic point c meet only in c, so the gain of a
candidate c is additive over S:

    gain(c) = sum over s in S of |uncovered points on bisecant {c, s}|
            = #{uncovered P : sigma_P(c) in S}.

`CoverageState` is the one incremental-coverage implementation.  It keeps
these gain counts and works from the smaller side of M_q.  While at most
half the points are covered, the points t newly covers are its bisecants
to S not yet covered (`ConicModel.bisecants`, closed form), and the gains
follow from counts over the covered points and those bisecants alone.
After that it keeps the uncovered M-indices and scans them.  Either way
adding t subtracts the contributions of the old S to the points t newly
covers and adds the contributions of t to the points still uncovered, with
`bincount`s over sigma_P values read through `ConicModel.sigma`.  The
greedy passes drive a `CoverageState`.  `is_ac_subset` marks the bisecants
of every pair of the subset, again in closed form.  The exhaustive search
keeps Python-int bitsets, ORed from a local table of pair masks.

The exhaustive search seeds its enumeration with one base per PGL(2,q)
orbit.  PGL(2,q) is sharply 3-transitive, so the map sending an ordered
triple (x, y, z) to (0, 1, inf) is unique and sends t to the cross ratio

    (t; x, y, z) = [t,x]*[y,z] / ([t,z]*[y,x]),   zero denominator -> inf,

where [s,t] = u_s*v_t - u_t*v_s for the homogeneous pairs t -> (t, 1) and
inf -> (1, 0).  A base through {0, 1, inf} is canonical when no such map
of one of its ordered triples gives a lexicographically smaller sorted
image; all candidate bases are tested at once, one triple at a time.

AC-ness is invariant under PGL(2,q), so the exhaustive search needs only
canonical bases, one per orbit (cf. B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): of size k = min(max(3, g - 4), 10)
for a greedy seed of size g, and of each size below k.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, permutations

import numpy as np

from .geometry import ConicModel, build_conic_model
from .gf import FieldCtx, field_tables


@dataclass
class SearchResult:
    q: int
    size: int
    witness: list[int]
    is_ac: bool
    step_log: list[tuple[int, int, int]] = field(default_factory=list)

    def witness_line(self, model: ConicModel) -> str:
        names = ",".join(model.param_name(t) for t in self.witness)
        return f"{self.q};{self.size};{names}"


class CoverageState:
    """Single-owner mutable coverage of M_q by the chosen conic parameters.

    While at most half of M_q is covered, it holds the covered points (a flag
    per M-point and an index list) and reads only them and the bisecants of
    the new point; once more are covered, it holds the uncovered index array
    `uncov` instead and scans it.  `uncov` is None until that one-way switch."""

    def __init__(self, model: ConicModel):
        self.model = model
        self.chosen: list[int] = []
        # chosen flag per parameter; the tangent sentinel q+1 stays False
        self.in_s = np.zeros(model.q + 2, dtype=bool)
        self.covered = np.zeros(model.m_size, dtype=bool)
        self._cov = np.empty(model.m_size, dtype=np.intp)  # covered indices, first _ncov
        self._ncov = 0
        self.uncov = None
        # gain[c] = #{uncovered P : sigma_P(c) chosen}; meaningful for unchosen c
        self.gain = np.zeros(model.q + 2, dtype=np.int64)

    @property
    def uncovered_count(self) -> int:
        if self.uncov is None:
            return self.model.m_size - self._ncov
        return len(self.uncov)

    def unchosen(self) -> list[int]:
        """Parameters not chosen yet, ascending."""
        return np.flatnonzero(~self.in_s[:-1]).tolist()

    def best(self) -> list[int]:
        """Unchosen parameters of maximal gain, ascending."""
        gain = np.where(self.in_s[:-1], -1, self.gain[:-1])
        return np.flatnonzero(gain == gain.max()).tolist()

    def add(self, t: int) -> int:
        """Append parameter t; return the number of newly covered points."""
        if not 0 <= t <= self.model.q or self.in_s[t]:
            raise ValueError(f"parameter {t} already chosen or not on the conic")
        if self.uncov is None and 2 * self._ncov > self.model.m_size:
            self.uncov = np.flatnonzero(~self.covered)
            self.covered = self._cov = None
        count = self._add_from_covered(t) if self.uncov is None else self._add_from_uncovered(t)
        self.in_s[t] = True
        self.chosen.append(t)
        return count

    def _add_from_covered(self, t: int) -> int:
        """The points t newly covers are its bisecants to S not yet covered.
        Every bisecant has q-1 M-points, so #{P uncovered : sigma_P(t) = c} is
        q-1 less the covered ones.  Over the q-1 points P of a bisecant
        {t, s0} and each s in S other than s0, sigma_P(s) is every unchosen c
        once, so the new points take k(k-1) from each such gain (k = |S|),
        less what the line's already covered points would have taken."""
        model, size, k = self.model, len(self.in_s), len(self.chosen)
        old = np.array(self.chosen, dtype=np.intp)
        line = model.bisecants(t, old)
        was = self.covered[line]
        new = line[~was]
        cov = self._cov[:self._ncov]
        self.gain += model.q - 1 - k * (k - 1)
        self.gain += np.bincount(model.sigma(old[:, None], line[was]).ravel(), minlength=size)
        self.gain -= np.bincount(model.sigma(t, cov), minlength=size)
        self.covered[new] = True
        self._cov[self._ncov:self._ncov + len(new)] = new
        self._ncov += len(new)
        return len(new)

    def _add_from_uncovered(self, t: int) -> int:
        """Scan the uncovered points; the partners of the newly covered ones
        are chosen, so their gain, never read, takes the whole row."""
        sigma, size = self.model.sigma, len(self.in_s)
        row = sigma(t, self.uncov)
        hit = self.in_s.take(row)
        new = self.uncov[hit]
        old = np.array(self.chosen, dtype=np.intp)[:, None]  # one row per s in the old S
        self.gain -= np.bincount(sigma(old, new).ravel(), minlength=size)
        self.uncov = self.uncov[~hit]
        self.gain += np.bincount(row, minlength=size)
        return len(new)


def _covered_flags(model: ConicModel, subset) -> np.ndarray:
    """Per M-point: does some bisecant of the subset pass through it?"""
    subset = list(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("subset has duplicate parameters")
    if subset and not 0 <= min(subset) <= max(subset) <= model.q:
        raise ValueError("subset has a parameter that is not on the conic")
    flags = np.zeros(model.m_size, dtype=bool)
    for i, s in enumerate(subset):  # each pair once: O(|S| q) memory per step
        flags[model.bisecants(s, subset[i + 1:])] = True
    return flags


def is_ac_subset(model: ConicModel, subset) -> bool:
    """Proper subset of the conic covering every point of M_q."""
    subset = list(subset)
    flags = _covered_flags(model, subset)
    return len(subset) <= model.q and bool(flags.all())


def is_minimal_ac(model: ConicModel, subset) -> bool:
    subset = list(subset)
    if not is_ac_subset(model, subset):
        raise ValueError("input is not an AC-subset")
    for i in range(len(subset)):
        if is_ac_subset(model, subset[:i] + subset[i + 1:]):
            return False
    return True


def _greedy_run(model: ConicModel, rng: random.Random, random_step_prob: float):
    """One greedy pass: ties break uniformly at random, and each step is
    fully random with probability random_step_prob."""
    state = CoverageState(model)
    step_log: list[tuple[int, int, int]] = []

    while state.uncovered_count:
        if random_step_prob > 0 and rng.random() < random_step_prob:
            t = rng.choice(state.unchosen())
        else:
            t = rng.choice(state.best())
        delta = state.add(t)
        step_log.append((len(state.chosen), delta, state.uncovered_count))

    return state.chosen, step_log


def _restart_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index) & 0x7FFFFFFFFFFFFFFF


def _run_restart_chunk(model, seed, indices, prob):
    out = []
    for i in indices:
        rng = random.Random(_restart_seed(seed, i))
        chosen, log = _greedy_run(model, rng, prob)
        out.append((len(chosen), i, chosen, log))
    return out


def _pool_restart_chunk(q, seed, indices, prob):
    """Worker entry: the model is looked up by q, not pickled."""
    return _run_restart_chunk(build_conic_model(q), seed, indices, prob)


def check_greedy_args(restarts: int, random_step_prob: float, jobs: int) -> None:
    """ValueError unless restarts >= 1, 0 <= random_step_prob <= 1 and jobs >= 1."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 0 <= random_step_prob <= 1:  # also rejects nan
        raise ValueError(f"random_step_prob={random_step_prob} is not in [0, 1]")
    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be >= 1")


def randomized_greedy(model: ConicModel, seed: int, restarts: int,
                      random_step_prob: float = 0.1, jobs: int = 1) -> SearchResult:
    """Best AC-subset over `restarts` independent randomized greedy passes.

    Deterministic given (seed, restarts, random_step_prob) regardless of
    job count: restart i always uses the stream seeded by (seed, i), and the
    winner is the smallest size with the lowest restart index."""
    check_greedy_args(restarts, random_step_prob, jobs)
    jobs = min(jobs, restarts)  # the pool starts every worker it may use
    results = []
    if jobs == 1:
        results = _run_restart_chunk(model, seed, range(restarts), random_step_prob)
    else:
        chunks = [list(range(k, restarts, jobs)) for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_pool_restart_chunk, model.q, seed, c, random_step_prob)
                    for c in chunks]
            for f in futs:
                results.extend(f.result())
    size, _, chosen, log = min(results, key=lambda r: (r[0], r[1]))
    return SearchResult(q=model.q, size=size, witness=chosen,
                        is_ac=is_ac_subset(model, chosen), step_log=log)


# --- exhaustive search ----------------------------------------------------

def _cross_ratio(ctx: FieldCtx):
    """Vectorized cross ratio (t; x, y, z) over parameter codes (inf = q).

    [s,t] = u_s*v_t - u_t*v_s is the determinant of the homogeneous pairs
    t -> (t, 1) and inf -> (1, 0), held as one (q+1) x (q+1) table; the
    returned function maps broadcastable code arrays t, x, y, z to
    [t,x]*[y,z] / ([t,z]*[y,x]), with a zero denominator giving inf.  The
    tables, and so the images, use the smallest unsigned dtype holding q."""
    q = ctx.q
    dtype = np.min_scalar_type(q)
    add, mul, neg, inv = (table.astype(dtype) for table in field_tables(ctx))
    u = np.append(np.arange(q), 1)
    v = np.append(np.ones(q, dtype=np.int64), 0)
    det = add[mul[u[:, None], v], neg[mul[u, v[:, None]]]]

    def cross(t, x, y, z):
        num = mul[det[t, x], det[y, z]]
        den = mul[det[t, z], det[y, x]]
        return np.where(den == 0, dtype.type(q), mul[num, inv[den]])

    return cross


BASE_CHUNK = 1 << 17  # candidate base rows per `_canonical_bases` pass


def _canonical_bases(model: ConicModel, base_size: int):
    """All base subsets of size base_size up to the PGL(2,q) parameter
    action, in `combinations` order: representatives contain {0, 1, inf}
    and are their own minimal sorted image under the maps sending an
    ordered triple of the base to (0, 1, inf).  Each base is one row; a
    row is dropped as soon as one image is lexicographically smaller.  The
    rows go through the permutation passes BASE_CHUNK at a time."""
    q, k = model.q, base_size
    cross = _cross_ratio(model.ctx)
    rows = chain.from_iterable((0, 1, *extra, q) for extra in combinations(range(2, q), k - 3))
    total = math.comb(q - 2, k - 3)
    for start in range(0, total, BASE_CHUNK):
        count = min(BASE_CHUNK, total - start) * k
        bases = np.fromiter(islice(rows, count), dtype=np.min_scalar_type(q),
                            count=count).reshape(-1, k)
        for x, y, z in permutations(range(k), 3):
            img = np.sort(cross(bases, bases[:, [x]], bases[:, [y]], bases[:, [z]]), axis=1)
            first = (img != bases).argmax(axis=1)[:, None]
            smaller = np.take_along_axis(img, first, 1) < np.take_along_axis(bases, first, 1)
            bases = bases[~smaller.ravel()]
        yield from map(tuple, bases.tolist())


def exhaustive_min_ac(model: ConicModel):
    """Exact minimum AC-subset size t(q) with a witness.

    q <= 7 is enumerated by size.  Above, a randomized-greedy run of size g
    seeds the upper bound and fixes the base size k = min(max(3, g - 4), 10).
    Every AC-subset of size s < k is equivalent to a canonical s-base, and
    every larger one to a superset of a canonical k-base, which is extended
    in all ways while smaller than the current best."""
    q = model.q
    params = model.params
    full = model.full_mask
    qm1 = q - 1
    # pair[t][u]: bitmask of the bisecant {t, u} (0 on the diagonal)
    pair = [[model.pair_mask(t, u) for u in params] for t in params]

    def cover(subset):
        mask = 0
        for t, u in combinations(subset, 2):
            mask |= pair[t][u]
        return mask

    def smallest_ac(sizes, subsets):  # least s in sizes with an AC member of subsets(s)
        for s in sizes:
            if math.comb(s, 2) * qm1 < model.m_size:
                continue  # s points cover at most C(s,2)*(q-1) M-points
            for sub in subsets(s):
                if cover(sub) == full:
                    return s, list(sub)
        return None

    if q <= 7:  # tiny fields: direct enumeration by subset size
        return smallest_ac(range(3, q + 1), lambda s: combinations(params, s))

    start = randomized_greedy(model, seed=0, restarts=20)
    best_size = start.size
    best_witness = list(start.witness)
    # g - 4 was the fastest, or within noise of it, at q = 13..29 among base
    # sizes 4..10 (q=27, 2 vCPUs: 10 took 3.5 s, 9 1.2 s, 8 2.2 s, 6 4.8 s).  There are C(q-2, k-3)
    # candidate bases: at q=32 size 10 runs the whole search in 64 s and 156
    # MB, while 11 spends 30 s and 421 MB on the bases alone and 9 takes 127 s.
    base_size = min(max(3, best_size - 4), 10)
    if smaller := smallest_ac(range(3, base_size), lambda s: _canonical_bases(model, s)):
        return smaller

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
                mask |= pair[t][u]
            # zero-gain extensions still recurse: they enable later coverage
            extend(subset + [t], mask, cand_from[j + 1:])

    for base in _canonical_bases(model, base_size):
        covered = cover(base)
        rest = [t for t in params if t not in base]
        extend(list(base), covered, rest)

    assert is_ac_subset(model, best_witness)
    return best_size, best_witness
