"""Construction of AC-subsets: incremental coverage, randomized greedy
search, and exhaustive minimum search.

An M-point P is covered by a chosen set S when sigma_P(s) is in S for some
s in S (see `geometry`: P lies on the bisecant {s, sigma_P(s)}).  The
bisecants through one conic point c meet only in c, so the gain of a
candidate c is additive over S:

    gain(c) = sum over s in S of |uncovered points on bisecant {c, s}|
            = #{uncovered P : sigma_P(c) in S}.

`CoverageState` is the one incremental-coverage implementation.  It keeps
these gain counts and works from the smaller side of M_q, less a slack for
the closed form's fixed cost.  While the uncovered points outnumber the
covered ones by at least `SLACK`, the points t newly covers are its
bisecants to S not yet covered (`ConicModel.bisecants`, closed form), and
the gains follow from counts over the covered points and those bisecants
alone.  After that it keeps the uncovered points and scans them; when
|M_q| < `SLACK` (q <= 43) it scans from the first add.  Either way
adding t subtracts the contributions of the old S to the points t newly
covers and adds the contributions of t to the points still uncovered, with
`bincount`s over sigma_P values from `ConicModel.sigma`, in closed form.
The points it counts over are held as their `ConicModel.key`s, which is
all `sigma` reads; only the covered flags are per M-index, the index
`bisecants` returns.  Where t is a fixed point of sigma_P, sigma_P(t) = t
falls on a parameter that is chosen or being chosen, whose gain is never
read, so no count needs a tangent sentinel.  The greedy passes drive a
`CoverageState`.  `is_ac_subset` marks the bisecants of every pair of the
subset, again in closed form.  The exhaustive search keeps Python-int
bitsets: the pair mask of every bisecant, built per point from one
`bisecants` call, and at each DFS node, for every candidate c still to
come, the OR of the pair masks of c with the subset, so the coverage of a
child is one OR.  A canonical base is extended only by the finite points
above its largest finite point (the prefix lemma below), so the DFS
reaches each canonical superset once, from its prefix.  It prunes by size
alone: it grows a subset only while a larger one can still be smaller
than the best cover found.  A child gets its own lists only when its own
children can still recurse; the last level, which can only complete a
cover, is scanned in place, by index into the parent's lists.  A node
compares its child size with the best size once, and again only after a
recursive call or a completed leaf, the only places the best size can
change; a child that is a cover ends the node, as every later child is as
large.  Below the base size, the sizes s with C(s,2)*(q-1) < |M_q| are
skipped: s points cannot cover.

The exhaustive search seeds its enumeration with one base per PGL(2,q)
orbit.  PGL(2,q) is sharply 3-transitive, so the map sending an ordered
triple (x, y, z) to (0, 1, inf) is unique and sends t to the cross ratio

    (t; x, y, z) = [t,x]*[y,z] / ([t,z]*[y,x]),   zero denominator -> inf,

where [s,t] = u_s*v_t - u_t*v_s for the homogeneous pairs t -> (t, 1) and
inf -> (1, 0).  A base through {0, 1, inf} is canonical when no such map
of one of its ordered triples gives a lexicographically smaller sorted
image.  The bases are generated in order, each size from the one below
(R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978): a map
giving a base less its largest finite point a smaller image gives the
whole base one too, so each canonical base is a canonical base one
smaller plus one larger point.  The cross ratio factors as
([t,x]/[t,z]) * ([y,z]/[y,x]): the first factor is taken once per pair
(x, z), and each y multiplies it by a per-base scalar.  Image and base
are compared as bitmasks over the q+1 codes, one uint64 each: the sorted
image is the smaller exactly when the lowest code in one set but not the
other is in the image, the lowest set bit of image XOR base.  x, y and z
always map to 0, 1 and inf, so only the images of the s-2 points other
than x and z are gathered, and the mask of 0, 1 and inf is ORed in.  So
one gather and one OR-reduce test every y of a group of pairs (x, z) at
once, with no sort.  The candidates of a level go through in fixed-size
blocks, and each step takes as many pairs as a fixed budget of image
entries allows: a full block one pair at a time, its last few rows every
remaining pair at once.  So the image array of one step, not the level,
sets the memory.

AC-ness is invariant under PGL(2,q), so the exhaustive search needs only
canonical bases, one per orbit (cf. B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): of size k = max(3, g - 4) for a
greedy seed of size g, and of each size below k.  Above k it needs only
canonical sets, by the prefix lemma: a canonical set X of size m >= 4
less its largest finite point p is canonical.  Suppose a map g, sending a
triple of X' = X - {p} to (0, 1, inf), made sorted(g(X')) smaller than
sorted(X'), first at position i.  Both end in inf, so i is not last, and
in sorted(X) p sits just before inf, after position i; g(p) is finite.
If g(p) lands after position i in sorted(g(X')), sorted(g(X)) and
sorted(X) still first differ at i; if at or before it, they first differ
where g(p) lands, and g(p) is the smaller.  Either way X was not
canonical.  Applied m - k times, the lemma makes the k-prefix of X (its
k - 1 smallest finite points and inf) a canonical k-base, and X is that
base plus finite points above its largest finite one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations

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


# Points by which the covered regime of `CoverageState` must be the smaller
# side before it is kept: its extra fixed cost per add, about 30 numpy calls,
# against the scan of the uncovered points.  Measured per greedy pass on a
# 2-vCPU VM, 2048 against 0: q = 16 0.20 against 0.30 ms, q = 31 0.40
# against 0.48 ms, q = 121..128 within noise; 1024 and 4096 were no better.
SLACK = 2048


class CoverageState:
    """Single-owner mutable coverage of M_q by the chosen conic parameters.

    While the uncovered points of M_q outnumber the covered ones by at least
    `SLACK`, it holds the covered points (a flag per M-index and the list of
    their keys) and reads only them and the bisecants of the new point; once
    fewer are left, it holds the keys of the uncovered points, `uncov`,
    instead and scans them.  `uncov` is None until that one-way switch."""

    def __init__(self, model: ConicModel):
        self.model = model
        self.chosen: list[int] = []
        self._old = np.empty(model.q + 1, dtype=np.intp)  # chosen, as an array
        self.in_s = np.zeros(model.q + 1, dtype=bool)
        self.covered = np.zeros(model.m_size, dtype=bool)
        self._cov = np.empty(model.m_size, dtype=np.intp)  # covered keys, first _ncov
        self._ncov = 0
        self.uncov = None
        # gain[c] = #{uncovered P : sigma_P(c) chosen}; meaningful for unchosen c
        self.gain = np.zeros(model.q + 1, dtype=np.int64)

    @property
    def uncovered_count(self) -> int:
        if self.uncov is None:
            return self.model.m_size - self._ncov
        return len(self.uncov)

    def unchosen(self) -> list[int]:
        """Parameters not chosen yet, ascending."""
        return np.flatnonzero(~self.in_s).tolist()

    def best(self) -> list[int]:
        """Unchosen parameters of maximal gain, ascending."""
        gain = self.gain
        gain[self.in_s] = -1
        return np.flatnonzero(gain == gain.max()).tolist()

    def add(self, t: int) -> int:
        """Append parameter t; return the number of newly covered points."""
        if not 0 <= t <= self.model.q or self.in_s[t]:
            raise ValueError(f"parameter {t} already chosen or not on the conic")
        if self.uncov is None and 2 * self._ncov > self.model.m_size - SLACK:
            self.uncov = self.model.key[~self.covered]
            self.covered = self._cov = None
        count = self._add_from_covered(t) if self.uncov is None else self._add_from_uncovered(t)
        self.in_s[t] = True
        self._old[len(self.chosen)] = t
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
        old = self._old[:k]
        line = model.bisecants(t, old)
        was = self.covered[line]
        new = line[~was]
        keys = model.key.take(line)
        self.gain += model.q - 1 - k * (k - 1)
        self.gain += np.bincount(model.sigma(old, keys[was]).ravel(), minlength=size)
        self.gain -= np.bincount(model.sigma(t, self._cov[:self._ncov]), minlength=size)
        self.covered[new] = True
        self._cov[self._ncov:self._ncov + len(new)] = keys[~was]
        self._ncov += len(new)
        return len(new)

    def _add_from_uncovered(self, t: int) -> int:
        """Scan the uncovered points; the partners of the newly covered ones
        are chosen, so their gain, never read, takes the whole row."""
        sigma, size = self.model.sigma, len(self.in_s)
        row = sigma(t, self.uncov)
        hit = self.in_s.take(row)
        new = self.uncov[hit]
        self.gain -= np.bincount(sigma(self._old[:len(self.chosen)], new).ravel(), minlength=size)
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
        from concurrent.futures import ProcessPoolExecutor  # only here: about 20 ms to import
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

def _cross_ratio_factors(ctx: FieldCtx):
    """The two factors of the cross ratio over parameter codes (inf = q):

        (t; x, y, z) = times[ratio(t, x, z), ratio(y, z, x)].

    [s,t] = u_s*v_t - u_t*v_s is the determinant of the homogeneous pairs
    t -> (t, 1) and inf -> (1, 0); it is zero exactly when s = t.  ratio
    maps broadcastable code arrays t, x, z to [t,x] / [t,z], inf where
    t = z, with one gather from a (q+1)^3 table.  times is the (q+1) x q
    product table of F_q u {inf} by F_q, with inf * g = inf: ratio(y, z, x)
    is finite and nonzero for y not in {x, z}.  The tables, and so the
    images, use the smallest unsigned dtype holding q."""
    q, n = ctx.q, ctx.q + 1
    dtype = np.min_scalar_type(q)
    index = np.min_scalar_type(n ** 3 - 1)
    add, mul, neg, inv = field_tables(ctx, dtype)
    u = np.append(np.arange(q), 1)
    v = np.append(np.ones(q, dtype=np.int64), 0)
    det = add[mul[u, v[:, None]], neg[mul[u[:, None], v]]]  # det[x, t] = [t,x]
    table = mul[det[:, None, :], inv[det][None, :, :]]  # [x, z, t]: [t,x] / [t,z]
    table[:, np.arange(n), np.arange(n)] = q  # t = z: [t,z] = 0
    table = table.ravel()
    times = np.vstack([mul, np.full(q, q, dtype=dtype)])

    def ratio(t, x, z):
        return table[(np.asarray(x, dtype=index) * n + z) * n + t]

    return ratio, times


CANONICAL_BLOCK = 1 << 11  # candidate rows per canonicity test block
# Image entries, rows x pairs x (s-2)^2, per numpy step of the canonicity
# test: a full block goes one pair (x, z) at a time, its last few rows take
# every remaining pair at once.  On a 2-vCPU VM, 2^13..2^17 built the bases
# of sizes 3..12 at q = 37 in about the same time.  2^15 was about 5% faster
# than 2^14 at q = 25, but it raised the peak RSS of `ac exact 16..25` by
# 0.1 MB over one pair per step, and 2^14 did not.
CANONICAL_STEP = 1 << 14
# Largest q the exact search runs: the canonicity test holds the q+1
# parameter codes in one uint64, and the pair table is C(q+1, 2) masks of
# q^2 bits, about q^4/16 bytes.
EXACT_MAX_Q = 61


def _drop_non_canonical(rows, ratio, bit, image_bits):
    """The rows of one block of candidates, in order, that no map sending an
    ordered triple (x, y, z) of them to (0, 1, inf) makes lexicographically
    smaller.  bit[c] is the mask of code c and image_bits[a, b] that of
    times[a, b].  x, z and y always map to 0, inf and 1, so one gather over
    the s-2 other points of each row gives the image bits of every t under
    every y of a group of ordered pairs (x, z), (rows, pairs, s-2, s-2)."""
    s = rows.shape[1]
    pairs = list(permutations(range(s), 2))
    at_x, at_z = np.array(pairs).T
    rest = np.array([[t for t in range(s) if t != x and t != z] for x, z in pairs])
    known = bit[0] | bit[1] | bit[-1]
    own = np.bitwise_or.reduce(bit[rows], axis=1)
    start, entries = 0, (s - 2) ** 2
    while start < len(pairs) and len(rows):
        group = slice(start, start + max(1, CANONICAL_STEP // (len(rows) * entries)))
        x, z, ts = rows[:, at_x[group], None], rows[:, at_z[group], None], rows[:, rest[group]]
        f = ratio(ts, x, z)  # [t,x] / [t,z] per t
        scale = ratio(ts, z, x)  # [y,z] / [y,x] per y
        image = np.bitwise_or.reduce(image_bits[f[:, :, None, :], scale[..., None]], axis=3)
        diff = (image | known) ^ own[:, None, None]
        keep = ~(diff & -diff & image).any(axis=(1, 2))  # lowest differing code is the image's
        rows, own = rows[keep], own[keep]
        start = group.stop
    return rows


def _canonical_levels(model: ConicModel, k: int):
    """The canonical bases of sizes 3, 4, ..., k, one (count, s) array per
    size s, in `combinations` order.  Level 3 is (0, 1, inf); the
    candidates of level s+1 are each base of level s, in order, followed
    by each point above its largest finite one, ascending, and go through
    `_drop_non_canonical` in blocks of `CANONICAL_BLOCK` rows.  The code
    masks are uint64, so q <= `EXACT_MAX_Q`."""
    q = model.q
    ratio, times = _cross_ratio_factors(model.ctx)
    bit = np.uint64(1) << np.arange(q + 1, dtype=np.uint64)
    image_bits = bit[times]
    bases = np.array([[0, 1, q]], dtype=times.dtype)
    yield bases
    for s in range(4, k + 1):
        last = bases[:, -2].tolist()
        new = np.concatenate([np.arange(e + 1, q) for e in last])
        cands = np.insert(np.repeat(bases, [q - 1 - e for e in last], axis=0), s - 2, new, axis=1)
        bases = np.concatenate([
            _drop_non_canonical(cands[i:i + CANONICAL_BLOCK], ratio, bit, image_bits)
            for i in range(0, len(cands), CANONICAL_BLOCK)])
        yield bases


def _pair_masks(model: ConicModel) -> list[list[int]]:
    """pair[t][u]: the Python-int bitmask over M_q of the bisecant {t, u},
    0 on the diagonal.  Each t gets its bisecants to every larger parameter
    from one `bisecants` call, one scatter and one row-wise `packbits`."""
    params, m_size = model.params, model.m_size
    pair = [[0] * len(params) for _ in params]
    for t in params[:-1]:
        rest = params[t + 1:]
        flags = np.zeros((len(rest), m_size), dtype=bool)
        flags[np.arange(len(rest)).repeat(model.q - 1), model.bisecants(t, rest)] = True
        for u, row in zip(rest, np.packbits(flags, axis=1, bitorder="little")):
            pair[t][u] = pair[u][t] = int.from_bytes(row.tobytes(), "little")
    return pair


def exhaustive_min_ac(model: ConicModel):
    """Exact minimum AC-subset size t(q) with a witness.

    q <= 7 is enumerated by size.  Above, a randomized-greedy run of size g
    seeds the upper bound and fixes the base size k = max(3, g - 4).
    Every AC-subset of size s < k is equivalent to a canonical s-base, and
    every larger one to a canonical superset of a canonical k-base B, made
    of B and finite points above its largest finite one (the prefix lemma
    of the module docstring).  So each base is extended only by those
    points, while smaller than the current best."""
    q = model.q
    if q > EXACT_MAX_Q:
        raise ValueError(f"q={q} above the exact-search limit {EXACT_MAX_Q}")
    params = model.params
    full = model.full_mask
    qm1 = q - 1
    pair = _pair_masks(model)

    def cover(subset):
        mask = 0
        for t, u in combinations(subset, 2):
            mask |= pair[t][u]
        return mask

    def smallest_ac(sized):  # least s with an AC member of its subsets, over (s, subsets)
        for s, subsets in sized:
            if math.comb(s, 2) * qm1 < model.m_size:
                continue  # s points cover at most C(s,2)*(q-1) M-points
            for sub in subsets:
                if cover(sub) == full:
                    return s, list(sub)
        return None

    if q <= 7:  # tiny fields: direct enumeration by subset size
        return smallest_ac((s, combinations(params, s)) for s in range(3, q + 1))

    start = randomized_greedy(model, seed=0, restarts=20)
    best_size = start.size
    best_witness = list(start.witness)
    # g - 4 was the fastest base size, or within noise of it, at every q <= 32
    base_size = max(3, best_size - 4)
    levels = _canonical_levels(model, base_size)
    # zip asks range first, so level base_size stays in levels for the DFS
    if smaller := smallest_ac(zip(range(3, base_size), map(np.ndarray.tolist, levels))):
        return smaller

    def extend(subset, covered, cands, acc):
        """Visit the children subset + [cands[j]], whose coverage is
        covered | acc[j]; acc[j] ORs the pair masks of cands[j] with subset.
        At a base, cands are the finite points above its largest finite
        one: by the prefix lemma, every canonical superset of size > k is
        its k-prefix plus such points, so each is visited once, and no orbit
        of covers is missed.  Called only while a child can still be a
        smaller cover.  A child that is a cover ends the visit: every later
        child is as large.
        best_size changes only below a recursing child or at a leaf, so
        grow and deep are read from it once and again only after those."""
        nonlocal best_size, best_witness
        s, n = len(subset) + 1, len(cands)  # size of every child
        grow, deep = s + 1 < best_size, s + 2 < best_size
        for j in range(n):
            mask = covered | acc[j]
            if mask == full:
                best_size, best_witness = s, subset + [cands[j]]
                return
            if not grow:
                continue
            # zero-gain extensions still recurse: they enable later coverage
            t = cands[j]
            row = pair[t]
            if deep:
                rest = cands[j + 1:]
                extend(subset + [t], mask, rest, [a | row[c] for a, c in zip(acc[j + 1:], rest)])
            else:  # the grandchildren are leaves: only a full cover counts
                for i in range(j + 1, n):
                    if mask | acc[i] | row[cands[i]] == full:
                        best_size, best_witness = s + 1, subset + [t, cands[i]]
                        break
                else:
                    continue
            grow, deep = s + 1 < best_size, s + 2 < best_size

    for subset in map(np.ndarray.tolist, next(levels)):  # a row's list only while it is visited
        covered = cover(subset)
        if covered == full:  # every cover the DFS found is larger; later bases are not smaller
            best_size, best_witness = base_size, subset
            break
        if base_size + 1 < best_size:
            rest = list(range(subset[-2] + 1, q))
            acc = [0] * len(rest)
            for u in subset:
                acc = [a | pair[u][c] for a, c in zip(acc, rest)]
            extend(subset, covered, rest, acc)

    assert is_ac_subset(model, best_witness)
    return best_size, best_witness
