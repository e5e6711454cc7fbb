"""Seedable counter-based random streams and the shared Born-rule sampler.

Every sampling site in the simulator draws from a `Stream`, a stateless
counter-based generator keyed by (global seed, module tag, shot index).
Derived per-shot streams make shot-level parallelism reproducible: the
numbers a shot sees depend only on its key, never on scheduling order.

The generator is the splitmix64 output function applied to a running
counter, which is statistically solid for Monte Carlo work at desk scale
and costs a handful of integer operations per draw. A stream's key is
mix(base ^ mix(shot)), where base mixes the seed and the tag; each
`Stream` keeps its base, so `substream` derives only the shot part.
Because a draw is a pure function of (key, counter), `Stream.words`
computes the splitmix words of a whole array of shots with numpy uint64
arithmetic, bit for bit equal to the per-shot streams. It lays them out
draw-major, (draws, shots), so each operation runs along the contiguous
shot axis; `Stream.uniforms` turns them into the (shots, draws) floats,
and `Stream.below` decides "draw below p" on the integer words alone,
exactly as the float comparison would. That route has its own mixer,
`_mix_array`, whose shifts and multipliers are read-only 0-d uint64
arrays (numpy takes a 0-d array operand faster than a `np.uint64`
scalar) and which needs no mask (uint64 wraps mod 2^64); its first step
makes a new array and the rest run in place on it. The inner mix(shot)
of a key does not depend on the seed, so the module keeps it for shots
0 .. 2^14 - 1 in a read-only table (128 KiB, built at import), and a
`range` of shots inside it takes two array mixes (the key's and the
words'), not three.
The scalar draws keep the Python-int `_mix` and never pass through
`_mix_array`.

`sample_indices` is the Born sampler for an array of draws, and
`sample_index` is its one-draw form. The exact route defines
its result: a Kahan-compensated cumulative array, searched. In front of it
sits a certified filter: one pass sums the block totals, and only the
blocks that the draws land in are cumulated, so a single draw from 2^14
outcomes cumulates one block of 128 and allocates no full-length array.
Either route's per-array half is a `BornTable`: `sample_indices(probs, u)`
is `BornTable(probs).sample(u)`. The laws kept in `laws` keep their tables,
so each later draw is one search over kept edges and, on the filter, its
bound test; given as one Python float, about 1.3 us against 6 us through a
one-element array. Order finding draws its attempts so.

A sampler whose shots all measure one fixed distribution takes
`(..., shots, rng)`, gives shot i row i of `rng.shot_uniforms(shots, k)`,
and returns an array with one entry (or row) per shot, which its callers
reduce with numpy. A loop keeps one `substream` per shot where a shot's
distribution depends on its own draws: `entangle.teleport_trials` (random
inputs) and the repeat-until-verified attempts of `algorithms.order_find`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV53 = 1.0 / (1 << 53)

# Residual tolerated between the final cumulative probability and 1.
CDF_RESIDUAL = 1e-12
# Outcomes below this probability are never sampled.
PROB_FLOOR = 1e-15


def _mix(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective scrambler of a Python int."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _u64(value: int) -> np.ndarray:
    """`value` as a read-only 0-d uint64 array. numpy takes an array operand
    faster than a `np.uint64` scalar: a shift of 100 entries takes about
    0.37 us by a 0-d array and 0.54 us by a scalar (numpy 2.4.6, timeit,
    2-vCPU Xeon), and `shot_uniforms(10**5, 3)` is no slower."""
    operand = np.array(value, dtype=np.uint64)
    operand.flags.writeable = False
    return operand


_U30, _U27, _U31, _U11 = (_u64(s) for s in (30, 27, 31, 11))
_U_MUL1, _U_MUL2 = _u64(0xBF58476D1CE4E5B9), _u64(0x94D049BB133111EB)
_U_GOLDEN = _u64(_GOLDEN)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """`_mix` elementwise on a uint64 array, whose products wrap mod 2^64.
    The first step makes a new array and the rest work in place on it, so
    `z` itself is left unchanged."""
    z = z ^ (z >> _U30)
    z *= _U_MUL1
    z ^= z >> _U27
    z *= _U_MUL2
    z ^= z >> _U31
    return z


# mix(shot) for shots 0 .. _SHOT_TABLE - 1, read-only: the seed-free half of a
# stream key, which `Stream.words` slices for a range of shots inside it. The
# size is the largest power of two built in under 0.1 ms at import: 2^14 shots
# (128 KiB) take about 72 us, 2^16 (512 KiB) about 0.45 ms (timeit, 2-vCPU Xeon).
# It holds a QEC sweep block (2^12) and every benchmark workload's shot count.
_SHOT_TABLE = 1 << 14
_SHOT_MIXES = _mix_array(np.arange(_SHOT_TABLE, dtype=np.uint64))
_SHOT_MIXES.flags.writeable = False


def _tag_key(tag) -> int:
    """Stable 64-bit key for a module tag (str or int)."""
    if isinstance(tag, int):
        return _mix(tag)
    h = 0xCBF29CE484222325  # FNV-1a over the UTF-8 bytes
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _base_key(seed: int, tag) -> int:
    """The (seed, tag) part of a stream key, shared by every shot."""
    return _mix(_mix(seed ^ _GOLDEN) ^ _tag_key(tag))


class Stream:
    """Counter-based random stream keyed by (seed, tag, shot).

    Streams are cheap to derive; use `substream(shot)` to give each shot of an
    experiment its own independent stream.
    """

    __slots__ = ("seed", "tag", "shot", "_base", "_key", "_counter", "_gauss_spare")

    def __init__(self, seed: int, tag="", shot: int = 0, *, _base=None):
        self.seed = seed & _MASK64
        self.tag = tag
        self.shot = shot
        # `_base` is this (seed, tag)'s `_base_key`, passed by `substream`
        self._base = _base_key(self.seed, tag) if _base is None else _base
        self._key = _mix(self._base ^ _mix(shot))
        self._counter = 0
        self._gauss_spare = None

    def substream(self, shot: int) -> "Stream":
        """Independent stream for shot index `shot` under this (seed, tag)."""
        return Stream(self.seed, self.tag, shot, _base=self._base)

    def words(self, shot_indices, draws: int) -> np.ndarray:
        """(draws, len(shot_indices)) uint64 array; column i holds the words
        behind the first `draws` values of
        `self.substream(shot_indices[i]).uniform()`. Shot indices lie in
        [0, 2^64), given as an array, a sequence or a `range`; a `range` of
        step 1 below 2^14 takes its mix(shot) from the kept table."""
        r = shot_indices
        if isinstance(r, range) and r.step == 1 and 0 <= r.start <= r.stop <= _SHOT_TABLE:
            mixed = _SHOT_MIXES[r.start:r.stop]
        elif isinstance(r, range):  # np.asarray would convert one Python int at a time
            mixed = _mix_array(np.arange(r.start, r.stop, r.step, dtype=np.uint64))
        else:
            mixed = _mix_array(np.asarray(r, dtype=np.uint64))
        keys = _mix_array(np.array(self._base, dtype=np.uint64) ^ mixed)
        counters = np.arange(1, draws + 1, dtype=np.uint64) * _U_GOLDEN
        return _mix_array(counters[:, None] + keys)

    def uniforms(self, shot_indices, draws: int) -> np.ndarray:
        """(len(shot_indices), draws) float64 array whose row i holds the
        first `draws` values of `self.substream(shot_indices[i]).uniform()`,
        bit for bit: the transpose of the floats of `words`."""
        return ((self.words(shot_indices, draws) >> _U11) * _INV53).T

    def below(self, shot_indices, draws: int, p: float) -> np.ndarray:
        """(draws, len(shot_indices)) bool array equal to
        `self.uniforms(shot_indices, draws).T < p`, decided on the words.

        Exact: a draw is u = k 2^-53 with k = w >> 11, and p 2^53 is exact
        (a power-of-two scaling of p <= 1), so u < p exactly when
        k < ceil(p 2^53) = t, that is when w < t 2^11. At t = 2^53 (p above
        1 - 2^-53) every draw is below p, and t 2^11 = 2^64 does not fit a
        uint64. Raises DomainError unless 0 <= p <= 1."""
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability {p} not in [0, 1]")
        words = self.words(shot_indices, draws)
        threshold = math.ceil(p * 2.0**53) << 11
        if threshold > _MASK64:
            return np.ones(words.shape, dtype=bool)
        return words < np.array(threshold, dtype=np.uint64)

    def shot_uniforms(self, shots: int, draws: int) -> np.ndarray:
        """`uniforms` of shots 0..shots-1: row i holds shot i's draws.
        Raises DomainError below one shot."""
        if shots < 1:
            raise DomainError("need at least one shot")
        return self.uniforms(range(shots), draws)

    def next_u64(self) -> int:
        self._counter += 1
        return _mix((self._key + self._counter * _GOLDEN) & _MASK64)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV53

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise DomainError("integer() needs n >= 1")
        return int(self.uniform() * n) if n > 1 else 0

    def normal(self) -> float:
        """Standard normal via Box-Muller (spare value cached)."""
        if self._gauss_spare is not None:
            g = self._gauss_spare
            self._gauss_spare = None
            return g
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)


def kahan_cumsum(values) -> list:
    """Running sums with Kahan compensation, entry i = sum(values[:i+1]).
    An ndarray is summed over its Python floats: the same bits, in less time."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    total = 0.0
    comp = 0.0
    out = []
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out.append(total)
    return out


def _checked_cdf(probs) -> list:
    """Compensated cumulative array of `probs`; raises InternalError when
    its final value misses 1 by more than CDF_RESIDUAL (or is not a number)."""
    cdf = kahan_cumsum(probs) or [0.0]  # an empty array sums to 0
    residual = abs(cdf[-1] - 1.0)
    if not residual <= CDF_RESIDUAL:
        raise InternalError(
            f"probability array sums to {float(cdf[-1])!r}; residual {residual:.3e} "
            f"exceeds {CDF_RESIDUAL}"
        )
    return cdf


_NO_OUTCOME = "no outcome with probability above the floor"
_UNIT_ROUNDOFF = 2.0**-53
# Arrays of at most 128 outcomes take the exact route. Per call, exact against
# filter at 1 / 20 / 100 draws (timeit, 2-vCPU x86 VM): 128 outcomes 20.7 / 20.5 /
# 21.3 vs 22.9 / 21.5 / 23.0 us, 256 outcomes 37.1 / 36.8 / 44.3 vs 23.6 / 23.2 / 29.8.
_FILTER_MIN_OUTCOMES = 129


def _grid(probs: np.ndarray) -> np.ndarray:
    """`probs` as nb rows of width m, m the least power of two with
    m^2 >= n; a view of `probs` when nb m = n (every n = 2^b), otherwise a
    copy padded with zeros."""
    n = probs.shape[0]
    width = 1 << ((n - 1).bit_length() + 1) // 2
    blocks = -(-n // width)
    if blocks * width == n:
        return probs.reshape(blocks, width)
    padded = np.zeros(blocks * width)
    padded[:n] = probs
    return padded.reshape(blocks, width)


def _block_edges(block_probs: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Approximate cumulative values of the given blocks, one row of m + 1
    each: the block's start, then the start plus the running sum within
    the block, clipped into [start, end]. The start plus a non-negative
    sum never rounds below the start, so only the end needs the clip."""
    # built as the columns of a Fortran-ordered array, so that the starts
    # and ends broadcast along its last axis
    edges = np.zeros((block_probs.shape[1] + 1, block_probs.shape[0]), order="F")
    np.add.accumulate(block_probs.T, axis=0, out=edges[1:])
    edges += starts
    np.minimum(edges, ends, out=edges)
    return edges.T


class BornTable:
    """A probability array prepared for Born draws: `sample(u)` returns
    `sample_indices(probs, u)`. The filter's per-array half (the sign test,
    the block totals, the residual check and the bound E) runs once, here;
    each `sample` call runs only the per-draw half. A table the filter
    refuses keeps the exact edges its first `sample` builds (their errors
    arise on every call). A filter table's first call cumulates only the
    blocks its draws land in; its second call, and any call with at least
    a draw a block, cumulates every block in one pass and keeps those
    edges, read-only (about one float an entry, beside the grid), so
    each later call is one search and the bound test. A one-draw call on
    2^12 to 2^16 outcomes takes about 15-18 us first and 6-7 us once the
    edges are kept, or about 1.3 us given as one float (`_draw`); the
    keeping call about 30 us at 2^12, 85 us at 2^14 and 0.32 ms at 2^16
    (timeit, 2-vCPU Xeon). Undecided draws still take the exact route,
    built afresh. A table keeps `probs` itself, not a copy, which its
    keeper must not change. Raises DomainError unless `probs` is 1-D.

    This is the floating-point filter of adaptive-precision predicates
    (Shewchuk 1997): a fast answer with a rigorous error bound, and the
    exact route only where the bound cannot decide. Every entry is summed
    once for the block totals; then only the blocks that hold a draw are
    cumulated (all of them once the draws are as many as the blocks, or
    the table is reused), each once however many draws land in it. README's
    "The Born filter's bound" derives E and shows that a decided draw is
    the exact route's.
    """

    __slots__ = ("probs", "_grid", "_limits", "_bound", "_edges", "_fresh")

    def __init__(self, probs):
        self.probs = probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1:
            raise DomainError(f"need a 1-D probability array, got shape {probs.shape}")
        self._grid = self._edges = None  # every draw takes the exact route
        self._fresh = True  # no `sample` call yet
        if probs.shape[0] < _FILTER_MIN_OUTCOMES or not probs.min() >= 0.0:
            return
        grid = _grid(probs)
        blocks, width = grid.shape
        bound = 4.0 * (width + blocks + 2) * _UNIT_ROUNDOFF
        limits = np.zeros(blocks + 1)  # block j runs from limits[j] to limits[j + 1]
        np.add.accumulate(np.add.reduce(grid, axis=1), out=limits[1:])
        # NaN and inf fail this test, so they fall to the exact route
        if not abs(float(limits[-1]) - 1.0) <= CDF_RESIDUAL - bound:
            return
        grid.flags.writeable = limits.flags.writeable = False
        self._grid, self._limits, self._bound = grid, limits, bound

    @property
    def nbytes(self) -> int:
        """The bytes the table holds once it keeps its edges: `probs`, and the
        exact edges or a padded grid copy, the limits and the filter's edges."""
        probs, grid = self.probs, self._grid
        if grid is None:
            return 2 * probs.nbytes
        padding = grid.nbytes if grid.size > probs.size else 0
        return probs.nbytes + padding + self._limits.nbytes + (grid.size + grid.shape[0]) * 8

    def _filtered(self, u: np.ndarray):
        """(picks, decided): picks[i] is the exact route's index wherever
        decided[i]; the per-draw half of the filter."""
        grid, limits, bound = self._grid, self._limits, self._bound
        blocks, width = grid.shape
        flat, rows = self._edges, None
        if flat is None and self._fresh and u.size < blocks:
            hit = np.zeros(blocks, dtype=bool)
            hit[limits[1:-1].searchsorted(u, side="right")] = True
            rows = hit.nonzero()[0]
            flat = _block_edges(grid[rows], limits[rows], limits[rows + 1]).reshape(-1)
        elif flat is None:  # reused, or one pass costs less than a block search a draw
            flat = _block_edges(grid, limits[:-1], limits[1:]).reshape(-1)
            flat.flags.writeable = False
            self._edges = flat
        self._fresh = False
        # flat[below] is the lower edge, flat[below + 1] the pick's edge
        below = flat.searchsorted(u, side="right") - 1
        lower, upper = flat.take(below, mode="clip"), flat.take(below + 1, mode="clip")
        decided = np.minimum(u - lower, upper - u) > bound
        # column 0 of a row holds the block start, so the pick, one column after
        # `below`, has `below`'s column as its offset in its block; with every
        # row kept, row i's pick is below - i
        if rows is None:
            return below - below // (width + 1), decided
        row, col = np.divmod(below, width + 1)
        return rows.take(row, mode="clip") * width + col, decided

    def sample(self, u) -> np.ndarray | int:
        """One index per uniform in `u`, as `sample_indices` defines it:
        the filter decides what it can, the exact route the rest. One
        Python float `u` gives a Python int, `int(self.sample([u])[0])`,
        errors included; once the table keeps its edges it takes `_draw`."""
        if isinstance(u, float):
            return int(self.sample([u])[0]) if self._edges is None else self._draw(u)
        u = np.asarray(u, dtype=np.float64)
        if self._grid is None:
            if self._edges is None:
                self._edges = _exact_edges(self.probs)
            return self._edges.searchsorted(u, side="right")
        picks, decided = self._filtered(u)
        if np.count_nonzero(decided) < decided.size:
            undecided = ~decided
            picks[undecided] = _exact_edges(self.probs).searchsorted(u[undecided], side="right")
        return picks

    def _draw(self, u: float) -> int:
        """`sample` of one float over kept edges: one search with a scalar
        key and, on the filter, its bound test in Python floats."""
        edges = self._edges
        pick = int(edges.searchsorted(u, side="right"))
        if self._grid is None:
            return pick
        below = pick - 1  # as in `_filtered`: the lower edge, and the pick's edge after it
        # below = -1 (u under every edge) reads the last edge, which like the
        # clipped first one lies above u, so the draw is undecided either way
        lower, upper = edges[below], edges[min(pick, edges.size - 1)]
        if min(u - lower, upper - u) > self._bound:
            return below - below // (self._grid.shape[1] + 1)
        return int(_exact_edges(self.probs).searchsorted(u, side="right"))


def _exact_edges(probs: np.ndarray) -> np.ndarray:
    """The exact route's edges, read-only: the running maximum of the Kahan
    CDF over the non-floored entries, the largest cumulative value at or
    below i of an entry that is not floored. A search (side="right") finds
    the first such entry with u < cdf[i]; the last one's edge is raised to
    +inf, so a u in the residual gap past it takes that entry."""
    cdf = np.array(_checked_cdf(probs))
    valid = probs >= PROB_FLOOR
    at = valid.nonzero()[0]
    if at.size == 0:
        raise InternalError(_NO_OUTCOME)
    cdf[~valid] = -np.inf
    cdf[at[-1]] = np.inf
    np.maximum.accumulate(cdf, out=cdf).flags.writeable = False
    return cdf


def sample_indices(probs, u) -> np.ndarray:
    """Inverse-CDF draws over a probability array, one index per uniform
    in `u`: for each draw, the first entry not below PROB_FLOOR whose
    compensated (Kahan) cumulative value exceeds it; a draw in the residual
    gap past the final cumulative value takes the last such entry. Raises
    InternalError when the array misses 1 by more than CDF_RESIDUAL or no
    entry reaches the floor.

    Large non-negative arrays are decided by `BornTable`'s filter: a draw
    more than its bound E from the approximate edges on both sides has the
    same bucket in the Kahan CDF. Undecided draws, and every other array,
    take the exact route, so the result is always the exact route's.
    """
    return BornTable(probs).sample(u)


def sample_index(probs, rng: Stream):
    """One `sample_indices` draw from `rng.uniform()`; returns
    (index, probs[index])."""
    i = int(sample_indices(probs, [rng.uniform()])[0])
    return i, probs[i]
