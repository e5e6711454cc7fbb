"""Seedable counter-based random streams and the shared Born-rule sampler.

Every sampling site in the simulator draws from a `Stream`, a stateless
counter-based generator keyed by (global seed, module tag, shot index).
Derived per-shot streams make shot-level parallelism reproducible: the
numbers a shot sees depend only on its key, never on scheduling order.

The generator is the splitmix64 output function applied to a running
counter, which is statistically solid for Monte Carlo work at desk scale
and costs a handful of integer operations per draw. Because a draw is a
pure function of (key, counter), `Stream.uniforms` computes the draws of
a whole array of shots with numpy uint64 arithmetic, bit for bit equal to
the per-shot streams. `sample_indices` is the Born sampler for an array of
draws (a certified vectorised CDF in front of an exact Kahan route), and
`sample_index` is its one-draw form.

A sampler whose shots all measure one fixed distribution takes
`(..., shots, rng)` and gives shot i row i of `rng.shot_uniforms(shots, k)`.
A loop keeps one `substream` per shot where a shot's distribution depends
on its own draws: `entangle.teleport_trials` (random inputs) and the
repeat-until-verified attempts of `algorithms.order_find`.
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


def _mix(z):
    """splitmix64 finalizer: a 64-bit bijective scrambler, applied to a
    Python int or elementwise to a uint64 array (which wraps mod 2^64)."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _tag_key(tag) -> int:
    """Stable 64-bit key for a module tag (str or int)."""
    if isinstance(tag, int):
        return _mix(tag)
    h = 0xCBF29CE484222325  # FNV-1a over the UTF-8 bytes
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _stream_key(seed: int, tag, shot):
    """Key of the stream (seed, tag, shot); `shot` is an int or a uint64
    array of shot indices, giving one key per shot."""
    k = _mix(_mix(seed ^ _GOLDEN) ^ _tag_key(tag))
    return _mix(k ^ _mix(shot))


class Stream:
    """Counter-based random stream keyed by (seed, tag, shot).

    Streams are cheap to derive; use `child(shot)` to give each shot of an
    experiment its own independent stream.
    """

    __slots__ = ("seed", "tag", "shot", "_key", "_counter", "_gauss_spare")

    def __init__(self, seed: int, tag="", shot: int = 0):
        self.seed = seed & _MASK64
        self.tag = tag
        self.shot = shot
        self._key = _stream_key(self.seed, tag, shot)
        self._counter = 0
        self._gauss_spare = None

    def substream(self, shot: int) -> "Stream":
        """Independent stream for shot index `shot` under this (seed, tag)."""
        return Stream(self.seed, self.tag, shot)

    def uniforms(self, shot_indices, draws: int) -> np.ndarray:
        """(len(shot_indices), draws) float64 array whose row i holds the
        first `draws` values of `self.substream(shot_indices[i]).uniform()`,
        bit for bit. Shot indices lie in [0, 2^64)."""
        keys = _stream_key(self.seed, self.tag, np.asarray(shot_indices, dtype=np.uint64))
        counters = np.arange(1, draws + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        return (_mix(keys[:, None] + counters) >> 11) * _INV53

    def shot_uniforms(self, shots: int, draws: int) -> np.ndarray:
        """`uniforms` of shots 0..shots-1: row i holds shot i's draws.
        Raises DomainError below one shot."""
        if shots < 1:
            raise DomainError("need at least one shot")
        return self.uniforms(np.arange(shots), draws)

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
    cdf = kahan_cumsum(probs)
    residual = abs(cdf[-1] - 1.0)
    if not residual <= CDF_RESIDUAL:
        raise InternalError(
            f"probability array sums to {float(cdf[-1])!r}; residual {residual:.3e} "
            f"exceeds {CDF_RESIDUAL}"
        )
    return cdf


_NO_OUTCOME = "no outcome with probability above the floor"
_UNIT_ROUNDOFF = 2.0**-53
# Arrays with fewer outcomes go straight to the exact route: below this
# size the Python Kahan loop costs less than the filter's fixed numpy work
# (the two cost about 35-40 us each at 128 outcomes on a 2-vCPU x86 VM).
_FILTER_MIN_OUTCOMES = 128


def _filtered_cdf(probs: np.ndarray):
    """(approximate CDF a, bound E) such that every |a_i - c_i| < E / 2,
    where c is `kahan_cumsum(probs)` and the residual check of `c` is sure
    to pass; None when the filter cannot promise that.

    This is the floating-point filter of adaptive-precision predicates
    (Shewchuk 1997): a fast answer with a rigorous error bound, and the
    exact route only where the bound cannot decide. For non-negative finite
    p_0..p_{n-1} with exact prefix sums S_i and total T = S_{n-1}, and unit
    roundoff u, gamma_k = k u / (1 - k u) (Higham, ASNA ch. 3-4):

    - the array is cut into nb blocks of width m = ceil(sqrt(n)) (zero
      padding adds exactly); `np.cumsum` along each row gives running
      sums within a block, each with relative error at most gamma_{m-1};
    - the start of each block is the running sum of the computed block
      totals, which adds a factor (1 + theta), |theta| <= gamma_{nb-1};
    - a_i = start + within-block sum is one more rounding.

    So a_i = sum_{k <= i} p_k (1 + theta_k) with |theta_k| <= gamma_{m+nb-1}
    and |a_i - S_i| <= gamma_{m+nb-1} S_i <= gamma_{m+nb-1} T. Kahan's sum
    obeys |c_i - S_i| <= (2u + O(n u^2)) S_i (ASNA section 4.3), at most
    3u T while n u is far below 1. Hence |a_i - c_i| <= (gamma_{m+nb-1} +
    3u) T <= 1.03 (m + nb + 2) u T for (m + nb) u < 0.01. The residual test
    |a_{n-1} - 1| <= CDF_RESIDUAL - E gives T < 1.01, and with it
    |c_{n-1} - 1| < CDF_RESIDUAL. E = 4 (m + nb + 2) u is therefore more
    than twice the distance bound; the rest covers the rounding of the
    comparisons made against it. Any summation order obeys these gamma
    bounds, but `np.cumsum` is sequential, and with it each block ends
    exactly where the next starts (the start of block b + 1 is the rounded
    sum that ends block b); rounding is monotone, so a is non-decreasing.
    """
    n = probs.shape[0]
    if n < _FILTER_MIN_OUTCOMES or not probs.min() >= 0.0:
        return None
    width = math.isqrt(n - 1) + 1
    blocks = -(-n // width)
    padded = np.zeros(blocks * width)
    padded[:n] = probs
    rows = padded.reshape(blocks, width).cumsum(axis=1)
    ends = rows[:, -1].cumsum()
    rows[1:] += ends[:-1, None]
    cdf = rows.reshape(-1)[:n]
    bound = 4.0 * (width + blocks + 2) * _UNIT_ROUNDOFF
    # NaN and inf fail this test, so they fall to the exact route
    if not abs(cdf[-1] - 1.0) <= CDF_RESIDUAL - bound:
        return None
    return cdf, bound


def _exact_indices(probs: np.ndarray, valid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The exact route: search the running maximum of the Kahan CDF over
    the non-floored entries. That maximum at i is the largest cumulative
    value of an entry at or below i that is not floored, so the search
    finds the first such entry with u < cdf[i]; the last such entry's edge
    is raised to +inf, so a u in the residual gap past it takes that entry."""
    cdf = np.array(_checked_cdf(probs))
    at = valid.nonzero()[0]
    if at.size == 0:
        raise InternalError(_NO_OUTCOME)
    cdf[~valid] = -np.inf
    cdf[at[-1]] = np.inf
    return np.maximum.accumulate(cdf).searchsorted(u, side="right")


def sample_indices(probs, u) -> np.ndarray:
    """Inverse-CDF draws over a probability array, one index per uniform
    in `u`: for each draw, the first entry not below PROB_FLOOR whose
    compensated (Kahan) cumulative value exceeds it; a draw in the residual
    gap past the final cumulative value takes the last such entry. Raises
    InternalError when the array misses 1 by more than CDF_RESIDUAL or no
    entry reaches the floor.

    Large non-negative arrays are decided by `_filtered_cdf`: a draw more
    than its bound E from the approximate edges on both sides has the same
    bucket in the Kahan CDF. Undecided draws, and every other array, take
    the exact route, so the result is always the exact route's.
    """
    probs = np.asarray(probs, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    valid = probs >= PROB_FLOOR
    filtered = _filtered_cdf(probs)
    if filtered is None:
        return _exact_indices(probs, valid, u)
    cdf, bound = filtered
    at = valid.nonzero()[0]
    if at.size == 0:
        raise InternalError(_NO_OUTCOME)
    # a is non-decreasing, so its running maximum over the valid entries is
    # a at those entries, within E / 2 of the exact route's bounds there;
    # the sentinels give every draw an edge on each side
    edges = np.empty(at.size + 2)
    edges[0], edges[-1] = -np.inf, np.inf
    np.take(cdf, at, out=edges[1:-1], mode="clip")  # in range; "clip" is unbuffered
    k = edges.searchsorted(u, side="right")
    lower = edges.take(k - 1, mode="clip")
    upper = edges.take(k, mode="clip")
    decided = (u - lower > bound) & (upper - u > bound)
    picks = at.take(k - 1, mode="clip")
    if not decided.all():
        undecided = ~decided
        picks[undecided] = _exact_indices(probs, valid, u[undecided])
    return picks


def sample_index(probs, rng: Stream):
    """One `sample_indices` draw from `rng.uniform()`; returns
    (index, probs[index])."""
    i = int(sample_indices(probs, [rng.uniform()])[0])
    return i, probs[i]
