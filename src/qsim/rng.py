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
the per-shot streams; `sample_indices` is the matching array sampler.
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
    its final value misses 1 by more than CDF_RESIDUAL."""
    cdf = kahan_cumsum(probs)
    residual = abs(cdf[-1] - 1.0)
    if residual > CDF_RESIDUAL:
        raise InternalError(
            f"probability array sums to {float(cdf[-1])!r}; residual {residual:.3e} "
            f"exceeds {CDF_RESIDUAL}"
        )
    return cdf


def sample_index(probs, rng: Stream):
    """Inverse-CDF draw over a probability array.

    Builds the cumulative array with compensated summation; the final
    bucket absorbs a residual of at most CDF_RESIDUAL. Entries below
    PROB_FLOOR are never selected. Returns (index, probs[index]).
    """
    values = probs.tolist() if isinstance(probs, np.ndarray) else probs
    cdf = _checked_cdf(values)
    u = rng.uniform()
    last_valid = -1
    for i, p in enumerate(values):
        if p < PROB_FLOOR:
            continue
        last_valid = i
        if u < cdf[i]:
            return i, probs[i]
    if last_valid < 0:
        raise InternalError("no outcome with probability above the floor")
    # u landed in the residual gap past the final cumulative value
    return last_valid, probs[last_valid]


def sample_indices(probs, u) -> np.ndarray:
    """`sample_index` for an array of uniforms `u`: the index it would
    return for each draw, from one cumulative array.

    `bounds[i]` is the largest cumulative value of an entry at or below i
    that is not floored, so the search finds the first such entry with
    u < cdf[i], as the scalar loop does; a u in the residual gap past the
    last bound maps to the last valid index.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.array(_checked_cdf(probs))
    valid = probs >= PROB_FLOOR
    if not valid.any():
        raise InternalError("no outcome with probability above the floor")
    bounds = np.maximum.accumulate(np.where(valid, cdf, -np.inf))
    last_valid = np.flatnonzero(valid)[-1]
    return np.minimum(np.searchsorted(bounds, u, side="right"), last_valid)
