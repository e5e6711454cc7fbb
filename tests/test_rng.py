import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsim.errors import InternalError
from qsim.rng import PROB_FLOOR, Stream, kahan_cumsum, sample_index, sample_indices


def test_streams_are_reproducible():
    a = [Stream(123, "tag").uniform() for _ in range(5)]
    b = [Stream(123, "tag").uniform() for _ in range(5)]
    assert a[0] == b[0]
    # sequential draws from one stream differ
    s = Stream(123, "tag")
    assert len({s.uniform() for _ in range(5)}) == 5


def test_streams_separate_by_seed_tag_and_shot():
    base = Stream(1, "a").uniform()
    assert Stream(2, "a").uniform() != base
    assert Stream(1, "b").uniform() != base
    assert Stream(1, "a", shot=1).uniform() != base
    assert Stream(1, "a").substream(7).uniform() == Stream(1, "a", shot=7).uniform()


def test_uniforms_are_in_range_and_roughly_uniform():
    s = Stream(99, "range")
    draws = [s.uniform() for _ in range(20000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(np.mean(draws) - 0.5) < 3 * 1 / math.sqrt(12 * 20000)


def test_integer_bounds():
    s = Stream(5, "int")
    draws = [s.integer(7) for _ in range(1000)]
    assert set(draws) == set(range(7))


def test_normal_moments():
    s = Stream(7, "gauss")
    draws = [s.normal() for _ in range(20000)]
    assert abs(np.mean(draws)) < 4 / math.sqrt(20000)
    assert abs(np.std(draws) - 1.0) < 0.02


def test_kahan_cumsum_matches_fsum():
    values = [1e-3] * 1000 + [1e-16] * 10
    cum = kahan_cumsum(values)
    assert cum[-1] == pytest.approx(math.fsum(values), abs=1e-15)
    assert len(cum) == len(values)


def test_sample_index_respects_distribution():
    probs = [0.5, 0.25, 0.25]
    s = Stream(11, "sample")
    counts = [0, 0, 0]
    for _ in range(30000):
        idx, p = sample_index(probs, s)
        assert p == probs[idx]
        counts[idx] += 1
    assert abs(counts[0] / 30000 - 0.5) < 0.01


def test_sample_index_skips_floored_outcomes():
    probs = [1e-18, 1.0 - 1e-18]
    s = Stream(13, "floor")
    for _ in range(200):
        idx, _ = sample_index(probs, s)
        assert idx == 1


def test_sample_index_rejects_unnormalized():
    with pytest.raises(InternalError):
        sample_index([0.5, 0.4], Stream(1, "bad"))


SEEDS = st.one_of(st.integers(-(2**70), -1), st.integers(0, 2**64 - 1),
                  st.integers(2**64, 2**80))
TAGS = st.one_of(st.text(max_size=8), st.integers(-(2**70), 2**70))


@settings(max_examples=200)
@given(seed=SEEDS, tag=TAGS, shots=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       draws=st.integers(1, 5))
@example(seed=-1, tag="qec/sweep/0.1", shots=[0, 1, 2**63, 2**64 - 1], draws=5)
def test_uniforms_match_per_shot_streams(seed, tag, shots, draws):
    stream = Stream(seed, tag)
    batch = stream.uniforms(shots, draws)
    assert batch.shape == (len(shots), draws) and batch.dtype == np.float64
    for row, shot in zip(batch.tolist(), shots):
        sub = stream.substream(shot)
        assert row == [sub.uniform() for _ in range(draws)]


class FixedDraw:
    """Stands in for a Stream whose every uniform is `u`."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def scalar_indices(probs, us):
    return [sample_index(probs, FixedDraw(u))[0] for u in us]



@st.composite
def floored_distributions(draw):
    """Normalised arrays in which some entries sit below PROB_FLOOR."""
    n = draw(st.integers(1, 12))
    floored = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    floored[draw(st.integers(0, n - 1))] = False
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    weights[floored] = 0.0
    probs = weights / weights.sum()
    tiny = st.sampled_from([0.0, 1e-18, PROB_FLOOR / 2])
    return [draw(tiny) if f else float(p) for f, p in zip(floored, probs)]


@settings(max_examples=300)
@given(probs=floored_distributions(),
       us=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_sample_indices_match_sample_index(probs, us):
    # every cumulative value is a bucket edge; also draw exactly on each edge
    us = us + [u for u in kahan_cumsum(probs) if u < 1.0] + [0.0, np.nextafter(1.0, 0.0)]
    assert sample_indices(probs, us).tolist() == scalar_indices(probs, us)


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=300)
@given(probs=floored_distributions())
def test_array_route_matches_list_route(probs):
    arr = np.array(probs)
    # list(arr) holds numpy scalars: the arithmetic the array route replaced
    assert bits(kahan_cumsum(arr)) == bits(kahan_cumsum(probs)) == bits(kahan_cumsum(list(arr)))
    edges = [u for u in kahan_cumsum(probs) if u < 1.0]
    for u in edges + [np.nextafter(u, 0.0) for u in edges] + [0.0, np.nextafter(1.0, 0.0)]:
        idx, prob = sample_index(arr, FixedDraw(u))
        assert (idx, prob) == sample_index(probs, FixedDraw(u)) == sample_index(list(arr), FixedDraw(u))
        assert type(prob) is np.float64 and prob == arr[idx]


@pytest.mark.parametrize("probs", [[1.0], [0.0, 1.0, 1e-18]])
def test_sample_indices_one_outcome(probs):
    us = [0.0, 0.5, np.nextafter(1.0, 0.0)]
    assert sample_indices(probs, us).tolist() == scalar_indices(probs, us) == [probs.index(1.0)] * 3


def test_sample_indices_residual_gap_maps_to_last_valid_outcome():
    probs = [0.5, 0.5 - 4e-13, 0.0]
    gap = 1.0 - 1e-13
    assert kahan_cumsum(probs)[-1] < gap
    assert sample_indices(probs, [gap]).tolist() == scalar_indices(probs, [gap]) == [1]


def test_sample_indices_rejects_unnormalized_like_sample_index():
    with pytest.raises(InternalError) as scalar:
        sample_index([0.5, 0.4], Stream(1, "bad"))
    with pytest.raises(InternalError) as batched:
        sample_indices([0.5, 0.4], [0.1])
    assert str(batched.value) == str(scalar.value)


def test_property_tests_are_derandomized_by_default():
    assert settings().derandomize and settings().deadline is None
