import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import kahan_sample_index, kahan_sample_indices, two_level_sample_indices
from qsim import rng
from qsim.errors import DomainError, InternalError
from qsim.rng import CDF_RESIDUAL, PROB_FLOOR, Stream, kahan_cumsum, sample_index, sample_indices


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


EDGE_KEYS = [0, 2**63, 2**64 - 1]
ANY_SHOTS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)
TOP_SHOTS = st.lists(st.integers(2**64 - 64, 2**64 - 1), min_size=1, max_size=6)


@settings(max_examples=100)
@given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
@example(keys=EDGE_KEYS)
def test_array_mixer_matches_the_int_mixer(keys):
    arr = np.array(keys, dtype=np.uint64)
    got = rng._mix_array(arr)
    assert got.dtype == np.uint64
    assert got.tolist() == [rng._mix(k) for k in keys]
    assert got.tolist() == oracles.mix_masked(arr).tolist()
    assert arr.tolist() == keys


@settings(max_examples=100)
@given(seed=st.one_of(st.sampled_from(EDGE_KEYS), SEEDS), tag=TAGS,
       shots=st.one_of(TOP_SHOTS, ANY_SHOTS), draws=st.integers(1, 4))
@example(seed=2**64 - 1, tag="", shots=[2**64 - 1, 2**64 - 2, 0, 2**63], draws=3)
@example(seed=2**63, tag=0, shots=[2**63, 2**64 - 1], draws=1)
def test_uniforms_and_keys_match_the_whole_derivation(seed, tag, shots, draws):
    stream = Stream(seed, tag)
    got = stream.uniforms(shots, draws)
    assert got.tobytes() == oracles.uniforms_masked(seed, tag, shots, draws).tobytes()
    for row, shot in zip(got.tolist(), shots):
        key = oracles.stream_key(seed, tag, shot)
        assert stream.substream(shot)._key == key
        fresh = Stream(seed, tag, shot)
        assert fresh._key == key
        assert row == [fresh.uniform() for _ in range(draws)]


@settings(max_examples=100)
@given(seed=st.one_of(st.sampled_from(EDGE_KEYS), SEEDS), tag=TAGS,
       shots=st.one_of(TOP_SHOTS, ANY_SHOTS), draws=st.integers(1, 5))
@example(seed=2**64 - 1, tag="", shots=[2**64 - 1, 0, 2**63], draws=5)
def test_words_match_the_masked_derivation(seed, tag, shots, draws):
    got = Stream(seed, tag).words(shots, draws)
    assert got.dtype == np.uint64 and got.shape == (draws, len(shots))
    assert got.T.tolist() == oracles.words_masked(seed, tag, shots, draws).tolist()


EDGE_PROBS = [0.0, -0.0, 5e-324, 2.0**-53, 0.05, 0.5, 1.0 - 2.0**-53, 1.0]
NUDGES = st.sampled_from([0.0, None, 1.0])


def _nudge(p, toward):
    """p itself (toward None), or the next float from p toward `toward`."""
    return p if toward is None else float(np.nextafter(p, toward))


# p = k 2^-53, a possible draw, and the floats on either side of it
GRID_PROBS = st.builds(
    lambda k, toward: _nudge(k * 2.0**-53, toward),
    st.one_of(st.integers(0, 64), st.integers(0, 2**53), st.integers(2**53 - 64, 2**53)),
    NUDGES,
)
PROBS = st.one_of(st.sampled_from(EDGE_PROBS), GRID_PROBS, st.floats(0.0, 1.0))


def _below_is_the_float_comparison(stream, shots, draws, p):
    got = stream.below(shots, draws, p)
    assert got.dtype == bool and got.shape == (draws, len(shots))
    assert got.tolist() == (stream.uniforms(shots, draws).T < p).tolist()


@settings(max_examples=300)
@given(p=PROBS, seed=SEEDS, shots=st.one_of(TOP_SHOTS, ANY_SHOTS), draws=st.integers(1, 5))
def test_below_equals_the_float_comparison(p, seed, shots, draws):
    _below_is_the_float_comparison(Stream(seed, "below"), shots, draws, p)


@pytest.mark.parametrize("p", EDGE_PROBS)
def test_below_at_the_edge_probabilities(p):
    shots = [0, 1, 2**63, 2**64 - 2, 2**64 - 1]
    for draws in range(1, 6):
        _below_is_the_float_comparison(Stream(5, "below-edge"), shots, draws, p)


@settings(max_examples=100)
@given(seed=SEEDS, shots=st.one_of(TOP_SHOTS, ANY_SHOTS), draws=st.integers(1, 5),
       toward=NUDGES)
def test_below_decides_a_draw_at_its_own_threshold(seed, shots, draws, toward):
    """p equal to a draw, or one float either side of it: the comparison
    that a word far from the threshold never tests."""
    stream = Stream(seed, "below-at")
    for u in stream.uniforms(shots, draws).ravel().tolist():
        _below_is_the_float_comparison(stream, shots, draws, _nudge(u, toward))


def test_below_at_a_word_on_its_threshold():
    """A word whose low 11 bits are zero equals t 2^11 for p its own draw:
    the only word on which w < t 2^11 and w <= t 2^11 differ."""
    stream = Stream(7, "below-word")
    shots = np.arange(1 << 14)
    on_grid = shots[(stream.words(shots, 1)[0] & np.uint64(0x7FF)) == 0]
    assert on_grid.size > 0
    for u in stream.uniforms(on_grid, 1)[:4, 0].tolist():
        for toward in (0.0, None, 1.0):
            _below_is_the_float_comparison(stream, on_grid, 1, _nudge(u, toward))


@pytest.mark.parametrize("p", [-5e-324, -1.0, 1.0 + 2.0**-52, 2.0, math.inf, math.nan])
def test_below_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(DomainError):
        Stream(1, "below-bad").below([0, 1], 3, p)


def test_scalar_draws_never_reach_the_array_mixer(monkeypatch):
    def draws():
        s = Stream(21, "guard")
        sub = s.substream(3)
        return [s.uniform(), s.integer(10), sub.uniform(), sub.integer(2), s.normal()]

    want = draws()

    def refuse(z):
        raise AssertionError("the array mixer was called")

    monkeypatch.setattr(rng, "_mix_array", refuse)
    assert draws() == want
    with pytest.raises(AssertionError, match="array mixer"):
        Stream(21, "guard").shot_uniforms(2, 1)


def test_the_uint64_operands_are_read_only_0d_arrays():
    operands = {name: value for name, value in vars(rng).items()
                if isinstance(value, (np.ndarray, np.generic)) and value.dtype == np.uint64
                and value.ndim == 0}
    assert {name: int(value) for name, value in operands.items()} == {
        "_U30": 30, "_U27": 27, "_U31": 31, "_U11": 11, "_U_MUL1": 0xBF58476D1CE4E5B9,
        "_U_MUL2": 0x94D049BB133111EB, "_U_GOLDEN": rng._GOLDEN}
    for name, operand in operands.items():
        assert isinstance(operand, np.ndarray) and not operand.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            operand[()] = 0


TABLE = rng._SHOT_TABLE
# (a, b) of range(a, b): ends at the table's edge, small ranges either side of
# it (empty ones where a >= b), and ranges near 2^64
SHOT_RANGES = st.one_of(
    st.tuples(st.integers(1, TABLE + 1), st.sampled_from([TABLE - 1, TABLE, TABLE + 1])),
    st.integers(0, TABLE + 64).flatmap(lambda a: st.tuples(st.just(a), st.integers(a - 4, a + 40))),
    st.tuples(st.integers(2**64 - 64, 2**64 - 1), st.integers(2**64 - 64, 2**64)),
)


@settings(max_examples=150)
@given(seed=SEEDS, tag=TAGS, ends=SHOT_RANGES, draws=st.integers(1, 4), p=PROBS)
@example(seed=2**64 - 1, tag="", ends=(1, TABLE + 1), draws=3, p=0.5)
@example(seed=7, tag="qec", ends=(TABLE - 3, TABLE), draws=2, p=0.05)
@example(seed=0, tag=0, ends=(TABLE, TABLE), draws=1, p=1.0)
@example(seed=1, tag="empty", ends=(0, -1), draws=2, p=0.5)
@example(seed=-1, tag="top", ends=(2**64 - 3, 2**64), draws=4, p=2.0**-53)
def test_a_range_of_shots_draws_what_its_index_array_draws(seed, tag, ends, draws, p):
    """The table route (a range inside it) and the arange route (any other
    range) against the array route and the masked derivation."""
    shots, index = range(*ends), np.arange(*ends, dtype=np.uint64)
    stream = Stream(seed, tag)
    got = stream.words(shots, draws)
    assert got.dtype == np.uint64 and got.shape == (draws, len(shots))
    assert got.tobytes() == stream.words(index, draws).tobytes()
    assert got.T.tolist() == oracles.words_masked(seed, tag, index, draws).tolist()
    assert stream.uniforms(shots, draws).tobytes() == stream.uniforms(index, draws).tobytes()
    assert stream.below(shots, draws, p).tobytes() == stream.below(index, draws, p).tobytes()


def test_a_range_inside_the_table_takes_two_array_mixes(monkeypatch):
    mix_array, calls = rng._mix_array, []

    def counted(z):
        calls.append(z.size)
        return mix_array(z)

    monkeypatch.setattr(rng, "_mix_array", counted)
    stream = Stream(3, "count")
    for draw, mixes in [(lambda: stream.shot_uniforms(100, 1), 2),
                        (lambda: stream.shot_uniforms(TABLE + 1, 1), 3),
                        (lambda: stream.words(np.arange(100), 1), 3)]:
        calls.clear()
        draw()
        assert len(calls) == mixes
    table = rng._SHOT_MIXES
    assert table.dtype == np.uint64 and table.shape == (2**14,) and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0
    assert [int(table[i]) for i in (0, 1, TABLE - 1)] == [rng._mix(i) for i in (0, 1, TABLE - 1)]


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
    assert scalar_indices(probs, us) == [kahan_sample_index(probs, FixedDraw(u))[0] for u in us]


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


@pytest.mark.parametrize("probs, error, message", [
    ([], InternalError, r"sums to 0\.0; residual 1\.000e\+00 exceeds"),
    (np.float64(0.5), DomainError, r"1-D probability array, got shape \(\)"),
    ([[0.5, 0.5]], DomainError, r"1-D probability array, got shape \(1, 2\)"),
], ids=["empty", "0-d", "2-d"])
@pytest.mark.parametrize("sampler", [
    lambda probs: sample_indices(probs, [0.5]),
    lambda probs: sample_index(probs, FixedDraw(0.5)),
    lambda probs: rng.BornTable(np.asarray(probs, dtype=np.float64)).sample([0.5]),
], ids=["sample_indices", "sample_index", "table"])
def test_an_empty_or_non_vector_array_raises_a_documented_error(probs, error, message, sampler):
    # an empty array sums to 0, so misses 1 by the whole residual
    with pytest.raises(error, match=message):
        sampler(probs)


LONG = rng._FILTER_MIN_OUTCOMES


def spread(n, bad):
    """n entries of 1 / n, with `bad` in place of the middle one."""
    probs = [1.0 / n] * n
    probs[n // 2] = bad
    return probs


@pytest.mark.parametrize("probs", [
    [math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 0.0],
    spread(LONG, math.nan), spread(4 * LONG, math.inf), spread(4 * LONG, -math.inf),
], ids=["nan-first", "nan-middle", "inf-first", "nan-long", "inf-long", "neg-inf-long"])
def test_non_finite_arrays_are_rejected_by_both_samplers(probs):
    with pytest.raises(InternalError, match="residual nan") as scalar:
        sample_index(probs, Stream(1, "bad"))
    with pytest.raises(InternalError) as batched:
        sample_indices(probs, [0.1, 0.9])
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("head, u, index", [
    ([-1.0, 3.0], 0.0, 1),  # a negative entry is floored
    ([128.0, -102.4, 25.6], 0.3, 0),  # the cumulative array falls below 0.5, then climbs
], ids=["floored", "cdf-falls"])
def test_negative_entries_take_the_exact_route(head, u, index):
    n = 2 * LONG
    rest = n - len(head)
    probs = [h / n for h in head] + [(n - sum(head)) / n / rest] * rest
    us = [u] + np.linspace(0.0, 1.0, 41)[:-1].tolist()
    assert sample_indices(probs, us).tolist() == kahan_sample_indices(probs, us).tolist()
    assert sample_indices(probs, us)[0] == sample_index(probs, FixedDraw(u))[0] == index


@pytest.mark.parametrize("n", [3, LONG], ids=["exact", "filtered"])
def test_an_entry_at_the_floor_is_drawn_and_one_float_below_never(n):
    # both draws lie between the first edge, 0.5, and the second, 0.5 + PROB_FLOOR
    us = np.array([0.5, math.nextafter(0.5, 1.0)])
    for p, index in ((PROB_FLOOR, 1), (math.nextafter(PROB_FLOOR, 0.0), 2)):
        probs = np.array([0.5, p] + [(0.5 - p) / (n - 2)] * (n - 2))
        table = rng.BornTable(probs)
        if n >= LONG:  # the filter leaves both draws to the exact route
            assert table._grid is not None and not table._filtered(us)[1].any()
        else:
            assert table._grid is None
        assert sample_indices(probs, us).tolist() == [index, index]
        assert sample_index(probs, FixedDraw(us[1]))[0] == index


def test_undecided_residual_check_goes_to_the_exact_route():
    # every block after the first holds one 0.6-ulp entry, so each step of
    # the running sum of the block totals rounds up by a whole ulp, and the
    # filter's total passes the residual check that the Kahan total fails
    ulp = 2.0**-53
    probs = np.zeros(1 << 14)
    probs[128::128] = 0.6 * ulp
    probs[:2] = [0.5, 0.5 - (CDF_RESIDUAL + 100 * ulp)]
    filtered_total = rng._grid(probs).sum(axis=1).cumsum()[-1]
    assert abs(filtered_total - 1.0) <= CDF_RESIDUAL < abs(kahan_cumsum(probs)[-1] - 1.0)
    message = outcome(kahan_sample_indices, probs, [0.25])
    assert "exceeds" in message
    assert outcome(sample_indices, probs, [0.25]) == message
    assert outcome(sample_index, probs, FixedDraw(0.25)) == message


@st.composite
def long_distributions(draw):
    """Arrays above the filter's crossover, up to 2^14 entries, most of
    them not a whole number of the filter's blocks: entries near 1e-3 mixed
    with 1e-17 values, entries just above and below the floor, exact zeros,
    up to three blocks of floored entries only, and a total short of 1 by a
    residual gap (the last gaps sit near and past CDF_RESIDUAL, so the
    residual check is left undecided or fails)."""
    n = draw(st.integers(LONG, 1 << 14))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from([0.0, 1e-17, PROB_FLOOR / 2, 2 * PROB_FLOOR, 1e-13]),
                          min_size=1, max_size=3))
    small = gen.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9, 0.999]))
    probs = gen.random(n) * 1e-3
    probs[small] = gen.choice(kinds, size=int(small.sum()))
    width = rng._grid(probs).shape[1]
    floored = np.zeros(n, dtype=bool)
    for j in draw(st.lists(st.integers(0, (n - 1) // width), max_size=3)):
        floored[j * width : (j + 1) * width] = True
    probs[floored] = gen.choice([0.0, 1e-17, PROB_FLOOR / 2], size=int(floored.sum()))
    small |= floored
    keep = gen.choice(np.flatnonzero(~floored))
    small[keep], probs[keep] = False, 1e-3
    gap = draw(st.sampled_from([0.0, 4e-13, -4e-13, 8.9e-13, 9.5e-13, 2e-12]))
    probs[~small] *= (1.0 - gap - probs[small].sum()) / probs[~small].sum()
    return probs


def block_bounds(probs):
    """Starts of the filter's blocks, then the end of the last one."""
    return np.concatenate(([0.0], rng._grid(probs).sum(axis=1).cumsum()))


def outcome(sampler, *args):
    """The sampler's result, or the text of the InternalError it raised."""
    try:
        result = sampler(*args)
    except InternalError as exc:
        return str(exc)
    return result.tolist() if isinstance(result, np.ndarray) else result


@settings(max_examples=60)
@given(probs=long_distributions(), us=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                               max_size=10),
       many=st.sampled_from([0, 1, 10_000]))
def test_filtered_samplers_match_the_kahan_route(probs, us, many):
    edges = [c for c in kahan_cumsum(probs) if c < 1.0]
    bounds = block_bounds(probs)
    # at and just below every block start and end, and inside every block
    # (a floored block holds a draw only there)
    at_blocks = bounds.tolist() + np.nextafter(bounds, 0.0).tolist()
    at_blocks += ((bounds[:-1] + bounds[1:]) / 2).tolist()
    # as many uniform draws as blocks, or 10^4 of them
    uniform = np.random.default_rng(probs.size).random(max(many, bounds.size - 1) if many else 0)
    draws = us + edges + [np.nextafter(c, 0.0) for c in edges] + at_blocks + uniform.tolist()
    draws += [0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-12]
    want = outcome(kahan_sample_indices, probs, draws)
    assert outcome(sample_indices, probs, draws) == want
    assert outcome(two_level_sample_indices, probs, draws) == want
    # the scalar route on a sample of the edges and block starts: each
    # rebuilds the CDF
    picked = us + edges[:: max(1, len(edges) // 6)] + at_blocks[:: max(1, len(at_blocks) // 6)]
    picked += draws[-3:]
    for u in picked + [np.nextafter(u, 0.0) for u in picked]:
        for arr in (probs, probs.tolist()):
            got = outcome(sample_index, arr, FixedDraw(u))
            assert got == outcome(kahan_sample_index, arr, FixedDraw(u))
            if isinstance(got, tuple):
                assert type(got[0]) is int and type(got[1]) is type(arr[got[0]])


@settings(max_examples=30)
@given(probs=long_distributions())
def test_block_edges_rise_and_stay_within_half_the_bound(probs):
    grid = rng._grid(probs)
    bounds = block_bounds(probs)
    edges = rng._block_edges(grid, bounds[:-1], bounds[1:])
    # each row opens with its block start and stays within the block
    assert edges[:, 0].tolist() == bounds[:-1].tolist()
    assert (edges <= bounds[1:, None]).all()
    assert (np.diff(edges.reshape(-1)) >= 0.0).all()
    # every edge, and every block start, is within E / 2 of the Kahan value
    # it stands for: position p of row r stands for Kahan value p - r
    kahan = np.array([0.0] + kahan_cumsum(grid.reshape(-1)))
    stands_for = kahan[np.arange(edges.size) - np.arange(edges.size) // edges.shape[1]]
    bound = 4.0 * (sum(grid.shape) + 2) * 2.0**-53
    assert np.abs(edges.reshape(-1) - stands_for).max() < bound / 2


def test_filter_defers_draws_within_its_bound_of_an_edge_or_a_block_start(monkeypatch):
    probs = np.random.default_rng(11).random(1 << 12)
    probs /= probs.sum()
    grid = rng._grid(probs)
    bound = 4.0 * (sum(grid.shape) + 2) * 2.0**-53
    # a decided pick is more than 2E - 2G > E above its lower edge, and E
    # exceeds PROB_FLOOR even at the crossover, so no floored entry is picked
    assert 4.0 * (sum(rng._grid(np.empty(LONG)).shape) + 2) * 2.0**-53 > 10 * PROB_FLOOR
    starts = block_bounds(probs)[1:-1]
    edges = kahan_cumsum(probs)
    near = [starts[j] + 0.75 * bound for j in (5, 17, 40)]
    near += [edges[i] + 0.75 * bound for i in (70, 700, 3000)]
    near += [edges[i] - 0.75 * bound for i in (70, 700, 3000)]
    far = [starts[j] + 4 * bound for j in (5, 17, 40)]
    calls = []

    def counted(values):
        calls.append(len(values))
        return kahan_cumsum(values)

    monkeypatch.setattr(rng, "kahan_cumsum", counted)
    # the oracle builds the Kahan CDF once; a deferred draw builds it again
    for u, builds in [(u, 2) for u in near] + [(u, 1) for u in far]:
        calls.clear()
        assert sample_index(probs, FixedDraw(u)) == kahan_sample_index(probs, FixedDraw(u))
        assert calls == [1 << 12] * builds


def test_warm_sample_index_peaks_below_32_kib():
    probs = np.random.default_rng(7).random(1 << 14)
    probs /= probs.sum()
    for _ in range(3):
        sample_index(probs, FixedDraw(0.37))
    tracemalloc.start()
    try:
        sample_index(probs, FixedDraw(0.37))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


@st.composite
def kept_tables(draw):
    """Arrays for one reused `BornTable`: long ones the filter takes, and
    ones it refuses (at most 128 entries, a negative entry, a NaN, and,
    among the long ones, totals that miss 1)."""
    kind = draw(st.sampled_from(["long", "short", "negative", "nan"]))
    if kind == "short":
        return np.array(draw(floored_distributions()))
    probs = draw(long_distributions())
    i = draw(st.integers(0, probs.size - 2))
    if kind == "negative":  # the total is kept, up to rounding
        probs[i + 1] += 2.0 * probs[i]
        probs[i] = -probs[i]
    elif kind == "nan":
        probs[i] = math.nan
    return probs


@settings(max_examples=60)
@given(probs=kept_tables(), us=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=10))
def test_a_kept_table_samples_what_a_fresh_array_samples(probs, us):
    table = rng.BornTable(probs)
    kept = probs.copy()
    # draws within E / 2 of a block start and of Kahan edges, which the
    # filter leaves undecided; then its decided draws, alone and in batches
    blocks, width = rng._grid(probs).shape
    bound = 4.0 * (blocks + width + 2) * 2.0**-53
    starts = block_bounds(probs)[1:-1][::7]
    edges = np.array(kahan_cumsum(probs))[:: max(1, probs.size // 40)]
    near = np.concatenate((starts + bound / 2, edges - bound / 2, edges + bound / 2))
    uniform = np.random.default_rng(probs.size).random(3 * probs.size // 64)
    # the first call draws fewer than a draw a block, so a filter table
    # cumulates only its hit blocks; the second keeps every block's edges
    first = (near[:: max(1, near.size // 6)].tolist() + us)[: blocks - 1]
    batches = [first, near.tolist(), uniform.tolist(), first]
    # single draws, also given as floats, among them the last block's end,
    # which the search places past every kept edge, and the draw halfway
    # from there to 1 (in the residual gap when the total is short of 1)
    last = float(block_bounds(probs)[-1])
    singles = us + near[:6].tolist() + [last, (last + 1.0) / 2]
    batches += [[u] for u in singles]
    # the Kahan route once, over every draw: each draw's index is its own
    want = outcome(kahan_sample_indices, probs, sum(batches, []))
    at = 0
    for call, batch in enumerate(batches):
        got = outcome(table.sample, batch)
        assert got == outcome(sample_indices, probs.copy(), batch)
        assert got == (want if isinstance(want, str) else want[at : at + len(batch)])
        if len(batch) == 1:
            drawn = outcome(table.sample, batch[0])
            assert drawn == (want if isinstance(want, str) else want[at])
            assert isinstance(want, str) or type(drawn) is int
        at += len(batch)
        if table._grid is not None:
            assert (table._edges is None) == (call == 0)
    # a fresh table drawn by floats alone: its first call cumulates only the
    # hit block, its second keeps every block's edges, and the later ones
    # search them
    floats = rng.BornTable(probs)
    draws = singles + uniform[:4].tolist()
    want = outcome(kahan_sample_indices, probs, draws)
    for call, u in enumerate(draws):
        drawn = outcome(floats.sample, u)
        assert drawn == (want if isinstance(want, str) else want[call])
        assert isinstance(want, str) or type(drawn) is int
        if floats._grid is not None:
            assert (floats._edges is None) == (call == 0)
    if table._grid is not None:
        with pytest.raises(ValueError):
            table._edges[0] = 0.0
    assert probs.tobytes() == kept.tobytes()


@st.composite
def exact_route_arrays(draw):
    """Arrays the exact route takes, 1 to 128 entries: entries up to 1
    mixed with zeros and values below, at and just above the floor, and a
    total short of 1 by a residual gap (the last gaps fail the residual
    check)."""
    n = draw(st.integers(1, LONG - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = gen.random(n) + 1e-3
    small = gen.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    small[gen.integers(n)] = False
    tiny = [0.0, 1e-18, PROB_FLOOR / 2, PROB_FLOOR, 2 * PROB_FLOOR]
    probs[small] = gen.choice(tiny, size=int(small.sum()))
    gap = draw(st.sampled_from([0.0, 4e-13, -4e-13, 9.5e-13, 2e-12]))
    probs[~small] *= (1.0 - gap - probs[small].sum()) / probs[~small].sum()
    return probs


@settings(max_examples=100)
@given(probs=exact_route_arrays(), us=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                               max_size=10))
def test_a_kept_exact_table_draws_what_the_kahan_route_draws(probs, us):
    table = rng.BornTable(probs)
    assert table._grid is None
    edges = kahan_cumsum(probs)
    # on and just below every Kahan edge, and in the residual gap past the last
    draws = us + edges + np.nextafter(edges, 0.0).tolist() + [0.0, np.nextafter(1.0, 0.0)]
    draws = [u for u in draws if u < 1.0] + [(edges[-1] + 1.0) / 2]
    want = outcome(kahan_sample_indices, probs, draws)
    # the first call builds the edges, later calls search the kept ones
    assert outcome(table.sample, draws) == want
    for i, u in enumerate(draws):
        assert outcome(table.sample, [u]) == (want if isinstance(want, str) else [want[i]])
        drawn = outcome(table.sample, u)
        assert drawn == (want if isinstance(want, str) else want[i])
        assert isinstance(want, str) or type(drawn) is int
    assert outcome(table.sample, draws[::-1]) == (want if isinstance(want, str) else want[::-1])
    if not isinstance(want, str):
        with pytest.raises(ValueError):
            table._edges[0] = 0.0


def test_filter_decides_off_edge_draws_and_defers_edge_draws(monkeypatch):
    probs = np.random.default_rng(3).random(1 << 12)
    probs /= probs.sum()
    edges = kahan_cumsum(probs)
    calls = []

    def counted(values):
        calls.append(len(values))
        return kahan_cumsum(values)

    us = Stream(3, "filter").uniforms(np.arange(500), 1)[:, 0]
    expected = kahan_sample_indices(probs, us).tolist()
    monkeypatch.setattr(rng, "kahan_cumsum", counted)
    assert sample_indices(probs, us).tolist() == expected
    assert calls == []
    for i in (0, 100, 4000):
        assert sample_index(probs, FixedDraw(edges[i]))[0] == i + 1
    assert calls == [1 << 12] * 3


@pytest.mark.parametrize("shape", [(128, 128), (12, 11), (91, 91), (3, 4)])
def test_numpy_row_cumsum_is_sequential(shape):
    # a sum that any reassociation changes: 1 + 2^-53 rounds back to 1
    # each time, while two 2^-53 terms added first would survive
    gen = np.random.default_rng(shape[1])
    rows = np.where(gen.random(shape) < 0.5, 2.0**-53, gen.random(shape) * 1e-3)
    rows[:, 0] = 1.0
    for cum, row in zip(rows.cumsum(axis=1).tolist(), rows.tolist()):
        assert cum == list(itertools.accumulate(row))
    assert rows[:, -1].cumsum().tolist() == list(itertools.accumulate(rows[:, -1].tolist()))
    tail = [1.0] + [2.0**-53] * 4
    assert list(itertools.accumulate(tail))[-1] == 1.0 < math.fsum(tail)


def test_property_tests_are_derandomized_by_default():
    assert settings().derandomize and settings().deadline is None


# validation raises that no other in-process test reaches
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: Stream(1, "integer").integer(0), DomainError, "n >= 1"),
], ids=["integer-0"])
def test_bad_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
