"""The store of seed-free laws (`qsim.laws`): one byte budget, least
recently used out first, typed keys, read-only laws, and a charge that
covers what a kept table holds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import order_find_per_call, phase_estimates_per_call, trotter_qmc_per_call
from qsim import algorithms, hamsim, laws
from qsim.algorithms import PhasePlan, order_find, phase_estimates
from qsim.errors import NotFoundError
from qsim.gates import phase_gate
from qsim.hamsim import trotter_qmc
from qsim.qstate import basis_state
from qsim.rng import BornTable, Stream

pytestmark = pytest.mark.usefixtures("cold_laws")

builds = []  # the arguments of every build below, in order


@pytest.fixture(autouse=True)
def no_builds():
    builds.clear()


@laws.kept
def uniform_table(tag, n=100):
    """A table of n equal outcomes; `tag` only tells the keys apart."""
    builds.append(tag)
    return BornTable(np.full(n, 1.0 / n))


@laws.kept
def echo(value):
    builds.append(value)
    return np.array([value])


def charge_of_one(monkeypatch, size: int) -> int:
    """The charge of one `uniform_table` entry; the store then holds `size` of them."""
    uniform_table("probe")
    charge = laws.nbytes()
    laws.clear()
    builds.clear()
    monkeypatch.setattr(laws, "BUDGET", size * charge)
    return charge


def test_a_full_store_evicts_its_least_recently_used_law(monkeypatch):
    charge = charge_of_one(monkeypatch, 3)
    first = [uniform_table(tag) for tag in "abc"]
    assert laws.nbytes() == laws.BUDGET  # exactly full: all three kept
    assert [uniform_table(tag) for tag in "abc"] == first and builds == list("abc")
    uniform_table("d")
    assert laws.nbytes() == 3 * charge
    for tag in "bcd":
        uniform_table(tag)
    assert builds == list("abcd")
    uniform_table("a")  # evicted by d, so built again, evicting b
    uniform_table("b")
    assert builds == list("abcdab") and laws.nbytes() == laws.BUDGET


def test_a_hit_makes_a_law_the_most_recently_used(monkeypatch):
    charge_of_one(monkeypatch, 2)
    a = uniform_table("a")
    uniform_table("b")
    assert uniform_table("a") is a
    uniform_table("c")  # evicts b, not a
    assert uniform_table("a") is a
    uniform_table("c")
    assert builds == list("abc")
    uniform_table("b")
    assert builds == list("abcb")


def test_a_law_over_the_budget_is_returned_unkept(monkeypatch):
    charge = charge_of_one(monkeypatch, 2)
    small = uniform_table("small")
    big = uniform_table("big", 1000)
    assert big.sample(0.5) == 500 and laws.nbytes() == charge
    assert not big.probs.flags.writeable
    uniform_table("big", 1000)
    assert uniform_table("small") is small and builds == ["small", "big", "big"]


def test_keys_are_typed():
    assert echo(2).dtype == np.int64 and echo(2.0).dtype == np.float64
    assert echo(True).dtype == bool and echo(1).dtype == np.int64
    assert echo(2) is echo(2) and echo(2.0) is echo(2.0)
    assert builds == [2, 2.0, True, 1]


def test_a_build_may_call_another_kept_law():
    # the order-finding table's build keeps the sin^2 table it reads
    table = algorithms._orbit_table(4, 12)
    held = laws.nbytes()
    sin2 = algorithms._sin2_table(12)
    assert laws.nbytes() == held and algorithms._sin2_table(12) is sin2
    assert algorithms._orbit_table(4, 12) is table
    assert held > table.nbytes + sin2.nbytes


def test_what_the_store_keeps_is_read_only():
    law = hamsim._qmc_law(1.0, 2)
    pe = algorithms._pe_table(0.25, 8)
    for array in (echo(1.5), algorithms._sin2_table(8), law[2], law[3].probs, pe.probs):
        with pytest.raises(ValueError):
            array[0] = 0.0


def held_bytes(table: BornTable) -> int:
    """The bytes of the distinct arrays `table` holds; a view of one counted once."""
    distinct = []
    for name in ("probs", "_grid", "_limits", "_edges"):
        array = getattr(table, name, None)
        if array is not None and not any(np.shares_memory(array, seen) for seen in distinct):
            distinct.append(array)
    return sum(array.nbytes for array in distinct)


@pytest.mark.parametrize("n", [100, 128, 256, 200, 1 << 12])
def test_the_charge_covers_a_table_that_keeps_its_edges(n):
    # 100 and 128 outcomes take the exact route, 256 and 2^12 the filter on
    # a grid that views `probs`, 200 the filter on a padded copy
    table = uniform_table("edges", n)
    table.sample(np.linspace(0.0, 1.0, n, endpoint=False))  # a draw a block keeps the edges
    assert table._edges is not None
    assert (table._grid is None) == (n <= 128)
    assert laws.nbytes() >= table.nbytes >= held_bytes(table)


PAIRS = [(2, 5), (3, 7), (2, 15), (7, 15), (2, 9), (4, 9)]
PHASES = [0.125, 1 / 3, 0.7]


@given(budget=st.integers(0, 200_000),
       calls=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=8))
@settings(max_examples=40)
def test_kept_laws_draw_what_the_per_call_routes_draw(budget, calls):
    # budgets around the laws' charges (an orbit table and its sine table
    # about 26 KiB at b = 10 and 99 KiB at b = 12, a phase-estimation table
    # 1.5 to 18 KiB at b = 5 to 10, a qmc law 1 KiB): some laws are kept,
    # some evicted, some returned unkept
    laws.clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(laws, "BUDGET", budget)
        phases = []
        candidate = algorithms._order_candidate
        m.setattr(algorithms, "_order_candidate",
                  lambda phi, *args: phases.append(phi) or candidate(phi, *args))
        for pick, seed in calls:
            x, n = PAIRS[pick]
            want = order_find_per_call(x, n, Stream(seed, "kept"))
            phases.clear()
            try:
                found = order_find(x, n, Stream(seed, "kept"))
            except NotFoundError:
                found = None
            assert (found, phases) == want
            phi, plan = PHASES[pick % 3], PhasePlan(zeta=2.0 ** -(3 + pick), epsilon=0.5)
            u, eigen = phase_gate(2.0 * np.pi * phi), basis_state(1, 1)
            want = phase_estimates_per_call(u, eigen, plan, 7, Stream(seed, "kept"))
            got = phase_estimates(u, eigen, plan, 7, Stream(seed, "kept"))
            assert got.tolist() == want.tolist()
            t_final, steps = 0.5 * pick, 1 + pick % 2
            want = trotter_qmc_per_call(t_final, steps, 9, Stream(seed, "kept"))
            assert repr(trotter_qmc(t_final, steps, 9, Stream(seed, "kept"))) == repr(want)
            assert laws.nbytes() <= budget
    laws.clear()
