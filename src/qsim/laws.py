"""The one store of seed-free laws: what a shot experiment measures that
depends on its parameters and not on its seed, kept for the next call with
the same arguments of the same types. What it keeps is read-only (arrays, a
`BornTable`'s `probs`). It holds at most BUDGET bytes, least recently used
out first, and returns a law over BUDGET unkept. A build may call a law."""

import functools
import threading
from collections import OrderedDict

import numpy as np

from .rng import BornTable

BUDGET = 256 << 20
_ENTRY_BYTES = 1 << 10  # an entry's key and objects; a qmc law's take under 1 KiB
_lock = threading.Lock()
_laws = OrderedDict()  # key -> (law, bytes charged), least recently used first
_held = 0


def kept(build):
    """`build`, each law it returns kept under its positional arguments."""

    @functools.wraps(build)
    def law(*args):
        global _held
        key = (build, args, tuple(map(type, args)))
        with _lock:
            entry = _laws.get(key)
            if entry is not None:
                _laws.move_to_end(key)
                return entry[0]
        value = build(*args)
        charge = _ENTRY_BYTES + _seal(value)
        with _lock:
            if charge <= BUDGET:
                _held -= _laws.pop(key, (None, 0))[1]  # another thread's build
                while _held + charge > BUDGET:
                    _held -= _laws.popitem(last=False)[1][1]
                _laws[key] = value, charge
                _held += charge
        return value

    return law


def _seal(value) -> int:
    """Marks `value` read-only and returns the bytes it holds."""
    if isinstance(value, tuple):
        return sum(map(_seal, value))
    if isinstance(value, BornTable):
        value.probs.flags.writeable = False
    elif isinstance(value, np.ndarray):
        value.flags.writeable = False
    return getattr(value, "nbytes", 0)


def clear():
    """Empties the store."""
    global _held
    with _lock:
        _laws.clear()
        _held = 0


def nbytes() -> int:
    """The bytes charged for the laws held."""
    return _held
