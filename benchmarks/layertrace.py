"""Outside-in tracer for qsim's layers.

`Tracer.install()` replaces each layer's entry points with timing wrappers
from outside the package: module-level functions are rebound in every
`qsim.*` module that imported them by name, and methods are replaced on
their class. `Tracer.remove()` restores every original binding.

Spans are aggregated in memory per layer (calls, total time and self time,
where self time is total minus the time covered by child spans). Each
thread keeps its own span stack. The main thread's spans are timed by the
wall clock. `shot_map`'s worker threads are timed by their own CPU clocks:
under the interpreter lock their wall-clock spans overlap, and a span that
releases the lock would absorb the other thread's run. When a pool call
ends, its workers' times are scaled to the wall time their shots covered,
so the layer self times plus `glue` add up to the traced wall time. The
pool's busy time sums shot time by each thread's clock, so a parallelism
(busy / wall) near 1 means the pool threads did not run at the same time.
Individual spans are kept only at coarse boundaries: workload items and
`shot_map` calls.
"""

from __future__ import annotations

import sys
import threading
import time

perf = time.perf_counter

GLUE = "glue"

# Layers reported in the share table, in report order.
LAYERS = (
    "rng.stream", "rng.draw", "rng.sample", "qstate.kernel", "qstate.measure",
    "gates.gateop", "linalg.check", "linalg.eigh", "pool.shot_map",
    "algorithms.pe_register", "hamsim.step", "cli.emit",
)

AMP_BYTES = 16  # complex128


def _count_sample(counts, probs, rng):
    counts["rng.sample.outcomes"] = counts.get("rng.sample.outcomes", 0) + len(probs)


def _count_eigh(counts, mat, *args, **kwargs):
    n = len(mat)
    counts["linalg.eigh.n3"] = counts.get("linalg.eigh.n3", 0) + n * n * n


def _count_kernel(counts, amps, b, mat, targets, controls=(), perm_src=None, diag=None):
    """Classify a kernel call by the kernel's own branch predicates and add
    its bytes under a per-path copy model (computed, not measured)."""
    k = len(targets)
    n = 1 << b
    active = n >> len(controls)
    if diag is not None:
        path = "diag"
        scaled = sum(1 for d in diag if d != 1.0)
        elements = 2 * n + 2 * scaled * (active >> k)
    elif list(targets) == list(range(b - k, b)) and all(c < b - k for c in controls):
        path = "trailing"
        elements = 2 * n + 4 * active
    else:
        path = "general"
        elements = 4 * n + 4 * active
    for key, add in (
        (f"qstate.kernel.calls.{path}", 1),
        ("qstate.kernel.amps", n),
        ("qstate.kernel.bytes_computed", AMP_BYTES * elements),
    ):
        counts[key] = counts.get(key, 0) + add
    if diag is None and perm_src is not None:
        counts["qstate.kernel.calls.perm"] = counts.get("qstate.kernel.calls.perm", 0) + 1


class _ThreadState:
    __slots__ = ("clock", "stack", "agg", "counts", "first", "last", "busy")

    def __init__(self, clock):
        self.clock = clock
        self.stack = []
        self.agg = {}  # layer -> [calls, total_s, self_s]
        self.counts = {}
        self.first = None  # wall-clock start of this thread's first pool shot
        self.last = None  # wall-clock end of its last pool shot
        self.busy = 0.0  # summed pool shot time on this thread, by its clock


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self.spans = []  # coarse spans: (name, start_s, end_s)
        self.pool = {"calls": 0, "shots": 0, "wall_s": 0.0, "busy_s": 0.0}

    # -- span bookkeeping -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            state = self._local.state = _ThreadState(perf if main else time.thread_time)
            with self._lock:
                self._states.append(state)
            return state

    def _close(self, state, layer, frame, dur):
        state.stack.pop()
        if state.stack:
            state.stack[-1][0] += dur
        rec = state.agg.get(layer)
        if rec is None:
            rec = state.agg[layer] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]

    def wrap(self, layer, fn, count=None):
        """`fn` timed as one span of `layer`; `count(counts, *args)` adds
        the layer's work counters."""
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            clock = state.clock
            frame = [0.0]
            state.stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(state, layer, frame, clock() - t0)
                if count is not None:
                    count(state.counts, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def span(self, fn, *args, name=None):
        """Run `fn(*args)` as a `glue` span; keep it as a coarse span if named."""
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        t0 = perf()
        try:
            return fn(*args)
        finally:
            t1 = perf()
            self._close(state, GLUE, frame, t1 - t0)
            if name is not None:
                self.spans.append((name, t0, t1))

    def _wrap_shot_map(self, original):
        tracer = self

        def shot_map(fn, shots, threads=1):
            def shot(i):
                state = tracer._state()
                worker = not state.stack  # a pool thread's shot is its root span
                clock = state.clock
                frame = [0.0]
                state.stack.append(frame)
                w0, t0 = perf(), clock()
                try:
                    return fn(i)
                finally:
                    dur = clock() - t0
                    tracer._close(state, GLUE, frame, dur)
                    state.busy += dur
                    if worker:
                        state.first = w0 if state.first is None else state.first
                        state.last = perf()

            state = tracer._state()
            frame = [0.0]
            state.stack.append(frame)
            with tracer._lock:
                before = len(tracer._states)
            busy_before = state.busy
            t0 = perf()
            try:
                return original(shot, shots, threads)
            finally:
                t1 = perf()
                with tracer._lock:
                    workers = tracer._states[before:]
                    del tracer._states[before:]
                # The workers' shots count as this span's children.
                frame[0] += tracer._merge_workers(state, workers)
                tracer._close(state, "pool.shot_map", frame, t1 - t0)
                tracer.spans.append(("pool.shot_map", t0, t1))
                tracer.pool["calls"] += 1
                tracer.pool["shots"] += shots
                tracer.pool["wall_s"] += t1 - t0
                tracer.pool["busy_s"] += state.busy - busy_before + sum(
                    w.busy for w in workers)

        shot_map.__wrapped__ = original
        return shot_map

    def _merge_workers(self, into: _ThreadState, workers) -> float:
        """Fold finished pool threads into `into`; returns the covered time."""
        ran = [w for w in workers if w.first is not None]
        if not ran:
            return 0.0
        covered = max(w.last for w in ran) - min(w.first for w in ran)
        busy = sum(w.busy for w in ran)
        scale = covered / busy if busy > 0 else 0.0
        for w in workers:
            for layer, (calls, total, self_s) in w.agg.items():
                rec = into.agg.setdefault(layer, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total * scale
                rec[2] += self_s * scale
            for key, value in w.counts.items():
                into.counts[key] = into.counts.get(key, 0) + value
        return covered

    # -- installing and removing wrappers ---------------------------------

    def _rebind_function(self, module, attr, layer, count=None):
        original = getattr(module, attr)
        self._replace(original, self.wrap(layer, original, count))

    def _replace(self, original, wrapper):
        """Rebind every `qsim.*` module global that is `original`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qsim" or name.startswith("qsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attr, layer):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(layer, original))

    def install(self):
        import qsim.algorithms
        import qsim.cli
        import qsim.gates
        import qsim.hamsim
        import qsim.linalg
        import qsim.pool
        import qsim.qstate
        import qsim.rng

        if self._patches:
            raise RuntimeError("tracer already installed")
        rng, qstate, linalg = qsim.rng, qsim.qstate, qsim.linalg
        self._rebind_method(rng.Stream, "__init__", "rng.stream")
        self._rebind_method(rng.Stream, "next_u64", "rng.draw")
        self._rebind_function(rng, "sample_index", "rng.sample", _count_sample)
        self._rebind_function(qstate, "_apply_matrix", "qstate.kernel", _count_kernel)
        self._rebind_function(qstate, "measure_observable", "qstate.measure")
        self._rebind_function(qstate, "measure_qubits", "qstate.measure")
        self._rebind_method(qsim.gates.GateOp, "__init__", "gates.gateop")
        for attr in ("require_unitary", "require_hermitian", "is_unitary", "is_hermitian"):
            self._rebind_function(linalg, attr, "linalg.check")
        self._rebind_function(linalg, "jacobi_eigh", "linalg.eigh", _count_eigh)
        self._replace(qsim.pool.shot_map, self._wrap_shot_map(qsim.pool.shot_map))
        self._rebind_function(qsim.algorithms, "_pe_register_distribution",
                              "algorithms.pe_register")
        self._rebind_method(qsim.hamsim.TrotterStep, "__init__", "hamsim.step")
        self._rebind_function(qsim.cli, "_emit", "cli.emit")

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- results ----------------------------------------------------------

    def totals(self):
        """(per-layer [calls, total_s, self_s], merged counters) over all threads."""
        agg, counts = {}, {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, values in state.agg.items():
                rec = agg.setdefault(layer, [0, 0.0, 0.0])
                for i, value in enumerate(values):
                    rec[i] += value
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0) + value
        return agg, counts
