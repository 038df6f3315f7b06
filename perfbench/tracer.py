"""Spans around the calls into each ``ensembleqc`` module, recorded from
outside the package.

:meth:`Tracer.install` replaces every public function of the traced modules
at each name a caller looks it up by, including the names that other
modules bind with ``from ... import``, and wraps ``gates.Unitary.__init__``
on the class itself.  A wrapper records a span only while the tracer is
active, so the benchmark's own checks stay out of the trace.  Spans are kept
in memory as ``(id, name, start, end, parent, thread)`` tuples; worker
threads of the CLI's thread pool inherit the submitting span as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TRACED_MODULES = ("physical", "presets", "dynamics", "decoherence", "gates", "compiler", "simulator")
# Only these two CLI functions are wrapped, so that cli.main's self time
# keeps the subcommand bodies, including the CLI's logical-matrix oracle.
CLI_FUNCTIONS = ("main", "load_config")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.peaks = {}

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span while the tracer is active; ``after`` then
        updates counters from the arguments and the result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, fn, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def peak(self, key: str, value: int) -> None:
        with self._lock:
            self.peaks[key] = max(self.peaks.get(key, 0), value)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s traced modules at every
        binding inside the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = {}
        for short in TRACED_MODULES + ("cli",):
            module = getattr(package, short)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and (short != "cli" or attr in CLI_FUNCTIONS)):
                    name = f"{short}.{attr}"
                    targets[id(obj)] = self.wrap(name, obj, AFTER_HOOKS.get(name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and inspect.isfunction(obj):
                    self._patch(module, attr, targets[id(obj)])
        unitary = package.gates.Unitary
        self._patch(unitary, "__init__", self.wrap("gates.Unitary", unitary.__init__))
        self._patch(package.cli, "ThreadPoolExecutor", _pool_class(self))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


class _Span:
    """Context manager recording one span if the tracer is active on entry."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.recording = self.tracer.active
        if self.recording:
            stack = self.tracer._stack()
            self.parent = stack[-1] if stack else None
            self.sid = next(self.tracer._ids)
            stack.append(self.sid)
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.recording:
            end = time.perf_counter()
            self.tracer._stack().pop()
            self.tracer.spans.append(
                (self.sid, self.name, self.start, end, self.parent, threading.get_ident())
            )
        return False


def _pool_class(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Thread pool whose tasks nest under the span that submitted them."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return super().submit(run, *args, **kwargs)

    return TracedPool


def _after_apply_op(tracer, fn, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    tracer.count("simulator.amplitudes_touched", state.amplitudes.size)
    tracer.peak("simulator.peak_state_bytes",
                max(state.amplitudes.nbytes, result.amplitudes.nbytes))


def _after_lower_circuit(tracer, fn, args, kwargs, result):
    tracer.count("compiler.native_ops_emitted", len(result.ops))


def _after_fixed_set(tracer, fn, args, kwargs, result):
    tracer.count("compiler.approximate_fixed_set.found", int(result.found))
    tracer.count("compiler.approximate_fixed_set.depth_sum", result.depth)
    if result.found:
        tracer.count("compiler.native_ops_emitted", len(result.program.ops))


def _integrator_steps(step_factor, couplings, n, t, step=None, samples=0) -> int:
    """Steps ``evolve_numerical`` takes, computed from its arguments with the
    same segment rule: whole steps per segment plus one shorter tail step."""
    k_eff = float(np.hypot(couplings.varpi_split(n), abs(couplings.s_coupling)))
    k_scale = max(couplings.kappa(n), k_eff)
    if step is None:
        step = step_factor / k_scale if k_scale > 0.0 else float(t) or 1.0
    ends = np.linspace(0.0, t, samples + 1)[1:] if samples > 0 else np.array([t])
    remaining = np.diff(ends, prepend=0.0)
    whole = np.floor(remaining / step + 1e-12)
    tails = remaining - whole * step > 1e-15 * np.maximum(np.abs(ends), 1.0)
    return int(whole.sum() + tails.sum())


def _after_evolve_numerical(tracer, fn, args, kwargs, result):
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    steps = _integrator_steps(fn.__globals__["DEFAULT_STEP_FACTOR"], a["couplings"], a["n"],
                              a["t"], a.get("step"), a.get("samples", 0))
    tracer.count("dynamics.evolve_numerical.steps", steps)


AFTER_HOOKS = {
    "simulator.apply_op": _after_apply_op,
    "compiler.lower_circuit": _after_lower_circuit,
    "compiler.approximate_fixed_set": _after_fixed_set,
    "dynamics.evolve_numerical": _after_evolve_numerical,
}


def self_times(spans) -> tuple[Counter, Counter]:
    """Per-name call counts and self seconds: a span's duration minus the part
    of its interval that the union of its child spans covers."""
    children: dict[int | None, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    calls, busy = Counter(), Counter()
    for sid, name, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        calls[name] += 1
        busy[name] += (end - start) - covered
    return calls, busy
