"""Call-boundary hooks: step capture for every run, spans for traced runs.

The hooks wrap public entry points by rebinding the module attributes that
their callers look up at call time (``simulation.step``,
``orchestrator.attempt_selection``, ``selection.solve`` and so on). Nothing
in the package is edited; leaving ``Recorder.installed()`` restores every
attribute.

A span is ``[name, start, end, parent, step]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``step`` is the index of the
orchestrator step that was running (-1 outside steps). Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import coinlever.orchestrator as orchestrator
import coinlever.selection as selection
import coinlever.simulation as simulation

# (module, attribute, span name). The attribute is rebound in the module
# whose code calls it, so each wrapper sits exactly at that call site.
TRACED = (
    (simulation, "sample_utxo_pool", "simulation.sample"),
    (simulation, "sample_payments", "simulation.sample"),
    (orchestrator, "attempt_selection", "selection.attempt"),
    (orchestrator, "apply_update", "orchestrator.apply_update"),
    (selection, "BlpProblem", "blp.build"),
    (selection, "solve", "blp.solve"),
    (selection, "opt", "model.opt"),
    (selection, "fallback_select", "selection.fallback"),
)


@dataclass
class StepCall:
    """One ``orchestrator.step`` call as seen from ``simulation``."""

    seconds: float
    args: tuple  # the arguments after the world state
    kwargs: dict
    record: Any = None
    error: BaseException | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Recorder:
    """Collects step calls and, when ``traced``, spans at every boundary.

    ``check(state_before, state_after, record, *args)`` runs after each
    completed step, outside its timing, and returns the step's problems. So
    that no world state outlives its step, checks run inline. ``idle()``,
    when given, runs right after each check. ``paused_s`` adds up the time
    of both for the caller to take out of its wall time.
    """

    traced: bool
    check: Callable[..., list[str]]
    idle: Callable[[], None] | None = None
    steps: list[StepCall] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    paused_s: float = 0.0
    _open: list[int] = field(default_factory=list)
    _step_id: int = -1

    def span(self, name: str):
        """Context manager recording one span; a no-op when not traced."""
        if not self.traced:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._step_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""

        def wrapper(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _step_wrapper(self, fn):
        def step(state, *args, **kwargs):
            call = StepCall(0.0, args, kwargs)
            self._step_id = len(self.steps)
            try:
                with self.span("orchestrator.step"):
                    start = time.perf_counter()
                    try:
                        after, call.record = fn(state, *args, **kwargs)
                    except BaseException as exc:
                        call.error = exc
                        raise
                    finally:
                        call.seconds = time.perf_counter() - start
            finally:
                self._step_id = -1
                self.steps.append(call)
            start = time.perf_counter()
            call.problems = self.check(state, after, call.record, *args)
            if self.idle is not None:
                self.idle()
            self.paused_s += time.perf_counter() - start
            return after, call.record

        return step

    @contextlib.contextmanager
    def installed(self):
        """Rebind the hooked attributes for the duration of the block."""
        patches = [(simulation, "step", self._step_wrapper(simulation.step))]
        if self.traced:
            patches += [
                (module, attr, self.wrap(name, getattr(module, attr)))
                for module, attr, name in TRACED
            ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def span_cost(calls: int = 2000, repeats: int = 7) -> float:
    """Median seconds one span adds to a call, measured on a no-op."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = Recorder(traced=True, check=None).wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - plain) / calls)
    return statistics.median(costs)
