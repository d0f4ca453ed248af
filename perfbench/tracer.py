"""Run-time span tracing of the mppa modules, installed from outside.

`Tracer.installed()` replaces every public function of the traced modules
with a wrapper that opens a span, in the defining module and in every
other mppa module that imported the same object by name (so the calls
`cli` and `oracle` make through their imports are seen).  It also wraps
`ResolventOperator.resolvent` and replaces `EvalState` with a subclass that
logs each budgeted evaluation, so tick counts are read from the states the
calls create.  Leaving the context restores every original object.

Spans are reduced when they close, to per-name totals: call count,
inclusive time of the outermost call of that name, and self time (the
span's duration minus the time its child spans cover).  A run_sweep pass
opens about 300 thousand spans, too many to keep one record each.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("config", "operators", "schedules", "iteration", "countfn",
          "bounds", "oracle", "cli")


class _Totals:
    __slots__ = ("calls", "inclusive", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Span totals, evaluation states and bound outcomes of one traced
    stretch of work."""

    def __init__(self):
        self.totals: dict = {}
        self.states: list = []
        self.outcomes: Counter = Counter()   # (outcome, stage) -> count
        self.outcome_time: Counter = Counter()  # outcome -> seconds
        self.steps = 0
        self._stack: list = []
        self._bounds_depth = 0

    # --- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn, layer: str):
        totals = self.totals.setdefault(name, _Totals())
        stack = self._stack
        is_bound = layer == "bounds"
        is_run = name == "iteration.run"
        is_suite = name == "oracle.run_suite"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = totals
            if is_suite:
                lemma = args[0] if args else kwargs["lemma"]
                entry = tracer.totals.setdefault(f"{name}[{lemma}]", _Totals())
            outer_bound = is_bound and tracer._bounds_depth == 0
            if is_bound:
                tracer._bounds_depth += 1
            first_state = len(tracer.states)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            entry.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                entry.depth -= 1
                if is_bound:
                    tracer._bounds_depth -= 1
                duration = end - frame[0]
                entry.calls += 1
                entry.self_time += duration - frame[1]
                if entry.depth == 0:
                    entry.inclusive += duration
                if stack:
                    stack[-1][1] += duration
            if outer_bound:
                tracer._classify(result, first_state, frame[0], end)
            elif is_run:
                tracer.steps += result.horizon
            return result

        return wrapper

    def _classify(self, result, first_state: int, start: float,
                  end: float) -> None:
        """Label each BoundValue an outermost bounds call returned: exact,
        capped (the call cap tripped inside a loop) or early (magnitude cap
        or a loop refused up front), with the time of its evaluation."""
        values = result if isinstance(result, tuple) else (result,)
        values = [v for v in values if isinstance(v, self._bound_value)]
        states = self.states[first_state:]
        if not values or len(states) < len(values):
            return
        states = states[len(states) - len(values):]
        for i, (value, state) in enumerate(zip(values, states)):
            born = start if i == 0 else state.born
            died = states[i + 1].born if i + 1 < len(states) else end
            if value.is_exact:
                outcome, stage = "exact", ""
            elif state.calls > state.max_calls:
                outcome, stage = "capped", value.stage
            else:
                outcome, stage = "early", value.stage
            self.outcomes[(outcome, stage)] += 1
            self.outcome_time[outcome] += died - born

    # --- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the program for the duration of the block."""
        modules = {layer: importlib.import_module(f"mppa.{layer}")
                   for layer in LAYERS}
        extra = [importlib.import_module("mppa")]
        everywhere = list(modules.values()) + extra
        self._bound_value = modules["countfn"].BoundValue
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        def patch_everywhere(original, new):
            for mod in everywhere:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, alias, new)

        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                patch_everywhere(fn, self._wrap(f"{layer}.{fname}", fn, layer))

        operators = modules["operators"]
        resolvent = operators.ResolventOperator.resolvent
        patch(operators.ResolventOperator, "resolvent",
              self._wrap("operators.resolvent", resolvent, "operators"))

        base = modules["countfn"].EvalState
        log = self.states

        class LoggedState(base):
            __slots__ = ("born",)

            def __init__(self, budget=None):
                base.__init__(self, budget)
                self.born = perf_counter()
                log.append(self)

        patch_everywhere(base, LoggedState)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # --- reading ------------------------------------------------------------

    def inclusive(self, *names: str) -> float:
        return sum(self.totals[n].inclusive for n in names if n in self.totals)

    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry.calls if entry else 0

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, entry in self.totals.items():
            out[name.split(".", 1)[0]] += entry.self_time
        return out

    def ticks(self) -> int:
        return sum(state.calls for state in self.states)

    def table(self) -> dict:
        """Per-span totals, for writing out when the run ends."""
        return {name: {"calls": e.calls, "inclusive_s": e.inclusive,
                       "self_s": e.self_time}
                for name, e in sorted(self.totals.items()) if e.calls}
