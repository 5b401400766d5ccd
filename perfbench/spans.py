"""Spans and counters recorded around fieldosc's layer functions, from outside.

`Tracer.install` replaces every module-level name (and every value of a
module-level dict, such as cli's mode dispatch table) in `fieldosc.*` that
refers to a target function with a recording wrapper, so calls through
`from .x import f` aliases are seen too; `uninstall` puts the originals
back.  Nothing under `src/` is edited.  Spans stay in memory with a link to
the span that was open when they started; worker-pool tasks inherit the
span that submitted them.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from time import perf_counter

# Spans a pass opens around the program that attribute time to no layer;
# their self time is the part of the pass the layer spans leave uncovered.
ENTRY_SPANS = ("pass", "cli.run")

# numpy.fft's complex and real transforms, so switching between them stays counted.
_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn")


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end=None, parent=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = []
    for s in spans:
        kids = children.get(id(s), ())
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in kids]
        out.append((s.end - s.start) - covered_length(clipped))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._counter_dicts: list[dict] = []
        self._lock = threading.Lock()
        self._restore: list = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, perf_counter(), parent=stack[-1])
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name: str, n=1) -> None:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._lock:
                self._counter_dicts.append(counters)
        counters[name] = counters.get(name, 0) + n

    def counters(self) -> dict:
        merged: dict = {}
        for counters in self._counter_dicts:
            for name, n in counters.items():
                merged[name] = merged.get(name, 0) + n
        return merged

    # -- wrappers ----------------------------------------------------

    def timed(self, name, fn, before=None, after=None):
        """Wrap fn in a span; `before(bound_args)` may return a span name
        suffix and replacement arguments, `after(bound_args, result)` counts."""
        sig = inspect.signature(fn) if (before or after) else None

        def wrapper(*args, **kwargs):
            span_name = name
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    span_name = before(bound) or name
                args, kwargs = bound.args, bound.kwargs
            span = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, holder, key, value) -> None:
        """Set holder[key] (a dict) or holder.key, remembering the old value."""
        if isinstance(holder, dict):
            old = holder[key]
            self._restore.append(lambda: holder.__setitem__(key, old))
            holder[key] = value
        else:
            old = getattr(holder, key)
            self._restore.append(lambda: setattr(holder, key, old))
            setattr(holder, key, value)

    def _replace(self, original, replacement) -> None:
        """Point every fieldosc module-level reference to `original`, and
        every such value of a module-level dict, at `replacement`."""
        for modname, module in list(sys.modules.items()):
            if modname != "fieldosc" and not modname.startswith("fieldosc."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)
                elif isinstance(value, dict) and key != "__builtins__":
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, replacement)

    def _patch(self, holder, attr, make) -> None:
        original = getattr(holder, attr, None)
        if original is None:
            self.missing.append(f"{getattr(holder, '__name__', '?')}.{attr}")
            return
        replacement = make(original)
        self._set(holder, attr, replacement)
        self._replace(original, replacement)

    def install(self) -> None:
        import numpy.fft
        from fieldosc import classical, cli, core, quantum, tdfields

        self.missing = []
        t = self
        p = self._patch

        def rk4_before(b):
            inner = b.arguments["hamiltonian"]
            b.arguments["hamiltonian"] = t.counted("classical.h_evals", inner)

        def rk4_after(b, result):
            if isinstance(result, tuple):
                steps = len(result[0]) - 1
            else:
                a = b.arguments
                steps = max(1, int(round(a["t"] / a["dt"])))
            t.count("classical.rk4_steps", steps)

        p(classical, "rk4_hamiltonian_flow",
          lambda f: t.timed("classical.rk4", f, rk4_before, rk4_after))
        p(classical, "_forced_path_on", lambda f: t.timed(
            "classical.forced_path", f,
            after=lambda b, r: t.count("classical.forced_path_samples", len(b.arguments["times"]))))
        p(classical, "symplectic_defect", lambda f: t.timed("classical.symplectic", f))
        p(core, "cumulative_simpson", lambda f: t.timed("core.cumulative_simpson", f))
        p(core, "cross_matrix", lambda f: t.counted("core.cross_matrix_calls", f))

        def split_kind(b):
            ham = b.arguments["ham"]
            if ham.rotation_rate != 0.0:
                return "quantum.split_step.planar"
            return "quantum.split_step.driven" if ham.drive is not None else "quantum.split_step.oscillator"

        def split_after(b, result):
            a = b.arguments
            t.count(split_kind(b) + ".steps", max(1, int(round(a["t"] / a["dt"]))))

        p(quantum, "split_step_evolve", lambda f: t.timed("quantum.split_step", f, split_kind, split_after))
        p(quantum, "unitary_rotation", lambda f: t.timed("quantum.unitary_maps", f))
        p(quantum, "unitary_moving_origin", lambda f: t.timed("quantum.unitary_maps", f))
        p(quantum, "rotated_product_coefficients", lambda f: t.timed("quantum.expansion", f))
        p(getattr(quantum, "_RotationPlan", None), "apply",
          lambda f: t.timed("quantum.rotation_apply", f))

        for attr in _FFT_NAMES:
            p(numpy.fft, attr, self._fft_counter)

        def monodromy_before(b):
            inner = b.arguments["omega_sq_values"]
            b.arguments["omega_sq_values"] = t.counted("tdfields.omega_sq_evals", inner)

        def monodromy_after(b, result):
            rows = max(1, result.size // 4)
            t.count("tdfields.monodromy_row_steps", rows * b.arguments["n_steps"])
            if rows == 1:
                t.count("tdfields.monodromy_batch1_calls")

        p(tdfields, "_monodromy_matrices",
          lambda f: t.timed("tdfields.monodromy", f, monodromy_before, monodromy_after))
        p(tdfields, "accumulated_rotation", lambda f: t.timed("tdfields.accumulated_rotation", f))
        p(tdfields, "corotating_reduction", lambda f: t.timed("tdfields.reduction", f))
        p(tdfields, "coriolis_elimination", lambda f: t.timed("tdfields.reduction", f))

        p(cli, "parse_scenario", lambda f: t.timed("cli.parse", f))
        p(cli, "_write_csv", self._csv_writer)
        for mode, runner in getattr(cli, "_RUNNERS", {}).items():
            self._replace(runner, t.timed(f"cli.pipeline.{mode}", runner))
        p(cli, "ThreadPoolExecutor", self._pool_class)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _fft_counter(self, fn):
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.count("quantum.fft_calls")
            self.count("quantum.fft_points", out.size)
            self.count("quantum.fft_bytes_computed", getattr(a, "nbytes", 0) + out.nbytes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _csv_writer(self, fn):
        def wrapper(path, header, rows):
            written = 0

            def counted_rows():
                nonlocal written
                for row in rows:
                    written += 1
                    yield row

            span = self.open("cli.csv_write")
            try:
                fn(path, header, counted_rows())
            finally:
                self.close(span)
            self.count("cli.csv_rows", written)
            self.count("cli.csv_bytes", os.path.getsize(path))

        wrapper.__wrapped__ = fn
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._opened = perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                submitted = perf_counter()
                parent = tracer._stack()[-1]

                def task():
                    started = perf_counter()
                    tracer.count("cli.pool_queue_wait_s", started - submitted)
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()
                        tracer.count("cli.pool_busy_s", perf_counter() - started)

                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer.count("cli.pool_capacity_s", self._max_workers * (perf_counter() - self._opened))

        return TracedPool


def _busy_by_name(spans) -> dict:
    """Summed duration per span name, not counting a span nested in one of
    the same name."""
    busy: dict = {}
    for s in spans:
        p = s.parent
        while p is not None and p.name != s.name:
            p = p.parent
        if p is None:
            busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
    return busy


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, modes, traced_walls, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced pass, from spans and counters recorded
    over the traced passes whose wall times are `traced_walls`."""
    n = len(traced_walls)
    spans = tracer.spans
    busy = _busy_by_name(spans)
    calls: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    selfs = self_times(spans)
    self_by_name: dict = {}
    for s, st in zip(spans, selfs):
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + st
    c = tracer.counters()

    def per_pass(x):
        return x / n

    m = {
        "classical.rk4_s": per_pass(busy.get("classical.rk4", 0.0)),
        "classical.rk4_steps": per_pass(c.get("classical.rk4_steps", 0)),
        "classical.rk4_us_per_step": 1e6 * _ratio(busy.get("classical.rk4", 0.0), c.get("classical.rk4_steps", 0)),
        "classical.h_evals": per_pass(c.get("classical.h_evals", 0)),
        "classical.forced_path_s": per_pass(busy.get("classical.forced_path", 0.0)),
        "classical.forced_path_calls": per_pass(calls.get("classical.forced_path", 0)),
        "classical.forced_path_samples": per_pass(c.get("classical.forced_path_samples", 0)),
        "classical.symplectic_s": per_pass(busy.get("classical.symplectic", 0.0)),
        "core.cumulative_simpson_s": per_pass(busy.get("core.cumulative_simpson", 0.0)),
        "core.cumulative_simpson_calls": per_pass(calls.get("core.cumulative_simpson", 0)),
        "core.cross_matrix_calls": per_pass(c.get("core.cross_matrix_calls", 0)),
    }
    for kind in ("oscillator", "driven", "planar"):
        name = f"quantum.split_step.{kind}"
        m[f"quantum.split_step_s.{kind}"] = per_pass(busy.get(name, 0.0))
        m[f"quantum.split_step_ms_per_step.{kind}"] = 1e3 * _ratio(busy.get(name, 0.0), c.get(name + ".steps", 0))
    m.update({
        "quantum.fft_calls": per_pass(c.get("quantum.fft_calls", 0)),
        "quantum.fft_points": per_pass(c.get("quantum.fft_points", 0)),
        "quantum.fft_bytes_computed": per_pass(c.get("quantum.fft_bytes_computed", 0)),
        "quantum.rotation_apply_s": per_pass(busy.get("quantum.rotation_apply", 0.0)),
        "quantum.rotation_apply_calls": per_pass(calls.get("quantum.rotation_apply", 0)),
        "quantum.unitary_maps_s": per_pass(busy.get("quantum.unitary_maps", 0.0)),
        "quantum.expansion_s": per_pass(busy.get("quantum.expansion", 0.0)),
        "tdfields.monodromy_s": per_pass(busy.get("tdfields.monodromy", 0.0)),
        "tdfields.monodromy_calls": per_pass(calls.get("tdfields.monodromy", 0)),
        "tdfields.monodromy_batch1_calls": per_pass(c.get("tdfields.monodromy_batch1_calls", 0)),
        "tdfields.monodromy_row_steps": per_pass(c.get("tdfields.monodromy_row_steps", 0)),
        "tdfields.monodromy_ns_per_row_step": 1e9 * _ratio(
            busy.get("tdfields.monodromy", 0.0), c.get("tdfields.monodromy_row_steps", 0)),
        "tdfields.omega_sq_evals": per_pass(c.get("tdfields.omega_sq_evals", 0)),
        "tdfields.accumulated_rotation_s": per_pass(busy.get("tdfields.accumulated_rotation", 0.0)),
        "tdfields.reduction_s": per_pass(busy.get("tdfields.reduction", 0.0)),
    })
    for mode in modes:
        m[f"cli.pipeline_self_s.{mode}"] = per_pass(self_by_name.get(f"cli.pipeline.{mode}", 0.0))
    csv_s = busy.get("cli.csv_write", 0.0)
    m.update({
        "cli.csv_write_s": per_pass(csv_s),
        "cli.csv_rows": per_pass(c.get("cli.csv_rows", 0)),
        "cli.csv_bytes": per_pass(c.get("cli.csv_bytes", 0)),
        "cli.csv_us_per_row": 1e6 * _ratio(csv_s, c.get("cli.csv_rows", 0)),
        "cli.parse_s": per_pass(busy.get("cli.parse", 0.0)),
        "cli.pool_queue_wait_s": per_pass(c.get("cli.pool_queue_wait_s", 0.0)),
        "cli.pool_busy_ratio": _ratio(c.get("cli.pool_busy_s", 0.0), c.get("cli.pool_capacity_s", 0.0)),
        "trace_overhead_ratio": overhead_ratio,
        "trace_uncovered_share": _ratio(
            sum(self_by_name.get(name, 0.0) for name in ENTRY_SPANS), sum(traced_walls)),
    })
    return m

