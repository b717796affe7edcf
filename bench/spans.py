"""Spans recorded from outside pvreflect by wrapping its public functions.

A wrapper is installed at the module attribute that the caller looks up.
``from .pathcore import variation_norm`` binds the name inside the importing
module, so the span around the p-variation DP called from the Euler scheme is
installed as ``pvreflect.sde.variation_norm``, not only in ``pathcore``.

Each op gets a fresh root span named ``cli``.  Spans opened on a thread with
an empty stack (the ``ThreadPoolExecutor`` worker used by ``simulate
--replicates``) take that root as their parent.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import threading
import time

import numpy as np


@dataclasses.dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    #: work done inside the span: window points for the DP, driver points for
    #: fBm sampling, scheme steps for Euler runs
    work: int = 0
    #: DP cells for p-variation spans
    cells: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def parent_name(self) -> str | None:
        return self.parent.name if self.parent is not None else None


def _pvar_work(span: Span, result, path, p, window=None, include_right=True):
    if window is None:
        a, b = 0.0, path.end_time
    elif hasattr(window, "a"):
        a, b = window.a, window.b
    else:
        a, b = float(window[0]), float(window[1])
    if b <= a:
        m = 1
    else:
        times = path.times
        upper = np.searchsorted(times, b, side="right" if include_right else "left")
        m = 1 + max(int(upper) - int(np.searchsorted(times, a, side="right")), 0)
    span.work = m
    # p = 1 takes the triangle-equality shortcut, one cell per increment
    span.cells = m - 1 if float(p) == 1.0 else m * (m - 1) // 2


def _fbm_work(span: Span, result, spec, *args, **kwargs):
    span.work = int(spec.steps) + 1


def _euler_work(span: Span, result, *args, **kwargs):
    span.work = int(result.diagnostics["steps"])


#: (module, attribute the caller looks up, span name, work recorder)
PATCHES = (
    ("pvreflect.sde", "variation_norm", "pathcore.pvar", _pvar_work),
    ("pvreflect.skorokhod", "variation_norm", "pathcore.pvar", _pvar_work),
    ("pvreflect.young", "variation_norm", "pathcore.pvar", _pvar_work),
    ("pvreflect.young", "p_variation", "pathcore.pvar", _pvar_work),
    ("pvreflect.campaigns", "p_variation", "pathcore.pvar", _pvar_work),
    ("pvreflect.cli", "p_variation", "pathcore.pvar", _pvar_work),
    ("pvreflect.pathcore", "align", "pathcore.align", None),
    ("pvreflect.skorokhod", "align", "pathcore.align", None),
    ("pvreflect.campaigns", "align", "pathcore.align", None),
    ("pvreflect.cli", "euler_adaptive", "sde.euler", _euler_work),
    ("pvreflect.cli", "euler_uniform", "sde.euler", _euler_work),
    ("pvreflect.sde", "euler_adaptive", "sde.euler", _euler_work),
    ("pvreflect.cli", "solve", "sde.solve", None),
    ("pvreflect.cli", "solution_gap", "sde.solution_gap", None),
    ("pvreflect.sde", "solution_gap", "sde.solution_gap", None),
    ("pvreflect.cli", "sample_fbm", "drivers.sample_fbm", _fbm_work),
    ("pvreflect.presets", "sample_fbm", "drivers.sample_fbm", _fbm_work),
    ("pvreflect.presets", "build_zh", "drivers.build_zh", None),
    ("pvreflect.cli", "build_problem", "presets.build_problem", None),
    ("pvreflect.skorokhod", "solve_sp", "skorokhod.solve_sp", None),
    ("pvreflect.campaigns", "check_estimates", "skorokhod.check_estimates", None),
    ("pvreflect.young", "rs_integral", "young.rs_integral", None),
    ("pvreflect.campaigns", "young_bound_check", "young.young_bound_check", None),
    ("pvreflect.campaigns", "running_max_contraction_campaign",
     "campaigns.running_max_contraction", None),
    ("pvreflect.campaigns", "reflection_estimates_campaign",
     "campaigns.reflection_estimates", None),
    ("pvreflect.campaigns", "stieltjes_bound_campaign",
     "campaigns.stieltjes_bound", None),
)

_CAMPAIGNS = ("running_max_contraction", "reflection_estimates", "stieltjes_bound")


class Tracer:
    """Installs the wrappers and collects the spans of one op at a time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.root: Span | None = None
        self.spans: list[Span] = []
        self.coeff_calls = itertools.count()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, work in PATCHES:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(name, func, work))
        presets = importlib.import_module("pvreflect.presets")
        factory = presets.coefficient_preset
        self._saved.append((presets, "coefficient_preset", factory))
        presets.coefficient_preset = self._counting_coefficients(factory)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)

    def _wrap(self, name, func, work):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            span = Span(name, parent, 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    with tracer._lock:
                        parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if work is not None:
                work(span, result, *args, **kwargs)
            return result

        return wrapper

    def _counting_coefficients(self, factory):
        tracer = self

        def counted(func):
            def call(x):
                next(tracer.coeff_calls)
                return func(x)
            return call

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            coeffs = factory(*args, **kwargs)
            return dataclasses.replace(coeffs, f=counted(coeffs.f), g=counted(coeffs.g))

        return wrapper

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- one op --------------------------------------------------------------

    def begin_op(self) -> None:
        self.spans = []
        self.coeff_calls = itertools.count()
        self.root = Span("cli", None, time.perf_counter())
        self._stack().append(self.root)

    def end_op(self) -> None:
        self.root.end = time.perf_counter()
        self._stack().pop()

    def op_metrics(self, bytes_out: int, zeta_hits: int, zeta_misses: int) -> dict:
        """Per-layer metrics of the op just ended."""
        groups: dict[str, list[Span]] = {}
        for span in self.spans:
            groups.setdefault(span.name, []).append(span)

        def spans(name):
            return groups.get(name, [])

        def self_s(name):
            return sum((s.self_s for s in spans(name)), 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        pvar = spans("pathcore.pvar")
        euler = spans("sde.euler")
        cells = sum(s.cells for s in pvar)
        steps = sum(s.work for s in euler)
        # the vbar_p_x DP of every Euler run is computed; only the runs that
        # reach the CLI (not an intermediate level of solve) return it
        dps_computed = sum(s.parent_name == "sde.euler" for s in pvar)
        dps_returned = sum(s.parent_name == "cli" for s in euler + spans("sde.solve"))
        out = {
            "pathcore.pvar.calls": len(pvar),
            "pathcore.pvar.points": sum(s.work for s in pvar),
            "pathcore.pvar.cells": cells,
            "pathcore.pvar.self_s": self_s("pathcore.pvar"),
            "pathcore.pvar.ns_per_cell": ratio(self_s("pathcore.pvar") * 1e9, cells),
            "pathcore.align.self_s": self_s("pathcore.align"),
            "sde.euler.calls": len(euler),
            "sde.steps": steps,
            "sde.euler.self_s": self_s("sde.euler"),
            "sde.us_per_step": ratio(self_s("sde.euler") * 1e6, steps),
            "sde.coeff_calls": next(self.coeff_calls),
            "sde.solve.levels": sum(s.parent_name == "sde.solve" for s in euler),
            "sde.solution_gap.self_s": self_s("sde.solution_gap"),
            "sde.diag_useful_ratio": ratio(dps_returned, dps_computed),
            "drivers.sample_fbm.calls": len(spans("drivers.sample_fbm")),
            "drivers.sample_fbm.points": sum(s.work for s in spans("drivers.sample_fbm")),
            "drivers.sample_fbm.self_s": self_s("drivers.sample_fbm"),
            "drivers.build_zh.self_s": self_s("drivers.build_zh"),
            "presets.build_problem.self_s": self_s("presets.build_problem"),
            "skorokhod.solve_sp.self_s": self_s("skorokhod.solve_sp"),
            "skorokhod.check_estimates.self_s": self_s("skorokhod.check_estimates"),
            "young.rs_integral.self_s": self_s("young.rs_integral"),
            "young.young_bound_check.self_s": self_s("young.young_bound_check"),
            "young.zeta.hit_ratio": ratio(zeta_hits, zeta_hits + zeta_misses),
            "cli.self_s": self.root.self_s,
            "cli.bytes_out": bytes_out,
        }
        for campaign in _CAMPAIGNS:
            out[f"campaigns.{campaign}.self_s"] = self_s(f"campaigns.{campaign}")
        return out
