"""Spans around the program's layer functions, installed from outside ``src/``.

Each hook replaces a name in the module that *calls* it (``graphres.cli``
binds its own ``find_zeros``, ``graphres.weyl`` its own, and so on), so a
span records who asked for the work.  Spans hold name, start, end, parent
span and operation id, stay in memory, and are written out when the run
ends.  A hook target that no longer exists, or a layer the workload must
reach that records no call, is an error: a refactor must break the tracer
visibly rather than report silent zeros.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

HOOKS = (
    ("graphres.cli", "load_graph"),
    ("graphres.cli", "build_bond_system"),
    ("graphres.cli", "find_zeros"),
    ("graphres.cli", "sweep"),
    ("graphres.cli", "count_report"),
    ("graphres.cli", "counting_function"),
    ("graphres.weyl", "find_zeros"),
    ("graphres.weyl", "counting_function"),
    ("graphres.zeros", "find_zeros"),
    ("graphres.zeros", "secular_many"),
    ("graphres.zeros", "log_derivative"),
    ("graphres.sweep", "det_smatrix_modulus"),
    ("graphres.scattering", "smatrix_many"),
)

# layers each workload exists to exercise; zero calls there is an error
REQUIRED = {
    "fixtures-band": ("cli.build_bond_system", "cli.find_zeros", "cli.sweep",
                      "zeros.secular_many", "scattering.smatrix_many"),
    "fixtures-classify": ("cli.count_report", "zeros.secular_many"),
    "generated-large": ("cli.load_graph", "cli.build_bond_system", "cli.find_zeros",
                        "cli.sweep", "zeros.secular_many", "scattering.smatrix_many"),
}

_POINT_ARGS = {"secular_many": 1, "smatrix_many": 1, "det_smatrix_modulus": 1}

# every per-layer metric of a traced run, with its unit; per pass unless a ratio
LAYER_UNITS = {
    "scattering.secular_calls": "count",
    "scattering.secular_points": "count",
    "scattering.secular_points_per_call": "count",
    "scattering.secular_s": "s",
    "scattering.secular_us_per_point": "us",
    "scattering.probe_call_overhead_us": "us",
    "scattering.probe_us_per_point": "us",
    "scattering.probe_smatrix_call_overhead_us": "us",
    "scattering.probe_smatrix_us_per_point": "us",
    "scattering.det_flops_per_point": "flop",
    "scattering.matrix_bytes_per_point": "B",
    "scattering.log_derivative_calls": "count",
    "scattering.log_derivative_s": "s",
    "scattering.smatrix_points": "count",
    "scattering.smatrix_s": "s",
    "scattering.smatrix_us_per_point": "us",
    "scattering.build_s": "s",
    "graphio.parse_s": "s",
    "zeros.find_zeros_calls": "count",
    "zeros.find_zeros_s": "s",
    "zeros.self_s": "s",
    "zeros.zeros_located": "count",
    "zeros.secular_points_per_zero": "count",
    "zeros.log_derivative_calls_per_zero": "count",
    "zeros.counting_s": "s",
    "zeros.counting_points": "count",
    "weyl.count_report_s": "s",
    "weyl.self_s": "s",
    "weyl.find_zeros_calls_per_report": "count",
    "sweep.sweep_s": "s",
    "sweep.samples": "count",
    "sweep.refine_calls": "count",
    "sweep.dips_per_band_zero": "ratio",
    "cli.find_zeros_calls_per_sweep": "count",
    "cli.resonances_s": "s",
    "cli.sweep_s": "s",
    "cli.classify_s": "s",
    "trace.overhead_ratio": "ratio",
}


class TracerError(RuntimeError):
    """A hook target is missing or a required layer was never reached."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 for an operation's root
    op: int
    points: int = 0    # batch size of a kernel call
    found: int = 0     # zeros returned by find_zeros, dips by sweep


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _originals: dict = field(default_factory=dict)
    _op: int = -1

    def __post_init__(self):
        for module_name, attr in HOOKS:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                raise TracerError(f"hook target {module_name}.{attr} no longer exists")
            self._originals[(module_name, attr)] = getattr(module, attr)

    def _wrap(self, name: str, attr: str, fn):
        point_arg = _POINT_ARGS.get(attr)

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self._op)
            if point_arg is not None and len(args) > point_arg:
                span.points = int(np.size(args[point_arg]))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if attr == "find_zeros":
                span.found = len(result)
            elif attr == "sweep":
                span.found = len(result.dips)
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int, command: str):
        """Hooks are live only inside one CLI operation, so checks stay untraced."""
        self._op = op_id
        modules = {}
        for (module_name, attr), fn in self._originals.items():
            module = modules.setdefault(module_name, importlib.import_module(module_name))
            short = module_name.split(".")[-1]
            setattr(module, attr, self._wrap(f"{short}.{attr}", attr, fn))
        root = Span(f"op.{command}", time.perf_counter(), 0.0, -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            for (module_name, attr), fn in self._originals.items():
                setattr(modules[module_name], attr, fn)

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.points, s.found] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "points", "found"],
                       "spans": rows}, fh)


def layer_metrics(spans: list, passes: int, sweep_band_zeros: int) -> dict:
    """Per-pass layer counts and seconds from the spans of ``passes`` traced passes.

    ``sweep_band_zeros`` is the number of zeros in the bands of all traced
    sweeps, from the correctness check's expectations.
    """
    dur = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += dur[i]

    def ancestor(i: int, prefix: str) -> bool:
        i = spans[i].parent
        while i >= 0:
            if spans[i].name.startswith(prefix):
                return True
            i = spans[i].parent
        return False

    def sel(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def total(idx, what=None):
        return sum(dur[i] if what is None else getattr(spans[i], what) for i in idx)

    secular = sel("zeros.secular_many")
    logd = sel("zeros.log_derivative")
    smat = sel("scattering.smatrix_many")
    fz = sel("cli.find_zeros", "weyl.find_zeros", "zeros.find_zeros")
    counting = sel("cli.counting_function", "weyl.counting_function")
    reports = sel("cli.count_report")
    sweeps = sel("cli.sweep")
    det_s = [i for i in sel("sweep.det_smatrix_modulus") if ancestor(i, "cli.sweep")]
    sweep_ops = sel("op.sweep")
    sec_pts = total(secular, "points")
    located = total(fz, "found")
    n = float(passes)

    def per(a, b):
        return a / b if b else 0.0

    m = {
        "scattering.secular_calls": len(secular) / n,
        "scattering.secular_points": sec_pts / n,
        "scattering.secular_points_per_call": per(sec_pts, len(secular)),
        "scattering.secular_s": total(secular) / n,
        "scattering.secular_us_per_point": 1e6 * per(total(secular), sec_pts),
        "scattering.log_derivative_calls": len(logd) / n,
        "scattering.log_derivative_s": total(logd) / n,
        "scattering.smatrix_points": total(smat, "points") / n,
        "scattering.smatrix_s": total(smat) / n,
        "scattering.smatrix_us_per_point": 1e6 * per(total(smat), total(smat, "points")),
        "scattering.build_s": total(sel("cli.build_bond_system")) / n,
        "graphio.parse_s": total(sel("cli.load_graph")) / n,
        "zeros.find_zeros_calls": len(fz) / n,
        "zeros.find_zeros_s": total(fz) / n,
        "zeros.self_s": sum(dur[i] - child_time[i] for i in fz) / n,
        "zeros.zeros_located": located / n,
        "zeros.secular_points_per_zero": per(sec_pts, located),
        "zeros.log_derivative_calls_per_zero": per(len(logd), located),
        "zeros.counting_s": total(counting) / n,
        "zeros.counting_points": sum(spans[i].points for i in secular
                                     if ancestor(i, "cli.counting_function")
                                     or ancestor(i, "weyl.counting_function")) / n,
        "weyl.count_report_s": total(reports) / n,
        "weyl.self_s": sum(dur[i] - child_time[i] for i in reports) / n,
        "weyl.find_zeros_calls_per_report": per(
            sum(1 for i in fz if ancestor(i, "cli.count_report")), len(reports)),
        "sweep.sweep_s": total(sweeps) / n,
        "sweep.samples": total(det_s, "points") / n,
        "sweep.refine_calls": (len(det_s) - len(sweeps)) / n,
        "sweep.dips_per_band_zero": per(total(sweeps, "found"), sweep_band_zeros),
        "cli.find_zeros_calls_per_sweep": per(
            sum(1 for i in sel("cli.find_zeros") if ancestor(i, "op.sweep")), len(sweep_ops)),
    }
    for command in ("resonances", "sweep", "classify"):
        m[f"cli.{command}_s"] = total(sel(f"op.{command}")) / n
    return m


def check_required(workload: str, spans: list) -> None:
    reached = {s.name for s in spans}
    missing = [name for name in REQUIRED[workload] if name not in reached]
    if missing:
        raise TracerError(f"{workload}: required layers recorded no calls: {', '.join(missing)}")
