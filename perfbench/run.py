"""graphres benchmark: one closed-loop client issuing CLI operations in-process.

    python3 perfbench/run.py --workload fixtures-band --seed 1 --seconds 40 --trace 0
    for w in fixtures-band fixtures-classify generated-large; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  A single client calls ``graphres.cli.main([...])`` for
each operation of the workload's pass (see ``workloads.py``), each call only
after the previous one returns, and repeats whole passes while one more
pass still fits in ``--seconds`` (at least one pass).  Every output is
checked outside the timed region (``checks.py``); a failure counts against
the run without stopping it.

``--trace 0`` reports the end-to-end metrics, the same five on every
workload:

* ``setup_s``: a fresh interpreter imports ``graphres.cli``, loads every
  graph of the workload and builds its bond system; median of 7 processes.
* ``solve_s``: median over passes of the time spent in certified-answer
  commands (``resonances`` or ``classify``).
* ``session_s``: median time of one whole pass of the workload's commands.
* ``zeros_per_s``: resonances reported by all commands over their time.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Timings are scaled by an adjacent fixed kernel (see ``Session``).  The
detail record adds wall-clock values, sample counts, per-command p50 (and
p90 where ten samples lie above it), ``failed_ratio`` and the machine.

``--trace 1`` alternates untraced and traced passes (``tracer.py``), probes
the kernels on fixed batches, and reports the per-layer metrics per pass;
its counts repeat exactly for a given seed.  Spans of a traced run go to
``perfbench/_out/``.  Both modes print the detail record and then, as the
last line, the result object.

BLAS threads are pinned before numpy loads, and the setting is recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = "perfbench/_out"
SETUP_RUNS = 7
WARMUP_ARGV = ("resonances", "--fixture", "W1", "--fmin-ghz", "1.0", "--fmax-ghz", "1.2")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SOLVE_COMMANDS = ("resonances", "classify")
PROBE_K = (10.0, 40.0)         # fixed probe wavenumbers, 1/m
PROBE_POINTS = 4096
# per workload: the kernel's matrix size (the median bond count of the
# workload's graphs), its repetitions, and its time on the reference machine
# (a 2-core Intel Xeon VM at its fastest; it measured up to 1.7x slower
# there); scaled latencies are seconds on that machine
KERNEL = {
    "fixtures-band": (14, 12, 0.9e-3),
    "fixtures-classify": (14, 12, 0.9e-3),
    "generated-large": (60, 3, 4.4e-3),
}

SETUP_CODE = """
import json, sys
import graphres.cli
from graphres.fixtures import fixture
from graphres.graphio import load_graph
from graphres.scattering import build_bond_system
for key, path in json.loads(sys.argv[1]):
    build_bond_system(load_graph(path) if path else fixture(key))
"""


def _pin_blas_threads() -> None:
    """One BLAS thread (at most nproc).

    numpy's batched det and solve loop over the small matrices one at a time;
    a second BLAS thread measured slower and noisier on 80-bond graphs.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _call(cli, argv):
    """One CLI operation: (seconds, exit code or error text, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except (Exception, SystemExit):  # a crashed operation is counted as failed
        code = traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, out.getvalue()


class Session:
    """The client: runs passes, checks each output, keeps the tallies.

    A fixed numpy kernel is timed between operations.  Each operation's
    latency is also reported *scaled* to the reference machine, on which the
    kernel takes ``kernel_ref`` seconds, by the mean of the kernel timings
    just before and just after it.  On a shared 2-core host the speed drifts
    by up to +-25% over seconds to minutes, and the adjacent kernel tracks
    much of that drift, so the gated end-to-end timings use the scaled
    values and the detail record keeps the wall-clock ones beside them.
    """

    def __init__(self, cli, checker, workload, kernel, kernel_ref):
        self.cli, self.checker, self.workload = cli, checker, workload
        self.kernel, self.kernel_ref = kernel, kernel_ref
        self.wall = {}           # command -> wall seconds of each successful op
        self.scaled = {}         # command -> scaled seconds of each successful op
        self.passes = []         # per pass: summed wall and scaled seconds, all and solve ops
        self.zeros = 0
        self.attempted = 0
        self.failures = []
        self.sweep_band_zeros = 0
        self.kernel_s = [kernel()]

    def run_pass(self, tracer=None) -> float:
        sums = dict.fromkeys(("wall", "scaled", "solve_wall", "solve_scaled"), 0.0)
        for op in self.workload.ops:
            if tracer is None:
                seconds, code, out = _call(self.cli, op.argv)
            else:
                with tracer.operation(self.attempted, op.command):
                    seconds, code, out = _call(self.cli, op.argv)
                if op.command == "sweep":
                    self.sweep_band_zeros += self.checker.band_zero_count(op)
            self.kernel_s.append(self.kernel())
            speed = self.kernel_ref / statistics.fmean(self.kernel_s[-2:])
            self.attempted += 1
            sums["wall"] += seconds
            sums["scaled"] += seconds * speed
            if op.command in SOLVE_COMMANDS:
                sums["solve_wall"] += seconds
                sums["solve_scaled"] += seconds * speed
            if code != 0:
                problem = f"exit {code}"
            else:
                zeros, problem = self.checker.verdict(op, out)
                self.zeros += zeros
            if problem is None:
                self.wall.setdefault(op.command, []).append(seconds)
                self.scaled.setdefault(op.command, []).append(seconds * speed)
            else:
                self.failures.append(f"graphres {' '.join(op.argv)}: {problem}")
        self.passes.append(sums)
        return sums["wall"]


def _command_metrics(session) -> dict:
    """Per-command p50, plus p90 where at least ten samples lie above it."""
    out = {}
    for command, values in sorted(session.scaled.items()):
        wall = session.wall[command]
        out[f"{command}_p50_s"] = {"value": statistics.median(values), "unit": "s",
                                   "samples": len(values), "wall": statistics.median(wall)}
        if len(values) >= 100:
            out[f"{command}_p90_s"] = {"value": statistics.quantiles(values, n=10)[-1],
                                       "unit": "s", "samples": len(values),
                                       "wall": statistics.quantiles(wall, n=10)[-1]}
    out["failed_ratio"] = {"value": len(session.failures) / session.attempted,
                           "unit": "fraction", "samples": session.attempted}
    return out


def _setup_seconds(workload, kernel, kernel_ref) -> tuple[list[float], list[float]]:
    """Wall and scaled seconds of fresh processes that import and build the graphs."""
    graphs = json.dumps([[g.key, g.path] for g in workload.graphs])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    wall, scaled = [], []
    before = kernel()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE, graphs], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - start)
        after = kernel()
        scaled.append(wall[-1] * kernel_ref / statistics.fmean((before, after)))
        before = after
    return wall, scaled


def _kernel(np, n: int, reps: int):
    """The fixed numpy kernel, best of three runs.

    ``reps`` small batched secular-style evaluations: 16 phase vectors, a
    16 x n x n complex ``I - e^{ikL} Sigma`` batch, its dets and their phase
    steps.  It mixes per-call overhead and matrix arithmetic as the solver
    does.  Sized like the workload's graphs, it tracked the solver's speed
    best on a 2-core Intel Xeon VM: block-to-block variation of the scaled
    latency was 3% (14 bonds) and 5% (60 bonds), against 16% and 12%
    unscaled.
    """
    rng = np.random.default_rng(0)
    sigma = rng.standard_normal((n, n))
    lengths = rng.uniform(0.1, 0.3, n)
    eye = np.eye(n)
    ks = np.linspace(10.0, 20.0, 16) - 0.3j

    def once() -> float:
        start = time.perf_counter()
        for shift in range(reps):
            phases = np.exp(1j * (ks + shift)[:, None] * lengths[None, :])
            dets = np.linalg.det(eye[None] - phases[:, :, None] * sigma[None])
            np.angle(dets[1:] * np.conj(dets[:-1]))
        return time.perf_counter() - start

    return lambda: min(once() for _ in range(3))


def _machine(np) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def _probe(np, workload) -> tuple[dict, list]:
    """secular_many / smatrix_many on fixed 1-point and 4096-point batches per graph."""
    from graphres.fixtures import fixture
    from graphres.graphio import load_graph
    from graphres.scattering import build_bond_system, secular_many, smatrix_many

    k_batch = np.linspace(*PROBE_K, PROBE_POINTS)
    k_one = k_batch[PROBE_POINTS // 2:PROBE_POINTS // 2 + 1]

    def median_time(fn, ks, reps):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn(ks)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    rows = []
    for g in workload.graphs:
        system = build_bond_system(load_graph(g.path) if g.path else fixture(g.key))
        n = system.n_bonds
        secular = lambda ks: secular_many(system, ks - 0.5j)  # noqa: E731
        smatrix = lambda ks: smatrix_many(system, ks + 0.1j)  # noqa: E731
        secular(k_one), smatrix(k_one)
        rows.append({
            "graph": g.key, "bonds": n,
            "secular_call_us": 1e6 * median_time(secular, k_one, 31),
            "secular_us_per_point": 1e6 * median_time(secular, k_batch, 3) / PROBE_POINTS,
            "smatrix_call_us": 1e6 * median_time(smatrix, k_one, 31),
            "smatrix_us_per_point": 1e6 * median_time(smatrix, k_batch, 3) / PROBE_POINTS,
            # computed from the bond count, not measured: complex LU of the
            # n x n secular matrix, and one complex128 copy of it per point
            "det_flops_per_point": 8.0 * n ** 3 / 3.0,
            "matrix_bytes_per_point": 16.0 * n * n,
        })

    def med(key):
        return statistics.median(r[key] for r in rows)

    metrics = {
        "scattering.probe_call_overhead_us": med("secular_call_us"),
        "scattering.probe_us_per_point": med("secular_us_per_point"),
        "scattering.probe_smatrix_call_overhead_us": med("smatrix_call_us"),
        "scattering.probe_smatrix_us_per_point": med("smatrix_us_per_point"),
        "scattering.det_flops_per_point": med("det_flops_per_point"),
        "scattering.matrix_bytes_per_point": med("matrix_bytes_per_point"),
    }
    return metrics, rows


def main(argv=None) -> int:
    args = _parse_args(argv)
    _pin_blas_threads()
    if not (ROOT / "src" / "graphres" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'graphres'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    from graphres import cli

    import checks
    import tracer as tracing

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.build(args.workload, args.seed, reference, OUT_DIR)
    workloads.write_files(workload, ROOT)
    checker = checks.Checker(reference)
    for op in workload.ops:
        checker.prepare(op)

    machine = _machine(np)
    kernel_n, kernel_reps, kernel_ref = KERNEL[args.workload]
    kernel = _kernel(np, kernel_n, kernel_reps)
    setup_wall, setup = ([], []) if args.trace else _setup_seconds(workload, kernel, kernel_ref)
    _call(cli, WARMUP_ARGV)
    session = Session(cli, checker, workload, kernel, kernel_ref)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": None, "ops_per_pass": len(workload.ops), "machine": machine,
              "graphs": [{"graph": g.key, "edges": g.edges, "balanced": g.balanced}
                         for g in workload.graphs]}
    started = time.perf_counter()

    def another_pass(done: int) -> bool:
        """At least one pass; then another only if one more average pass still fits."""
        elapsed = time.perf_counter() - started
        return done == 0 or elapsed * (done + 1) / done <= args.seconds

    if args.trace:
        try:
            tracer = tracing.Tracer()
        except tracing.TracerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        untraced = traced = 0.0
        while another_pass(len(session.passes) // 2):
            untraced += session.run_pass()
            traced += session.run_pass(tracer)
        passes = len(session.passes) // 2
        try:
            tracing.check_required(args.workload, tracer.spans)
        except tracing.TracerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        values = tracing.layer_metrics(tracer.spans, passes, session.sweep_band_zeros)
        values["trace.overhead_ratio"] = traced / untraced
        probe, detail["probe"] = _probe(np, workload)
        values.update(probe)
        out = ROOT / OUT_DIR
        out.mkdir(parents=True, exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-{args.seed}.json")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
        detail["passes"] = {"untraced": passes, "traced": passes}
    else:
        while another_pass(len(session.passes)):
            session.run_pass()

        def per_pass(key):
            return statistics.median(p[key] for p in session.passes)

        full = {  # name: (value, unit, samples, wall-clock value)
            "setup_s": (statistics.median(setup), "s", len(setup),
                        statistics.median(setup_wall)),
            "solve_s": (per_pass("solve_scaled"), "s", len(session.passes),
                        per_pass("solve_wall")),
            "session_s": (per_pass("scaled"), "s", len(session.passes), per_pass("wall")),
            "zeros_per_s": (session.zeros / sum(p["scaled"] for p in session.passes), "1/s",
                            session.attempted,
                            session.zeros / sum(p["wall"] for p in session.passes)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1, None),
        }
        detail["passes"] = len(session.passes)
        detail["metrics"] = {name: {"value": v, "unit": u, "samples": n, "wall": w}
                             for name, (v, u, n, w) in full.items()}
        detail["metrics"].update(_command_metrics(session))
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _, _) in full.items()}

    failed = len(session.failures)
    kernel_s = session.kernel_s
    detail.update({
        "setup_runs_wall_s": setup_wall,
        "zeros_reported": session.zeros,
        "attempted": session.attempted, "failed": failed,
        "failures": session.failures[:5],
        "kernel": {"what": f"best of 3 runs of {kernel_reps} batched "
                           f"16x{kernel_n}x{kernel_n} secular-style dets",
                   "reference_s": kernel_ref, "samples": len(kernel_s),
                   "median_s": statistics.median(kernel_s), "min_s": min(kernel_s),
                   "max_s": max(kernel_s)},
        "correct": failed == 0,
    })
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": session.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
