"""Command-line interface.

Subcommands::

    resonances   complex zeros in the band as CSV
    classify     measured/predicted counts, fitted slope, Weyl class
    sweep        |det S(nu)| trace and dip CSVs
    count        counting-function table N(R) for slope fitting

Exit codes: 0 success, 2 invalid graph or arguments, 3 solver failure,
4 classification inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .constants import DEFAULT_ABSORPTION, DEFAULT_BAND_GHZ, STRIP_DEPTH
from .fixtures import FIXTURE_NAMES, fixture
from .graph import GraphError, MetricGraph, balanced_vertices, cutoff_frequency
from .graphio import load_graph
from .scattering import build_bond_system
from .sweep import sweep
from .weyl import NON_WEYL, ClassificationError, CountReport, count_report
from .zeros import SearchBox, SolverError, find_zeros, counting_function

RESONANCE_HEADER = "re_k_per_m,im_k_per_m,nu_ghz,width_mhz,residual"
CSV_HEADER = "graph,band_min_ghz,band_max_ghz,measured,weyl_pred,nonweyl_pred,slope,classification"
TRACE_HEADER = "nu_hz,det_s_modulus"
DIP_HEADER = "nu_hz,depth"


def _absorption(text: str) -> float:
    if text == "default":
        return DEFAULT_ABSORPTION
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'default', got {text!r}"
        ) from None
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError("absorption must be finite and >= 0")
    return value


@functools.cache  # built on the first main call, then reused by the process
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphres",
        description="Resonances and scattering of open metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, brief in (
        ("resonances", "find complex resonances in the band"),
        ("classify", "count, predict, fit, and classify"),
        ("sweep", "simulate a |det S| frequency sweep"),
        ("count", "tabulate the counting function N(R)"),
    ):
        p = sub.add_parser(name, help=brief)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--fixture", choices=FIXTURE_NAMES,
                         help="one of the shipped networks")
        src.add_argument("--graph", metavar="PATH",
                         help="graph definition file")
        p.add_argument("--fmin-ghz", type=float, default=DEFAULT_BAND_GHZ[0])
        p.add_argument("--fmax-ghz", type=float, default=DEFAULT_BAND_GHZ[1])
        p.add_argument("--depth", type=float, default=STRIP_DEPTH,
                       help="search strip depth |Im k|, 1/m")
        if name == "sweep":
            p.add_argument("--absorption", type=_absorption, default=0.0,
                           help="uniform absorption in 1/m, or 'default' "
                                f"for the calibrated {DEFAULT_ABSORPTION}")
        p.add_argument("--out", metavar="PATH", help="output CSV (stdout if omitted)")
    return parser


def _load(args) -> MetricGraph:
    if args.fixture:
        return fixture(args.fixture)
    return load_graph(args.graph)


def _band_hz(args) -> tuple[float, float]:
    if not (0.0 <= args.fmin_ghz < args.fmax_ghz < np.inf):
        raise GraphError(
            f"empty, inverted or unbounded band {args.fmin_ghz}-{args.fmax_ghz} GHz"
        )
    return args.fmin_ghz * 1e9, args.fmax_ghz * 1e9


def _emit(rows: list[str], out: str | None) -> None:
    rows.append("")  # one join, ending in a newline
    text = "\n".join(rows)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _warn_above_cutoff(graph: MetricGraph, band: tuple[float, float]) -> None:
    if graph.cable is not None:
        nu_c = cutoff_frequency(graph.cable)
        if band[1] > nu_c:
            print(
                f"warning: band extends above the single-mode cutoff "
                f"{nu_c / 1e9:.1f} GHz; higher modes are not modeled",
                file=sys.stderr,
            )


def _cmd_resonances(args, graph: MetricGraph) -> int:
    band = _band_hz(args)
    system = build_bond_system(graph)
    zs = find_zeros(system, SearchBox.from_band(*band, depth=args.depth))
    lines = [RESONANCE_HEADER]
    for r in zs:
        lines.append(
            f"{r.k.real!r},{r.k.imag!r},{r.nu / 1e9!r},{r.width / 1e6!r},"
            f"{r.residual:.3e}"
        )
    _emit(lines, args.out)
    return 0


def report_csv_row(name: str, report: CountReport) -> str:
    ghz = (report.band[0] / 1e9, report.band[1] / 1e9)
    return (
        f"{name},{ghz[0]:g},{ghz[1]:g},{report.measured_count},"
        f"{report.weyl_prediction:.2f},{report.nonweyl_prediction:.2f},"
        f"{report.fitted_slope:.6f},{report.classification}"
    )


def _cmd_classify(args, graph: MetricGraph) -> int:
    band = _band_hz(args)
    name = args.fixture or Path(args.graph).stem
    report = count_report(graph, band, depth=args.depth)
    lines = [CSV_HEADER, report_csv_row(name, report)]
    if report.classification == NON_WEYL:
        ell_s, vertex, edge_id = min((e.length, v, e.id)
                                     for v in balanced_vertices(graph)
                                     for e in graph.edges if v in (e.a, e.b))
        lines.append(f"# balanced_vertex={vertex} shortest_edge={edge_id} ell_s={ell_s:g}")
    _emit(lines, args.out)
    return 0


def _cmd_sweep(args, graph: MetricGraph) -> int:
    band = _band_hz(args)
    if band[0] == 0.0:  # |det S(nu)| needs nu > 0
        raise GraphError(
            f"sweep band must start above 0 GHz, got {args.fmin_ghz}-{args.fmax_ghz} GHz"
        )
    box = SearchBox.from_band(*band, depth=args.depth)
    _warn_above_cutoff(graph, band)
    system = build_bond_system(graph)
    trace = sweep(system, band, absorption=args.absorption)
    trace_lines = [TRACE_HEADER]
    trace_lines.extend(
        f"{nu!r},{m!r}" for nu, m in zip(trace.nu.tolist(), trace.modulus.tolist())
    )
    dip_lines = [DIP_HEADER]
    dip_lines.extend(f"{d.nu!r},{d.depth!r}" for d in trace.dips)
    _emit(trace_lines, args.out)
    _emit(dip_lines, args.out and str(Path(args.out).with_suffix(".dips.csv")))
    resonances = find_zeros(system, box).resonances if trace.dips else ()
    if resonances:
        nus = np.array([r.nu for r in resonances])
        halves = np.array([r.half_width for r in resonances])
        for d in trace.dips:
            j = int(np.argmin(np.abs(nus - d.nu)))
            off = abs(nus[j] - d.nu)
            ratio = off / halves[j] if halves[j] > 0 else np.inf
            print(
                f"dip {d.nu / 1e9:.5f} GHz depth {d.depth:.3f} -> resonance "
                f"{nus[j] / 1e9:.5f} GHz ({ratio:.2f} half-widths away)",
                file=sys.stderr,
            )
    return 0


def _cmd_count(args, graph: MetricGraph) -> int:
    box = SearchBox.from_band(*_band_hz(args), depth=args.depth)
    system = build_bond_system(graph)
    grid = np.linspace(box.re_min, box.re_max, 100)
    table = counting_function(system, grid, depth=args.depth)
    lines = ["r_per_m,n_zeros"]
    lines.extend(f"{r!r},{n}" for r, n in table)
    _emit(lines, args.out)
    return 0


_COMMANDS = {
    "resonances": _cmd_resonances,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "count": _cmd_count,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        graph = _load(args)
        return _COMMANDS[args.command](args, graph)
    except (GraphError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClassificationError as exc:
        print(f"classification error: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
