"""Correctness checks on each CLI operation's output, run outside the timed region.

Fixture outputs are compared with ``reference.json`` (captured from the
program by ``capture_reference.py``); generated-graph outputs are checked
against the program's own public primitives on the same box.
"""

from __future__ import annotations

import math

import numpy as np

from graphres.graphio import load_graph
from graphres.scattering import build_bond_system, secular_many
from graphres.zeros import SearchBox, count_zeros

from workloads import C0, DEFAULT_BAND_GHZ, FIXTURES, STRIP_DEPTH, Op

K_TOL = 1e-10                    # fixture zeros vs. reference, 1/m
RESIDUAL_REL = 1e-10             # the solver's residual gate, vs. max |secular| on the box
UNITARITY_TOL = 1e-9             # |det S| <= 1 + this on an absorbing sweep
DIP_REL_TOL = 1e-9
BAND_COUNTS = {"W1": 13, "nW1": 11, "W2": 15, "nW2": 12}
_BOUNDARY_SAMPLES = 256          # per side, for the residual gate's scale


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _box(band_ghz) -> SearchBox:
    return SearchBox.from_band(band_ghz[0] * 1e9, band_ghz[1] * 1e9, depth=STRIP_DEPTH)


def _in_box(k: complex, band_ghz) -> bool:
    lo = max(2.0 * math.pi * band_ghz[0] * 1e9 / C0, 1e-9)
    hi = 2.0 * math.pi * band_ghz[1] * 1e9 / C0
    return lo <= k.real <= hi and -STRIP_DEPTH <= k.imag <= 0.0


def _resonance_ks(text: str) -> list[complex]:
    lines = text.splitlines()
    if not lines or lines[0] != "re_k_per_m,im_k_per_m,nu_ghz,width_mhz,residual":
        raise CheckFailed("resonances output lacks its CSV header")
    ks = []
    for line in lines[1:]:
        re, im = line.split(",")[:2]
        ks.append(complex(float(re), float(im)))
    return ks


def _sweep_parts(text: str):
    head, sep, dips = text.partition("nu_hz,depth\n")
    lines = head.splitlines()
    if not sep or not lines or lines[0] != "nu_hz,det_s_modulus":
        raise CheckFailed("sweep output lacks its trace or dip header")
    modulus = np.array([float(line.split(",")[1]) for line in lines[1:]])
    dip_nu = [float(line.split(",")[0]) for line in dips.splitlines()]
    return modulus, dip_nu


class Checker:
    """Expected outputs for one workload, computed once before timing starts."""

    def __init__(self, reference: dict):
        self.reference = reference
        zeros = reference["wide_band_zeros"]
        self.ref_zeros = {name: [complex(*k) for k in zeros[name]] for name in FIXTURES}
        for name, expected in BAND_COUNTS.items():
            got = sum(_in_box(k, DEFAULT_BAND_GHZ) for k in self.ref_zeros[name])
            if got != expected:
                raise RuntimeError(f"reference.json gives {got} zeros for {name} "
                                   f"in the default band, not {expected}")
        self._expected_count: dict = {}
        self._scale: dict = {}
        self._systems: dict = {}

    def prepare(self, op: Op) -> None:
        """Solve-free expectations for the op's box: winding count and scale."""
        key = (op.graph.key, op.band_ghz)
        if key in self._expected_count:
            return
        if op.graph.path is None:
            self._expected_count[key] = sum(_in_box(k, op.band_ghz)
                                            for k in self.ref_zeros[op.graph.key])
            return
        system = self._systems.get(op.graph.key)
        if system is None:
            system = self._systems[op.graph.key] = build_bond_system(load_graph(op.graph.path))
        box = _box(op.band_ghz)
        self._expected_count[key] = count_zeros(system, box)
        c = box.corners
        t = np.linspace(0.0, 1.0, _BOUNDARY_SAMPLES, endpoint=False)
        ring = np.concatenate([c[i] + (c[(i + 1) % 4] - c[i]) * t for i in range(4)])
        self._scale[key] = float(np.max(np.abs(secular_many(system, ring))))

    def band_zero_count(self, op: Op) -> int:
        return self._expected_count[(op.graph.key, op.band_ghz)]

    def verdict(self, op: Op, out: str) -> tuple[int, str | None]:
        """(zeros the output reports, None) or (0, what is wrong with it)."""
        try:
            return self.check(op, out), None
        except (CheckFailed, ValueError, IndexError) as exc:
            return 0, f"{type(exc).__name__}: {exc}"

    def check(self, op: Op, out: str) -> int:
        """Raise :class:`CheckFailed` on a wrong output; return the zeros it reports."""
        if op.command == "classify":
            if out != self.reference["classify"][op.graph.key]:
                raise CheckFailed(f"classify {op.graph.key} differs from the reference")
            return int(out.splitlines()[1].split(",")[3])
        if op.command == "sweep":
            modulus, dips = _sweep_parts(out)
            if modulus.size == 0 or not np.all(modulus <= 1.0 + UNITARITY_TOL):
                raise CheckFailed(f"sweep on {op.graph.key}: |det S| exceeds 1 + {UNITARITY_TOL}")
            if op.graph.path is None:
                ref = self.reference["sweep_dips_hz"][op.graph.key]
                if len(dips) != len(ref) or any(
                        abs(a - b) > DIP_REL_TOL * b for a, b in zip(dips, ref)):
                    raise CheckFailed(f"sweep dips on {op.graph.key} differ from the reference")
            return 0
        ks = _resonance_ks(out)
        key = (op.graph.key, op.band_ghz)
        if len(ks) != self._expected_count[key]:
            raise CheckFailed(f"resonances on {op.graph.key} {op.band_ghz}: {len(ks)} "
                              f"zeros, expected {self._expected_count[key]}")
        if op.graph.path is None:
            expected = sorted((k for k in self.ref_zeros[op.graph.key] if _in_box(k, op.band_ghz)),
                              key=lambda z: (z.real, z.imag))
            if any(abs(a - b) > K_TOL for a, b in zip(ks, expected)):
                raise CheckFailed(f"resonances on {op.graph.key} {op.band_ghz} "
                                  f"differ from the reference by more than {K_TOL}")
        elif ks:
            residual = np.abs(secular_many(self._systems[op.graph.key], ks))
            if np.max(residual) > RESIDUAL_REL * self._scale[key]:
                raise CheckFailed(f"resonances on {op.graph.key}: residual "
                                  f"{np.max(residual):.3e} above the gate")
        return len(ks)
