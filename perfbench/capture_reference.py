"""Capture the fixture reference outputs that the benchmark checks against.

    python3 perfbench/capture_reference.py

Writes ``perfbench/reference.json`` from the program in ``src/``:

* every resonance of each fixture in the 0.3-6 GHz strip (the sub-band
  ``resonances`` calls of ``fixtures-band`` must reproduce the ones in their
  band to 1e-10 in k);
* the exact ``graphres classify`` output of each fixture;
* the dips of ``graphres sweep --absorption default`` on each fixture.

The file is data, captured once; rerun this only to re-baseline knowingly.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from graphres import cli  # noqa: E402
from graphres.fixtures import fixture  # noqa: E402
from graphres.scattering import build_bond_system  # noqa: E402
from graphres.zeros import SearchBox, find_zeros  # noqa: E402

import workloads  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"graphres {' '.join(argv)} exited {code}")
    return out.getvalue()


def main() -> None:
    lo, hi = workloads.WIDE_BAND_GHZ
    ref = {"wide_band_ghz": [lo, hi], "strip_depth": workloads.STRIP_DEPTH,
           "wide_band_zeros": {}, "classify": {}, "sweep_dips_hz": {}}
    for name in workloads.FIXTURES:
        zs = find_zeros(build_bond_system(fixture(name)),
                        SearchBox.from_band(lo * 1e9, hi * 1e9, depth=workloads.STRIP_DEPTH))
        ref["wide_band_zeros"][name] = [[r.k.real, r.k.imag] for r in zs]
        ref["classify"][name] = _cli(["classify", "--fixture", name])
        text = _cli(["sweep", "--fixture", name, "--absorption", "default"])
        dips = text.split("nu_hz,depth\n", 1)[1].splitlines()
        ref["sweep_dips_hz"][name] = [float(line.split(",")[0]) for line in dips]
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
