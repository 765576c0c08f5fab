import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphres.cli
import graphres.weyl
from graphres import (C0, DEFAULT_ABSORPTION, DEFAULT_BAND_GHZ, FIXTURE_NAMES,
                      build_bond_system, dump_graph, fixture, interval, sweep)
from graphres.cli import main

from conftest import EXPECTED_COUNTS

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DATA = Path(__file__).resolve().parent / "data"

CABLE_INTERVAL = """\
[cable]
r1 0.0005
r2 0.0015
epsilon 2.06

[edges]
1 1 2 0.05

[leads]
1 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(text):
    lines = text.strip().splitlines()
    return lines[0], lines[1:]


@pytest.fixture()
def lead_interval_path(tmp_path):
    path = tmp_path / "interval.txt"
    dump_graph(interval(leads=1), path)
    return str(path)


class TestResonances:
    @pytest.mark.parametrize("name", ["W1", "nW2"])
    def test_band_counts(self, capsys, name):
        code, out, _ = run(capsys, "resonances", "--fixture", name)
        header, body = rows(out)
        assert code == 0
        assert header == "re_k_per_m,im_k_per_m,nu_ghz,width_mhz,residual"
        assert len(body) == EXPECTED_COUNTS[name]
        ks = np.array([float(r.split(",")[0]) for r in body])
        assert np.all(np.diff(ks) > 0)

    def test_no_resonances_is_not_an_error(self, capsys, lead_interval_path):
        code, out, _ = run(capsys, "resonances", "--graph", lead_interval_path)
        header, body = rows(out)
        assert code == 0
        assert header.startswith("re_k_per_m")
        assert body == []

    def test_long_edge_resolves(self, capsys, tmp_path):
        # Neumann eigenvalues n c / 60 m: 0.01-0.09 GHz holds n = 3..18
        path = tmp_path / "long.graph"
        path.write_text("[edges]\n1 1 2 30.0\n")
        code, out, _ = run(capsys, "resonances", "--graph", str(path),
                           "--fmin-ghz", "0.01", "--fmax-ghz", "0.09")
        _, body = rows(out)
        assert code == 0
        assert len(body) == 16

    def test_out_file_is_deterministic(self, capsys, tmp_path):
        argv = ["resonances", "--fixture", "nW1", "--fmax-ghz", "1.0"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"re_k_per_m")


CLASSIFY_HEADER = ("graph,band_min_ghz,band_max_ghz,measured,weyl_pred,"
                   "nonweyl_pred,slope,classification")
CLASSIFY_OUTPUTS = {
    "W1": "W1,0.3,2.2,13,12.66,12.66,0.318138,Weyl\n",
    "nW1": "nW1,0.3,2.2,11,12.66,11.36,0.285274,non-Weyl\n"
           "# balanced_vertex=1 shortest_edge=2 ell_s=0.103\n",
    "W2": "W2,0.3,2.2,15,14.59,14.59,0.366279,Weyl\n",
    "nW2": "nW2,0.3,2.2,12,14.59,12.32,0.309976,non-Weyl\n"
           "# balanced_vertex=1 shortest_edge=2 ell_s=0.179\n",
}


class TestClassify:
    @pytest.mark.parametrize("name", CLASSIFY_OUTPUTS)
    def test_fixture_output_is_pinned(self, capsys, name):
        code, out, err = run(capsys, "classify", "--fixture", name)
        assert code == 0, err
        assert out == CLASSIFY_HEADER + "\n" + CLASSIFY_OUTPUTS[name]

    def test_nonweyl_row_names_the_balanced_vertex(self, capsys):
        code, out, _ = run(capsys, "classify", "--fixture", "nW1")
        header, body = rows(out)
        assert code == 0
        assert header.startswith("graph,band_min_ghz")
        assert body[0].startswith("nW1,0.3,2.2,11,")
        assert body[0].endswith(",non-Weyl")
        assert body[1] == "# balanced_vertex=1 shortest_edge=2 ell_s=0.103"

    def test_shortest_edge_tie_breaks_by_id(self, capsys, tmp_path):
        # edges 4 and 2 of the balanced vertex 1 are both 0.2 m long
        path = tmp_path / "tie.graph"
        path.write_text("[edges]\n4 1 2 0.2\n2 1 3 0.2\n5 2 3 0.9\n[leads]\n1 1\n2 1\n")
        code, out, err = run(capsys, "classify", "--graph", str(path))
        assert code == 0, err
        assert rows(out)[1] == ["tie,0.3,2.2,8,16.48,8.24,0.206989,non-Weyl",
                                "# balanced_vertex=1 shortest_edge=2 ell_s=0.2"]

    def test_shortest_edge_of_all_balanced_vertices(self, capsys, tmp_path):
        # both ends of the path are balanced: vertex 3's edge is the shorter,
        # and L_eff = 0 leaves no resonance
        path = tmp_path / "path.graph"
        path.write_text("[edges]\n1 1 2 0.4\n2 2 3 0.3\n[leads]\n1 1\n2 3\n")
        code, out, err = run(capsys, "classify", "--graph", str(path))
        assert code == 0, err
        assert rows(out)[1] == ["path,0.3,2.2,0,8.87,0.00,0.000000,non-Weyl",
                                "# balanced_vertex=3 shortest_edge=2 ell_s=0.3"]

    def test_weyl_row_has_no_comment(self, capsys):
        code, out, _ = run(capsys, "classify", "--fixture", "W1")
        _, body = rows(out)
        assert code == 0
        assert body[0].endswith(",Weyl")
        assert len(body) == 1

    def test_inconsistent_graph_exits_4(self, capsys, monkeypatch):
        # a counting table that grows 20% too steeply for nW1's effective size
        def steep(system, R_values, depth):
            return [(r, int(1.2 * 0.896 * r / np.pi)) for r in R_values]

        monkeypatch.setattr(graphres.weyl, "counting_function", steep)
        code, _, err = run(capsys, "classify", "--fixture", "nW1")
        assert code == 4
        assert "classification error" in err

    @pytest.mark.parametrize("name, output", [
        ("g1-e30", "g1-e30,0.3,2.2,66,68.64,66.55,1.670453,non-Weyl\n"
                   "# balanced_vertex=15 shortest_edge=30 ell_s=0.164986\n"),
        ("g1-e40", "g1-e40,0.3,2.2,84,85.73,85.73,2.152270,Weyl\n"),
    ])
    def test_generated_graph_classifies(self, capsys, name, output):
        # seed-1 graphs of the generated-large benchmark workload
        code, out, err = run(capsys, "classify", "--graph", str(DATA / f"{name}.graph"))
        assert code == 0, err
        assert out == CLASSIFY_HEADER + "\n" + output

    @pytest.mark.parametrize("name, l_eff", [
        ("tri-two-balanced", 0.7), ("path-two-leads", 0.0), ("chain4", 0.75),
        ("kite4", 0.46), ("loop4", 0.05655), ("loop-two-leads", 0.25),
    ])
    def test_graph_beyond_one_balanced_vertex_classifies(self, capsys, name, l_eff):
        code, out, err = run(capsys, "classify", "--graph", str(DATA / f"{name}.graph"))
        assert code == 0, err
        fields = rows(out)[1][0].split(",")
        assert fields[-1] == "non-Weyl"
        assert float(fields[5]) == round(2 * l_eff * 1.9e9 / C0, 2)

    def test_deep_zeros_need_a_deeper_strip(self, capsys):
        # 4 of deep4's zeros lie below Im k = -8, so its depth-8 slope falls
        # 8% short of L_eff / pi; at depth 16 they count
        path = str(DATA / "deep4.graph")
        code, _, err = run(capsys, "classify", "--graph", path)
        assert code == 4
        assert "fitted slope is 0.1241" in err
        code, out, err = run(capsys, "classify", "--graph", path, "--depth", "16")
        assert code == 0, err
        assert rows(out)[1][0].endswith(",non-Weyl")

    def test_compact_triangle_classifies_weyl(self, capsys, tmp_path):
        # its double eigenvalues 2 pi n / L lie on the real axis, inside the
        # strip that goes up to Im k = 1, and each counts twice: slope L/pi
        path = tmp_path / "triangle.graph"
        path.write_text("[edges]\n1 1 2 0.3\n2 2 3 0.2\n3 3 1 0.5\n")
        code, out, err = run(capsys, "classify", "--graph", str(path))
        assert code == 0, err
        assert rows(out)[1] == ["triangle,0.3,2.2,13,12.68,12.68,0.318291,Weyl"]

    def test_graph_without_resonances_classifies(self, capsys, tmp_path):
        # one edge, one lead: the balanced vertex removes the whole length,
        # so the expected slope and the fitted slope are both exactly 0
        path = tmp_path / "stub.txt"
        dump_graph(interval(0.5, leads=1), path)
        code, out, err = run(capsys, "classify", "--graph", str(path))
        assert code == 0, err
        header, body = rows(out)
        assert header.endswith(",classification")
        fields = body[0].split(",")
        assert fields[3] == "0" and fields[-1] == "non-Weyl"


class TestLeadsWithoutEdges:
    # one lead on an isolated vertex: no bonds, no resonances, S = rho_LL

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("[edges]\n[leads]\n1 1\n")
        return str(path)

    def test_resonances_table_is_empty(self, capsys, path):
        code, out, err = run(capsys, "resonances", "--graph", path)
        assert code == 0, err
        assert rows(out)[1] == []

    def test_classify_counts_nothing(self, capsys, path):
        code, out, err = run(capsys, "classify", "--graph", path)
        assert code == 0, err
        assert rows(out)[1] == ["bare,0.3,2.2,0,0.00,0.00,0.000000,Weyl"]

    def test_sweep_is_flat(self, capsys, path):
        code, out, err = run(capsys, "sweep", "--graph", path, "--absorption", "0.1")
        assert code == 0, err
        trace = out.split("nu_hz,depth")[0]
        _, body = rows(trace)
        assert {float(r.split(",")[1]) for r in body} == {1.0}

    def test_count_is_zero(self, capsys, path):
        code, out, err = run(capsys, "count", "--graph", path)
        assert code == 0, err
        _, body = rows(out)
        assert len(body) == 100
        assert {r.split(",")[1] for r in body} == {"0"}


class TestSweep:
    def test_lossless_sweep_has_flat_trace_and_no_dips(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "sweep", "--fixture", "W1",
                         "--absorption", "0", "--out", str(out))
        assert code == 0
        header, body = rows(out.read_text())
        assert header == "nu_hz,det_s_modulus"
        moduli = np.array([float(r.split(",")[1]) for r in body])
        assert np.max(np.abs(moduli - 1.0)) < 1e-10
        dips = (tmp_path / "trace.dips.csv").read_text()
        assert rows(dips) == ("nu_hz,depth", [])

    def test_default_absorption_dips_match_resonances(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, _, err = run(capsys, "sweep", "--fixture", "nW1",
                           "--absorption", "default", "--out", str(out))
        assert code == 0
        _, dips = rows((tmp_path / "trace.dips.csv").read_text())
        assert len(dips) == EXPECTED_COUNTS["nW1"]
        assert err.count("-> resonance") == len(dips)

    def test_a_box_without_zeros_cross_references_nothing(self, capsys, tmp_path):
        # Im k >= -0.001 holds none of W1's zeros, so the dips go unmatched
        out = tmp_path / "trace.csv"
        code, _, err = run(capsys, "sweep", "--fixture", "W1", "--absorption", "default",
                           "--depth", "0.001", "--out", str(out))
        assert code == 0
        _, dips = rows((tmp_path / "trace.dips.csv").read_text())
        assert len(dips) == 10
        assert "-> resonance" not in err

    def test_stdout_gets_both_tables(self, capsys):
        code, out, _ = run(capsys, "sweep", "--fixture", "nW1",
                           "--fmin-ghz", "0.4", "--fmax-ghz", "0.6",
                           "--absorption", "0")
        assert code == 0
        assert "nu_hz,det_s_modulus\n" in out
        assert out.rstrip().endswith("nu_hz,depth")

    def test_cable_cutoff_warning(self, capsys, tmp_path):
        path = tmp_path / "cable.txt"
        path.write_text(CABLE_INTERVAL)
        code, _, err = run(capsys, "sweep", "--graph", str(path),
                           "--fmin-ghz", "33", "--fmax-ghz", "34",
                           "--absorption", "0")
        assert code == 0
        assert "single-mode cutoff" in err
        assert "33.2 GHz" in err


class TestCount:
    def test_table_shape_and_monotonicity(self, capsys):
        code, out, _ = run(capsys, "count", "--fixture", "W1",
                           "--fmax-ghz", "0.9")
        header, body = rows(out)
        assert code == 0
        assert header == "r_per_m,n_zeros"
        assert len(body) == 100
        r = np.array([float(row.split(",")[0]) for row in body])
        n = np.array([int(row.split(",")[1]) for row in body])
        assert np.all(np.diff(r) > 0)
        assert np.all(np.diff(n) >= 0)
        assert n[-1] > 0

    def test_band_below_the_grid_floor(self, capsys):
        code, out, err = run(capsys, "count", "--fixture", "W1",
                             "--fmin-ghz", "0", "--fmax-ghz", "0.00001")
        assert code == 0, err
        _, body = rows(out)
        assert len(body) == 100
        r = np.array([float(row.split(",")[0]) for row in body])
        assert np.all(np.diff(r) > 0)

    def test_a_band_next_to_a_zero_of_order_39(self, capsys):
        # 40 parallel edges: |F| ~ |k|^39 underflows on the strip's left edge
        # at Re k = 1e-9, which moves right, away from k = 0
        code, out, err = run(capsys, "count", "--graph", str(DATA / "parallel40.graph"),
                             "--fmin-ghz", "0", "--fmax-ghz", "0.0954", "--depth", "1")
        assert code == 0, err
        _, body = rows(out)
        assert len(body) == 100
        assert {row.split(",")[1] for row in body} == {"0"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
class TestBenchmarkReference:
    """The fixture outputs that the benchmark checks against ``reference.json``."""

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(REFERENCE.read_text(encoding="utf-8"))

    def test_classify_output_is_the_reference(self, capsys, reference, name):
        code, out, err = run(capsys, "classify", "--fixture", name)
        assert code == 0, err
        assert out == reference["classify"][name]

    def test_sweep_dips_are_the_reference(self, reference, name):
        band = tuple(ghz * 1e9 for ghz in DEFAULT_BAND_GHZ)
        trace = sweep(build_bond_system(fixture(name)), band, DEFAULT_ABSORPTION)
        want = reference["sweep_dips_hz"][name]
        assert len(trace.dips) == len(want)
        assert all(abs(d.nu - nu) <= 1e-9 * nu for d, nu in zip(trace.dips, want))


class TestFailureModes:
    def test_invalid_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[edges]\n1 1 2 0.5\n2 3 4 0.5\n")
        code, _, err = run(capsys, "resonances", "--graph", str(path))
        assert code == 2
        assert "error:" in err
        assert "disconnected" in err

    @pytest.mark.parametrize("command", ["resonances", "classify", "sweep", "count"])
    def test_empty_graph_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "empty.graph"
        path.write_text("")
        code, out, err = run(capsys, command, "--graph", str(path))
        assert code == 2
        assert "neither edges nor leads" in err
        assert out == ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "resonances", "--graph",
                           str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error:" in err

    def test_directory_as_graph_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "resonances", "--graph", str(tmp_path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["resonances", "classify", "sweep", "count"])
    @pytest.mark.parametrize("flag, message", [("--fmax-ghz", "unbounded band"),
                                               ("--depth", "unbounded box")])
    def test_infinite_input_exits_2(self, capsys, command, flag, message):
        code, out, err = run(capsys, command, "--fixture", "W1", flag, "inf")
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("command", ["resonances", "classify", "sweep", "count"])
    def test_zero_depth_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, "--fixture", "W1", "--depth", "0")
        assert code == 2
        assert "depth must be positive" in err
        assert out == ""

    @staticmethod
    def _assert_deep_box_finds_the_default_depth_zeros(capsys, depth):
        band = ("--fmin-ghz", "1", "--fmax-ghz", "1.1")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "resonances", "--fixture", "W1",
                               "--depth", depth, *band)
        assert code == 0
        # the band's zeros all lie above Im k = -8; Newton starts elsewhere
        _, deep = rows(out)
        _, shallow = rows(run(capsys, "resonances", "--fixture", "W1", *band)[1])
        assert len(deep) == len(shallow) == 1
        for a, b in zip(deep, shallow):
            k = [complex(*map(float, r.split(",")[:2])) for r in (a, b)]
            assert abs(k[0] - k[1]) < 1e-12

    def test_depth_400_finds_the_default_depth_zeros(self, capsys):
        # det M would reach e^799 at Im k = -400 on W1's 0.999 m of edges;
        # the secular function F = e^{-2ikL} det M stays bounded there
        self._assert_deep_box_finds_the_default_depth_zeros(capsys, "400")

    def test_deep_box_within_double_range_solves(self, capsys):
        self._assert_deep_box_finds_the_default_depth_zeros(capsys, "120")

    def test_a_graph_of_60_m_solves(self, capsys):
        # L = 60.3 m: det M would reach e^965 at the default depth
        code, out, err = run(capsys, "resonances", "--graph", str(DATA / "tri60.graph"),
                             "--fmin-ghz", "1", "--fmax-ghz", "1.01")
        assert code == 0, err
        assert len(rows(out)[1]) == 4

    def test_a_graph_of_60_m_classifies(self, capsys):
        # the phase-speed rule gives its counting root's top (Re k up to 400)
        # 122 842 first samples; capped at 4 097, the steps aliased and the
        # root winding read -516
        code, out, err = run(capsys, "classify", "--graph", str(DATA / "tri60.graph"))
        assert code == 0, err
        assert rows(out)[1] == ["tri60,0.3,2.2,764,764.33,764.33,19.194222,Weyl"]

    @pytest.mark.parametrize("command", ["resonances", "classify", "count"])
    def test_absorption_is_a_sweep_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fixture", "W1", "--absorption", "0.1"])
        assert exc.value.code == 2

    def test_sweep_from_zero_ghz_exits_2(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, err = run(capsys, "sweep", "--fixture", "nW1",
                                "--fmin-ghz", "0", "--out", str(out))
        assert code == 2
        assert "GHz" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["count", "classify"])
    def test_uncertified_count_exits_3(self, capsys, overcounted_root, command):
        code, out, err = run(capsys, command, "--fixture", "nW1")
        assert code == 3
        assert "solver error" in err
        assert out == ""

    def test_inverted_band_exits_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--fixture", "W1",
                         "--fmin-ghz", "2.0", "--fmax-ghz", "1.0")
        assert code == 2

    def test_bad_absorption_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--fixture", "W1", "--absorption", "bogus"])
        assert exc.value.code == 2

    def test_negative_absorption_is_a_usage_error(self, capsys):
        # the `=` form keeps argparse from reading "-0.1" as an option
        for value in ("-0.1", "nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--fixture", "W1", f"--absorption={value}"])
            assert exc.value.code == 2
            assert "absorption must be finite and >= 0" in capsys.readouterr().err

    def test_fixture_and_graph_are_exclusive(self, capsys, lead_interval_path):
        with pytest.raises(SystemExit) as exc:
            main(["resonances", "--fixture", "W1",
                  "--graph", lead_interval_path])
        assert exc.value.code == 2

    def test_unknown_fixture_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resonances", "--fixture", "W9"])
        assert exc.value.code == 2


class TestOneParserPerProcess:
    """``main`` builds its parser once and reuses it on every later call."""

    SEQUENCE = (
        ("sweep", "--fixture", "W1", "--absorption", "default", "--depth", "0.001",
         "--out", "A.csv"),
        ("sweep", "--fixture", "W1", "--out", "B.csv"),
        ("sweep", "--fixture", "W1", "--absorption", "nan"),
        ("sweep", "--help"),
        ("classify", "--fixture", "nW1"),
    )

    @staticmethod
    def call(capsys, monkeypatch, argv, where):
        """Exit code, stdout, stderr and the files written, run in a new directory."""
        where.mkdir()
        monkeypatch.chdir(where)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
        return code, captured.out, captured.err, files

    def test_calls_do_not_leak_into_each_other(self, capsys, monkeypatch, tmp_path):
        parsed = []
        run_sweep = graphres.cli._COMMANDS["sweep"]

        def spy(args, graph):
            parsed.append(args)
            return run_sweep(args, graph)

        monkeypatch.setitem(graphres.cli._COMMANDS, "sweep", spy)
        shared = [self.call(capsys, monkeypatch, argv, tmp_path / f"shared{i}")
                  for i, argv in enumerate(self.SEQUENCE)]
        assert graphres.cli._parser() is graphres.cli._parser()
        fresh = []
        for i, argv in enumerate(self.SEQUENCE):
            graphres.cli._parser.cache_clear()
            fresh.append(self.call(capsys, monkeypatch, argv, tmp_path / f"fresh{i}"))
        assert [r[0] for r in shared] == [0, 0, 2, 0, 0]
        assert sorted(shared[1][3]) == ["B.csv", "B.dips.csv"]
        # the second sweep takes the defaults, not the first one's options
        assert [(a.absorption, a.depth) for a in parsed[:2]] == [(DEFAULT_ABSORPTION, 0.001),
                                                                (0.0, 8.0)]
        assert "absorption must be finite and >= 0" in shared[2][2]
        assert shared[3][1].startswith("usage: graphres sweep")
        for argv, warm, cold in zip(self.SEQUENCE, shared, fresh):
            assert warm == cold, argv

    def test_import_builds_no_parser(self):
        # counts every ArgumentParser made while graphres.cli is imported
        code = (
            "import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **kw):\n"
            "    made.append(self)\n"
            "    init(self, *a, **kw)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import graphres.cli\n"
            "print(len(made))\n"
        )
        src = str(Path(graphres.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["0"]
