import numpy as np
import pytest

from graphres import dump_graph, interval
from graphres.cli import main

from conftest import EXPECTED_COUNTS

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

    def test_weyl_row_has_no_comment(self, capsys):
        code, out, _ = run(capsys, "classify", "--fixture", "W1")
        _, body = rows(out)
        assert code == 0
        assert body[0].endswith(",Weyl")
        assert len(body) == 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_inconsistent_graph_exits_4(self, capsys, tmp_path):
        # both endpoints balanced: the heuristic effective size goes
        # negative, no fitted slope can match, and that must be loud
        path = tmp_path / "twolead.txt"
        dump_graph(interval(leads=2), path)
        code, _, err = run(capsys, "classify", "--graph", str(path))
        assert code == 4
        assert "classification error" in err


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


class TestFailureModes:
    def test_invalid_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[edges]\n1 1 2 0.5\n2 3 4 0.5\n")
        code, _, err = run(capsys, "resonances", "--graph", str(path))
        assert code == 2
        assert "error:" in err
        assert "disconnected" in err

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
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--fixture", "W1", "--absorption", "-0.1"])
        assert exc.value.code == 2

    def test_fixture_and_graph_are_exclusive(self, capsys, lead_interval_path):
        with pytest.raises(SystemExit) as exc:
            main(["resonances", "--fixture", "W1",
                  "--graph", lead_interval_path])
        assert exc.value.code == 2

    def test_unknown_fixture_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resonances", "--fixture", "W9"])
        assert exc.value.code == 2
