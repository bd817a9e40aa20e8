"""End-to-end runs of the command-line harness (in process)."""

import csv
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import isodag
from isodag.cli import main
from isodag.complexity import harmonic_sum, statdim_mc
from isodag.experiments import read_report
from isodag.orders import LatticeSpec, build_lattice


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("isodag ")


def test_version_is_written_once(capsys):
    """``--version`` prints ``isodag.__version__``, and so does the package
    metadata that setuptools reads from ``pyproject.toml``."""
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out == f"isodag {isodag.__version__}\n"
    pyproject = Path(isodag.__file__).parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("not running from a checkout")
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():   # setuptools marks [tool.setuptools] as beta
        warnings.simplefilter("ignore")
        project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert project["version"] == isodag.__version__


@pytest.mark.parametrize("n1", [3, 46])
def test_fit_synthetic_lattice(tmp_path, capsys, n1):
    # 46^2 = 2116 vertices: every fit is certified, whatever its size
    out = tmp_path / "fit.csv"
    code = main(["fit", "--n1", str(n1), "--d", "2", "--seed", "1",
                 "--signal", "linear_mean", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "certificate_reconstruction=" in text and "skipped" not in text
    assert "empirical risk vs signal:" in text
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["index", "x_1", "x_2", "y", "theta_hat"]
    assert len(rows) == n1 * n1 + 1
    fitted = [float(r[4]) for r in rows[1:]]
    assert math.isfinite(sum(fitted))


def test_fit_from_data_file(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    rng = np.random.default_rng(0)
    pts = rng.random((12, 2))
    pts[6] = pts[3]  # a duplicated design point
    y = pts.sum(axis=1) + 0.1 * rng.standard_normal(12)
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "x_1", "x_2", "y"])
        for i in range(12):
            w.writerow([i, pts[i, 0], pts[i, 1], y[i]])
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(data), "--d", "2",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(open(out).read())
    assert len(payload["theta_hat"]) == 12
    # duplicated points share one fitted value
    assert payload["theta_hat"][3] == payload["theta_hat"][6]
    assert "empirical risk" not in capsys.readouterr().out


def test_fit_dimension_mismatch_exits_2(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("0,0.1,0.2,1.0\n1,0.3,0.4,2.0\n")
    assert main(["fit", "--data", str(data), "--d", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_fit_rejects_nan_coordinate_exits_2(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("0,0.1,0.2,1.0\n1,nan,0.4,2.0\n")
    assert main(["fit", "--data", str(data), "--d", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["\nindex,x_1,x_2,y\n0,0.1,0.2,1.0\n1,0.3,0.4,2.0\n",
                                  "index,x_1,x_2,y\n0,0.1,0.2,1.0\n1,0.3,0.4,2.0\n\n",
                                  "0,0.1,0.2,1.0\n\n1,0.3,0.4,2.0\n"])
def test_fit_skips_blank_lines(tmp_path, capsys, text):
    """Blank lines before, between or after the rows are skipped: the fit
    and its output file are those of the file without them."""
    outs = []
    for name, body in [("blank", text), ("plain", text.replace("\n\n", "\n").lstrip())]:
        (tmp_path / f"{name}.csv").write_text(body)
        assert main(["fit", "--data", str(tmp_path / f"{name}.csv"), "--d", "2",
                     "--out", str(tmp_path / f"{name}_fit.csv")]) == 0
        outs.append((tmp_path / f"{name}_fit.csv").read_text())
    assert outs[0] == outs[1]
    assert "fit: n=2 vertices=2" in capsys.readouterr().out


def test_fit_refuses_a_ragged_row_naming_it(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("index,x_1,x_2,y\n\n0,0.1,0.2,1.0\n1,0.3,2.0\n")
    assert main(["fit", "--data", str(data), "--d", "2", "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == f"error: {data} line 4 has 3 fields, line 1 has 4\n"
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("command", ["antichain", "sweep-fixed"])
@pytest.mark.parametrize("grid", [",", " , ,", ""])
def test_empty_n_grid_exits_2(tmp_path, capsys, command, grid):
    """A grid with no size is refused before anything runs or is written."""
    out = tmp_path / "x.csv"
    argv = [command, "--d", "2", "--n-grid", grid]
    if command == "sweep-fixed":
        argv += ["--signal", "foo", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: could not parse n grid {grid!r}\n")
    assert not out.exists()


def test_fit_certificate_failure_exits_3(tmp_path, capsys, monkeypatch):
    """A fit that is not the projection fails its certificate: exit 3, the
    failure named on stderr, and no output file."""
    from isodag import cli

    real = cli.lse_fit
    monkeypatch.setattr(cli, "lse_fit", lambda dag, y: dataclasses.replace(
        real(dag, y), theta_hat=np.zeros(dag.n_vertices)))
    out = tmp_path / "fit.csv"
    assert main(["fit", "--n1", "3", "--d", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("certificate failure")
    assert not out.exists()


def test_fit_needs_data_or_n1(capsys):
    assert main(["fit"]) == 2


def test_statdim_output_matches_library(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["statdim", "--n1", "3", "--d", "2", "--reps", "20",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    assert open(out).readline() == "metric,d,n,replicates,seed,mean,stderr,bound_C1\n"
    row = list(csv.DictReader(open(out)))[0]
    dag = build_lattice(LatticeSpec((3, 3)))
    est = statdim_mc(dag, 20, seed=7)
    assert float(row["mean"]) == est.mean
    assert float(row["stderr"]) == est.stderr
    assert row["metric"] == "statdim" and int(row["n"]) == 9


def test_statdim_bound_in_dimension_one_is_the_harmonic_sum(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["statdim", "--d", "1", "--n1", "8", "--reps", "5",
                 "--out", str(out)]) == 0
    assert f"bound_C1={harmonic_sum(8):.6g})" in capsys.readouterr().out
    assert float(next(csv.DictReader(open(out)))["bound_C1"]) == harmonic_sum(8)


def test_width_at_most_sqrt_statdim_cli(tmp_path):
    wout = tmp_path / "w.csv"
    sout = tmp_path / "s.csv"
    assert main(["width", "--n1", "3", "--d", "2", "--reps", "30",
                 "--seed", "2", "--out", str(wout)]) == 0
    assert main(["statdim", "--n1", "3", "--d", "2", "--reps", "30",
                 "--seed", "2", "--out", str(sout)]) == 0
    width = float(list(csv.DictReader(open(wout)))[0]["mean"])
    sdim = float(list(csv.DictReader(open(sout)))[0]["mean"])
    assert width <= math.sqrt(sdim) + 1e-12


def test_moment_requires_n1(capsys):
    assert main(["statdim", "--d", "2", "--reps", "4"]) == 2


def test_sweep_fixed_and_rate_fit_chain(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-fixed", "--d", "2", "--n-grid", "4,16,64",
                 "--reps", "6", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "fitted log-log slope:" in text
    report = read_report(str(out))
    assert [r.n for r in report.rows] == [4, 16, 64]
    assert main(["rate-fit", str(out)]) == 0
    assert "slope=" in capsys.readouterr().out


def test_rate_fit_exits_2_on_two_sizes(tmp_path, capsys):
    out = tmp_path / "two.csv"
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "4,16",
                 "--reps", "4", "--out", str(out)]) == 0
    assert main(["rate-fit", str(out)]) == 2


def test_rate_fit_experiment_filter(tmp_path):
    out = tmp_path / "named.csv"
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "4,16,64", "--reps", "4",
                 "--experiment", "alpha", "--out", str(out)]) == 0
    assert main(["rate-fit", str(out), "--experiment", "alpha"]) == 0
    assert main(["rate-fit", str(out), "--experiment", "beta"]) == 2


def test_sweep_fixed_validation_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "4,16"]) == 2  # no --out
    assert main(["sweep-fixed", "--d", "2", "--out", out]) == 2  # no grid
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "5", "--out", out]) == 2
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "4,16", "--reps", "4",
                 "--signal", "staircase", "--out", out]) == 2
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "4,16", "--reps", "4",
                 "--signal", "assouad", "--out", out]) == 2
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "4", "--reps", "4",
                 "--signal", "nope", "--out", out]) == 2
    # the grid's length is checked before the signal is drawn for its first
    # size, so the message does not depend on which size comes first
    for signal in ("staircase", "assouad"):
        for grid in ("10,16", "16,10"):
            capsys.readouterr()
            assert main(["sweep-fixed", "--d", "2", "--n-grid", grid, "--signal", signal,
                         "--out", out]) == 2
            assert capsys.readouterr().err == (
                f"error: {signal} signals need a single-entry --n-grid\n")


def test_sweep_fixed_staircase_and_assouad_single_size(tmp_path):
    s_out = tmp_path / "stair.csv"
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "16", "--reps", "4",
                 "--signal", "staircase", "--k", "3", "--out", str(s_out)]) == 0
    a_out = tmp_path / "assouad.csv"
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "16", "--reps", "4",
                 "--signal", "assouad", "--rho", "0.2", "--out", str(a_out)]) == 0
    for path in (s_out, a_out):
        row = read_report(str(path)).rows[0]
        assert row.risk_mean > 0 and row.statdim_mean is None


def test_sweep_random_round_trip(tmp_path, capsys):
    out = tmp_path / "rand.json"
    code = main(["sweep-random", "--d", "2", "--n-grid", "20,40", "--reps", "4",
                 "--signal", "mean_coord", "--format", "json", "--out", str(out)])
    assert code == 0
    report = read_report(str(out))
    assert report.config["design"] == "random"
    assert report.config["signal"] == "mean_coord"
    assert all(r.risk_mean > 0 for r in report.rows)
    assert main(["sweep-random", "--d", "2", "--n-grid", "20", "--reps", "4",
                 "--signal", "nope", "--out", str(tmp_path / "z.csv")]) == 2


@pytest.mark.parametrize("command,constant", [("sweep-fixed", "2"), ("sweep-random", "0.5")])
def test_constant_signal_risks_equal_the_zero_signals(tmp_path, command, constant):
    """The cone contains the constants, so a constant signal shifts the data
    and the fit alike: on the same streams its risks are the zero signal's."""
    risks = []
    for signal in ("zero", f"constant:{constant}"):
        out = tmp_path / f"{signal}.csv"
        assert main([command, "--d", "2", "--n-grid", "16,36", "--reps", "3",
                     "--seed", "4", "--signal", signal, "--out", str(out)]) == 0
        risks.append([row.risk_mean for row in read_report(str(out)).rows])
    assert np.allclose(risks[1], risks[0], rtol=1e-9, atol=0.0)


def test_sweep_random_refuses_d1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "d1.csv"
    assert main(["sweep-random", "--d", "1", "--n-grid", "20", "--reps", "2",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err and not out.exists()


def test_sweep_random_population_risk_option(tmp_path, capsys):
    out = tmp_path / "pop.json"
    code = main(["sweep-random", "--d", "2", "--n-grid", "16", "--reps", "4",
                 "--signal", "mean_coord", "--mc-samples", "32",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert "l2p_risk=" in capsys.readouterr().out
    report = read_report(str(out))
    est = report.notes["l2p"]["16"]
    assert est["mc_points"] == 32 and est["mean"] > 0.0


def test_antichain_lattice_route(capsys):
    assert main(["antichain", "--n1", "3", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "max_antichain=3" in out
    assert "longest_chain=5" in out
    assert "chain_cover=3" in out


def test_antichain_random_route(capsys):
    assert main(["antichain", "--d", "2", "--n-grid", "20,30", "--reps", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("random d=2") == 2
    assert "frac_meeting_bound=" in out


def test_antichain_rejects_d_below_one_naming_d(capsys):
    assert main(["antichain", "--d", "0", "--n-grid", "5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: need d >= 1, got d=0\n"


def test_fit_from_data_merges_each_point_set_once(tmp_path, monkeypatch):
    """``fit --data`` merges its duplicate points once: its observations go
    through ``design.merge_observations``, which reads the averaging maps
    off the builder's own merge."""
    from isodag import orders

    calls = []
    real = orders.merge_duplicates
    spy = lambda points: calls.append(len(points)) or real(points)
    monkeypatch.setattr(orders, "merge_duplicates", spy)
    data = tmp_path / "obs.csv"
    pts = np.random.default_rng(1).random((10, 2))
    pts[7] = pts[2]
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows([i, *pts[i], pts[i].sum()] for i in range(10))
    assert main(["fit", "--data", str(data), "--d", "2"]) == 0
    assert calls == [10]


def test_antichain_needs_some_design(capsys):
    assert main(["antichain", "--d", "2"]) == 2


def test_table1_smoke(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--reps", "2", "--seed", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "d=3 log-log growth slope" in text
    rows = list(csv.DictReader(open(out)))
    assert {r["d"] for r in rows} == {"1", "2", "3"}
    chain_rows = [r for r in rows if r["d"] == "1"]
    assert all(r["reference"] for r in chain_rows)


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps = 20\nseed = 3  # comment\n\n# full-line comment\n")
    out = tmp_path / "m.csv"
    assert main(["statdim", "--n1", "3", "--d", "2", "--config", str(cfg),
                 "--seed", "7", "--out", str(out)]) == 0
    row = list(csv.DictReader(open(out)))[0]
    # config supplied reps; the explicit --seed flag beat the config value
    assert int(row["replicates"]) == 20
    assert int(row["seed"]) == 7


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert main(["statdim", "--n1", "3", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("case,message", [
    ("n_grid", "could not parse n grid '4,x'"),
    ("config", "expected key = value"),
    ("header_only", "no data rows in input"),
])
def test_malformed_input_exits_2_naming_it(tmp_path, capsys, case, message):
    path = tmp_path / "input"
    argv = {"n_grid": ["sweep-fixed", "--n-grid", "4,x", "--out", str(tmp_path / "s.csv")],
            "config": ["statdim", "--n1", "3", "--config", str(path)],
            "header_only": ["fit", "--data", str(path), "--d", "2"]}[case]
    path.write_text({"config": "reps = 4\nseed\n"}.get(case, "index,x_1,x_2,y\n"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_config_file_missing_exits_2(tmp_path):
    assert main(["statdim", "--n1", "3",
                 "--config", str(tmp_path / "absent.cfg")]) == 2



def test_config_value_is_checked_as_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    out = tmp_path / "fit.out"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--n1", "3", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    from_config = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--n1", "3", "--format", "xml", "--out", str(out)])
    assert exc.value.code == 2
    assert from_config == capsys.readouterr()
    assert "invalid choice: 'xml'" in from_config.err


def test_subcommand_flags_are_not_abbreviated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["statdim", "--n1", "3", "--rep", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["rep", "help", "config", "threads"])
def test_config_keys_are_the_subcommands_own_flags(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# {key}\n{key} = 5\n")
    assert main(["statdim", "--n1", "3", "--config", str(cfg)]) == 2
    assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err


def test_config_run_matches_the_same_flags(tmp_path, capsys):
    """A config file gives the bytes and output of the flags it spells out;
    ``threads`` is accepted and ignored."""
    out = tmp_path / "sweep.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d = 2\nn_grid = 4,16,64\nsignal = linear_mean\nreps = 3\n"
                   f"threads = 2\nformat = json\nout = {out}\n")
    assert main(["sweep-fixed", "--config", str(cfg), "--seed", "4"]) == 0
    from_config = (out.read_bytes(), capsys.readouterr())
    out.unlink()
    assert main(["sweep-fixed", "--d", "2", "--n-grid", "4,16,64", "--signal",
                 "linear_mean", "--reps", "3", "--format", "json", "--out", str(out),
                 "--seed", "4"]) == 0
    assert from_config == (out.read_bytes(), capsys.readouterr())
    assert "threads" not in read_report(str(out)).config
