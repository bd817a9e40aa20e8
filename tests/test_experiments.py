"""Sweep harness: reproducible replicate streams, reports, rate fits."""

import json
import math

import numpy as np
import pytest

from isodag.complexity import statdim_mc
from isodag.design import DesignSampler
from isodag.experiments import (
    RISK_COLUMNS,
    ExperimentConfig,
    RiskReport,
    RiskRow,
    TABLE1_GRIDS,
    emit_report,
    fit_rate_exponent,
    lattice_side,
    read_report,
    run_fixed_sweep,
    run_random_sweep,
    table1,
)
from isodag.orders import LatticeSpec, build_lattice
from isodag.signals import SignalSpec


def _cfg(**kw):
    base = dict(experiment="t", d=2, n_grid=(4,), replicates=10, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_grid=(4, 4))
    with pytest.raises(ValueError):
        _cfg(n_grid=(9, 4))
    with pytest.raises(ValueError):
        _cfg(n_grid=())
    with pytest.raises(ValueError):
        _cfg(replicates=1)
    with pytest.raises(ValueError):
        _cfg(design="grid")
    with pytest.raises(ValueError):
        _cfg(threads=0)
    with pytest.raises(ValueError):
        _cfg(d=0)
    with pytest.raises(ValueError):
        _cfg(experiment="")
    with pytest.raises(ValueError):
        _cfg(mc_points=1)
    with pytest.raises(ValueError):
        _cfg(mc_points=-3)


def test_config_to_dict_round_trips_through_json():
    cfg = _cfg(signal=SignalSpec.linear_mean(), sampler=DesignSampler.uniform(2))
    echo = json.loads(json.dumps(cfg.to_dict()))
    assert echo["experiment"] == "t" and echo["n_grid"] == [4]
    assert echo["signal"]["kind"] == "linear_mean"
    assert echo["sampler"]["m0"] == 1.0

    def my_truth(x):
        return x[:, 0]

    assert _cfg(signal=my_truth).to_dict()["signal"] == "my_truth"


def test_lattice_side():
    assert lattice_side(27, 3) == 3
    assert lattice_side(16, 2) == 4
    assert lattice_side(1000, 3) == 10
    with pytest.raises(ValueError):
        lattice_side(28, 3)


# ---------------------------------------------------------------------------
# fixed-design sweeps


def test_fixed_sweep_zero_signal_reproduces_statdim():
    cfg = _cfg(n_grid=(4, 16), replicates=12)
    report = run_fixed_sweep(cfg)
    assert [r.n for r in report.rows] == [4, 16]
    for j, row in enumerate(report.rows):
        dag = build_lattice(LatticeSpec.cube(2, lattice_side(row.n, 2)))
        est = statdim_mc(dag, 12, seed=0, stream_id=j * 12)
        assert row.statdim_mean == est.mean
        assert row.risk_mean == row.statdim_mean / row.n
        assert row.bound_C1 > 0


def test_fixed_sweep_nonzero_signal_has_no_statdim_column():
    cfg = _cfg(signal=SignalSpec.linear_mean(), replicates=8)
    row = run_fixed_sweep(cfg).rows[0]
    assert row.statdim_mean is None
    assert row.risk_mean > 0


def test_fixed_sweep_thread_count_does_not_change_results():
    r1 = run_fixed_sweep(_cfg(n_grid=(9,), replicates=10, threads=1))
    r4 = run_fixed_sweep(_cfg(n_grid=(9,), replicates=10, threads=4))
    assert r1.rows == r4.rows


def test_fixed_sweep_rejects_callable_signal():
    with pytest.raises((TypeError, ValueError)):
        run_fixed_sweep(_cfg(signal=lambda x: x[:, 0]))


def test_fixed_sweep_linear_signal_risk_decreases_in_n():
    cfg = _cfg(signal=SignalSpec.linear_mean(), n_grid=(16, 256, 4096),
               replicates=6, seed=1)
    risks = [r.risk_mean for r in run_fixed_sweep(cfg).rows]
    # 0.33 -> 0.07 -> 0.01 at these sizes; gaps dwarf the MC stderr
    assert risks == sorted(risks, reverse=True)


# ---------------------------------------------------------------------------
# random-design sweeps


def test_random_sweep_reproducible_and_statdim_free():
    cfg = _cfg(design="random", n_grid=(30,), replicates=8,
               sampler=DesignSampler.uniform(2))
    a = run_random_sweep(cfg)
    b = run_random_sweep(cfg)
    assert a.rows == b.rows
    assert a.rows[0].statdim_mean is None
    assert a.rows[0].risk_mean > 0


def test_random_sweep_translation_invariance():
    def shifted(x):
        return np.full(len(x), 0.5)

    base = _cfg(design="random", n_grid=(25,), replicates=10,
                sampler=DesignSampler.uniform(2))
    zero = run_random_sweep(base)
    const = run_random_sweep(_cfg(design="random", n_grid=(25,), replicates=10,
                                  sampler=DesignSampler.uniform(2),
                                  signal=shifted))
    # same noise streams; risk is translation invariant up to roundoff
    assert math.isclose(zero.rows[0].risk_mean, const.rows[0].risk_mean,
                        rel_tol=1e-9)


def test_random_sweep_rejects_spec_signal():
    with pytest.raises((TypeError, ValueError)):
        run_random_sweep(_cfg(design="random", signal=SignalSpec.linear_mean(),
                              sampler=DesignSampler.uniform(2)))


def test_random_sweep_zero_signal_tracks_lattice_statdim():
    cfg = _cfg(design="random", n_grid=(256,), replicates=10, seed=2)
    row = run_random_sweep(cfg).rows[0]
    scaled = row.risk_mean * 256
    # the all-ones direction alone already contributes 1 in expectation
    assert scaled >= 1.0
    # same n on the regular grid: the two complexities stay within 3x
    sd = statdim_mc(build_lattice(LatticeSpec((16, 16))), 100, seed=0)
    assert sd.mean / 3 < scaled < sd.mean * 3


def test_random_sweep_population_risk_notes(tmp_path):
    def my_truth(x):
        return x.mean(axis=1)

    kw = dict(design="random", n_grid=(20,), replicates=6,
              sampler=DesignSampler.uniform(2), signal=my_truth)
    plain = run_random_sweep(_cfg(**kw))
    withp = run_random_sweep(_cfg(**kw, mc_points=64))
    # integration draws live on dedicated streams: rows are untouched
    assert plain.rows == withp.rows
    assert plain.notes == {}
    est = withp.notes["l2p"]["20"]
    assert est["mc_points"] == 64
    assert math.isfinite(est["mean"]) and est["mean"] > 0.0
    assert est["stderr"] >= 0.0
    again = run_random_sweep(_cfg(**kw, mc_points=64))
    assert again.notes == withp.notes

    path = tmp_path / "rep.json"
    emit_report(withp, "json", str(path))
    back = read_report(str(path))
    assert back.notes == withp.notes


# ---------------------------------------------------------------------------
# reports


def _toy_report():
    rows = [RiskRow(experiment="t", d=2, n=n, replicates=5, seed=0,
                    risk_mean=2.0 * n ** -0.5, risk_stderr=0.01,
                    statdim_mean=None, bound_C1=1.0, slope_fit=None)
            for n in (4, 16, 64)]
    return RiskReport(config={"experiment": "t"}, rows=rows)


def test_emit_and_read_csv_round_trip(tmp_path):
    report = _toy_report()
    path = str(tmp_path / "r.csv")
    emit_report(report, "csv", path)
    back = read_report(path)
    assert back.rows == report.rows
    text = open(path).read()
    assert text.splitlines()[0] == ",".join(RISK_COLUMNS)
    assert "\r" not in text


def test_emit_and_read_json_round_trip(tmp_path):
    report = _toy_report()
    path = str(tmp_path / "r.json")
    emit_report(report, "json", path)
    back = read_report(path)
    assert back.rows == report.rows
    assert back.config == report.config
    payload = json.loads(open(path).read())
    assert "version" in payload


def test_emit_empty_report_writes_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_report(RiskReport(config={}, rows=[]), "csv", path)
    lines = open(path).read().splitlines()
    assert lines == [",".join(RISK_COLUMNS)]
    assert read_report(path).rows == []


def test_read_report_rejects_foreign_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_report(str(path))


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report(_toy_report(), "xml", str(tmp_path / "r.xml"))


# ---------------------------------------------------------------------------
# rate fits


def test_fit_rate_exponent_recovers_power_law():
    slope, stderr = fit_rate_exponent(_toy_report().rows)
    assert math.isclose(slope, -0.5, abs_tol=1e-12)
    assert stderr < 1e-12


def test_fit_rate_exponent_needs_three_sizes():
    rows = _toy_report().rows[:2]
    with pytest.raises(ValueError):
        fit_rate_exponent(rows)


def test_fit_rate_exponent_on_polylog_curve():
    # risk n^(-1/3) log^4 n over n = 3^6..3^12: the log factor flattens the
    # apparent slope from -1/3 all the way above zero at these sizes
    pairs = [(n, n ** (-1 / 3) * math.log(n) ** 4)
             for n in (3.0 ** k for k in range(6, 13))]
    slope, _ = fit_rate_exponent(pairs)
    oracle = np.polyfit(np.log([n for n, _ in pairs]),
                        np.log([r for _, r in pairs]), 1)[0]
    assert math.isclose(slope, oracle, rel_tol=1e-12)
    assert -1 / 3 < slope < 0.2
    assert math.isclose(slope, 0.0836, abs_tol=5e-4)


def test_sweep_populates_slope_on_three_sizes():
    cfg = _cfg(n_grid=(4, 16, 64), replicates=6)
    report = run_fixed_sweep(cfg)
    slopes = {row.slope_fit for row in report.rows}
    assert len(slopes) == 1
    slope = slopes.pop()
    manual, _ = fit_rate_exponent(report.rows)
    assert slope == manual
    assert -1.2 < slope < -0.1


# ---------------------------------------------------------------------------
# reference table


def test_table1_chain_column_matches_harmonic():
    rows, slope = table1(replicates=30, seed=1, dims=(1,))
    assert [r.n for r in rows] == list(TABLE1_GRIDS[1])
    assert slope is None
    for row in rows:
        assert row.reference is not None
        assert abs(row.statdim_mean - row.reference) <= 4 * row.statdim_stderr


def test_non_converging_replicate_stops_the_sweep(monkeypatch):
    from isodag import experiments
    from isodag.solvers import ConvergenceError

    def fail(dag, y, **kw):
        raise ConvergenceError("forced", None)

    monkeypatch.setattr(experiments, "lse_fit", fail)
    with pytest.raises(ConvergenceError):
        run_fixed_sweep(_cfg(n_grid=(4, 9), replicates=3))
    with pytest.raises(ConvergenceError):
        run_random_sweep(_cfg(design="random", n_grid=(10, 20), replicates=4))
