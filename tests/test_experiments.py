"""Sweep harness: reproducible replicate streams, reports, rate fits."""

import json
import math

import numpy as np
import pytest

from isodag import complexity, experiments
from isodag.complexity import MC_UNION_VERTICES, noise_stream, statdim_mc
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
from isodag.signals import SignalSpec, generate_signal
from isodag.solvers import is_chain, lse_fit


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


# The echo bytes of two configs, pinned: key order, tuples as lists, a spec
# without its None fields, a sampler as its fields, a callable by its name.
LATTICE_ECHO = """\
{
  "experiment": "echo-lattice",
  "d": 2,
  "n_grid": [
    16,
    64
  ],
  "signal": {
    "kind": "staircase",
    "value": 0.0,
    "axis": 1,
    "cuts": [
      2
    ],
    "levels": [
      -1.0,
      0.5
    ],
    "axes": [],
    "bounded": true
  },
  "design": "lattice",
  "sampler": null,
  "replicates": 7,
  "mc_points": 0,
  "seed": 3,
  "out_path": "out/a.json"
}"""

RANDOM_ECHO = """\
{
  "experiment": "echo-random",
  "d": 2,
  "n_grid": [
    50
  ],
  "signal": "named",
  "design": "random",
  "sampler": {
    "d": 2,
    "level": 1,
    "cell_values": [
      0.5,
      1.5,
      1.5,
      0.5
    ],
    "m0": 0.5,
    "M0": 1.5
  },
  "replicates": 4,
  "mc_points": 20,
  "seed": 11,
  "out_path": null
}"""


def test_config_echo_bytes_are_pinned():
    def named(x):
        return x[:, 0]

    lattice = ExperimentConfig(
        experiment="echo-lattice", d=2, n_grid=(16, 64),
        signal=SignalSpec.staircase(1, (2,), (-1.0, 0.5), bounded=True),
        replicates=7, seed=3, out_path="out/a.json")
    random = ExperimentConfig(
        experiment="echo-random", d=2, n_grid=(50,), signal=named, design="random",
        sampler=DesignSampler.checkerboard(2), replicates=4, mc_points=20, seed=11)
    assert json.dumps(lattice.to_dict(), indent=2) == LATTICE_ECHO
    assert json.dumps(random.to_dict(), indent=2) == RANDOM_ECHO


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


def test_random_sweep_refuses_d1_before_any_draw(monkeypatch):
    """The random-design bounds define gamma only for d >= 2, so a d = 1
    sweep fails before its first draw or fit, not after every fit."""
    calls = []
    monkeypatch.setattr(experiments, "draw_design", lambda *a: calls.append("draw"))
    monkeypatch.setattr(experiments, "lse_fit", lambda *a: calls.append("fit"))
    with pytest.raises(ValueError, match="gamma only for d >= 2"):
        run_random_sweep(_cfg(design="random", d=1, n_grid=(10, 20), replicates=3))
    assert calls == []


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


def test_failed_replicate_stops_the_sweep(monkeypatch):
    class FitFailed(Exception):
        pass

    def fail(dag, y, **kw):
        raise FitFailed

    # lattice sweeps fit through complexity's replicate engine
    monkeypatch.setattr(complexity, "lse_fit", fail)
    monkeypatch.setattr(experiments, "lse_fit", fail)
    with pytest.raises(FitFailed):
        run_fixed_sweep(_cfg(n_grid=(4, 9), replicates=3))
    with pytest.raises(FitFailed):
        run_random_sweep(_cfg(design="random", n_grid=(10, 20), replicates=4))


@pytest.mark.parametrize("d", [2, 3])
def test_random_sweep_merges_each_design_once(d, monkeypatch):
    """Each replicate's points are merged once: the sweep hands its merge to
    the builder, which does not merge again."""
    from isodag import orders

    calls = []
    real = orders.merge_duplicates
    spy = lambda points: calls.append(len(points)) or real(points)
    monkeypatch.setattr(orders, "merge_duplicates", spy)
    monkeypatch.setattr(experiments, "merge_duplicates", spy)
    run_random_sweep(_cfg(design="random", d=d, n_grid=(12, 20), replicates=3))
    assert calls == [12] * 3 + [20] * 3


# ---------------------------------------------------------------------------
# lattice sweeps fit a size's replicates as disjoint unions


def _union_sweep_cases():
    # A d=3 linear signal whose 512-vertex size leaves a short last union
    # (4 copies per union: 4 + 2); a d=2 staircase (20 copies: 20 + 10); a
    # chain, one fit per replicate; and a lattice above half the vertex
    # budget, also one fit per replicate.
    return [
        _cfg(d=3, n_grid=(64, 512), replicates=6, seed=2,
             signal=SignalSpec.linear_mean()),
        _cfg(d=2, n_grid=(16, 100), replicates=30, seed=3,
             signal=SignalSpec.staircase(0, (2, 4), (-1.0, 0.0, 1.0))),
        _cfg(d=1, n_grid=(8, 40), replicates=12, seed=4,
             signal=SignalSpec.linear_mean()),
        _cfg(d=2, n_grid=(1089,), replicates=3, seed=5,
             signal=SignalSpec.linear_mean()),
    ]


@pytest.mark.parametrize("case", range(4))
def test_sweep_fits_equal_separate_fits_bitwise(case, monkeypatch):
    config = _union_sweep_cases()[case]
    fitted = []
    real_fit_replicates = complexity.fit_replicates

    def recording_fits(dag, ys):
        thetas = list(real_fit_replicates(dag, ys))
        fitted.append(thetas)
        return thetas

    monkeypatch.setattr(complexity, "fit_replicates", recording_fits)
    report = run_fixed_sweep(config)
    assert len(fitted) == len(config.n_grid)
    for j, (n, row, thetas) in enumerate(zip(config.n_grid, report.rows, fitted)):
        spec = LatticeSpec((lattice_side(n, config.d),) * config.d)
        dag = build_lattice(spec)
        theta0 = generate_signal(config.signal, spec)
        assert len(thetas) == config.replicates
        qs = []
        for r, theta in enumerate(thetas):
            eps = noise_stream(config.seed, j * config.replicates + r).standard_normal(n)
            alone = lse_fit(dag, theta0 + eps).theta_hat
            assert np.array_equal(theta, alone), (n, r)
            diff = alone - theta0
            qs.append(np.dot(dag.weights() * diff, diff))
        assert row.risk_mean == float(np.mean(qs)) / n


@pytest.mark.parametrize("case", range(4))
def test_sweep_unions_stay_within_the_vertex_budget(case, monkeypatch):
    config = _union_sweep_cases()[case]
    sizes = []

    def recording_fit(union, y):
        sizes.append(union.n_vertices)
        return lse_fit(union, y)

    monkeypatch.setattr(complexity, "lse_fit", recording_fit)
    run_fixed_sweep(config)
    reps = config.replicates
    for n in config.n_grid:
        dag = build_lattice(LatticeSpec((lattice_side(n, config.d),) * config.d))
        per_fit = 1 if is_chain(dag) else max(1, MC_UNION_VERTICES // n)
        calls = math.ceil(reps / per_fit)
        mine, sizes = sizes[:calls], sizes[calls:]
        assert len(mine) == calls
        assert sum(mine) == reps * n
        assert all(size <= MC_UNION_VERTICES or size == n for size in mine)
    assert sizes == []
