"""Monte Carlo instruments and closed-form complexity bounds."""

import dataclasses
import math

import numpy as np
import pytest

from isodag import complexity
from isodag.complexity import (
    BOUND_NAMES,
    MC_UNION_VERTICES,
    BoundParams,
    bound_eval,
    default_gamma,
    gaussian_width_mc,
    harmonic_sum,
    log_plus,
    mc_aggregate,
    noise_stream,
    statdim_mc,
    width_lower_bound_mc,
)
from isodag.orders import (Dag, LatticeSpec, build_design_dag, build_lattice,
                           level_antichain_report)
from isodag.signals import AssouadSpec, assouad_fixed
from isodag.solvers import is_chain, lse_fit


# ---------------------------------------------------------------------------
# streams and aggregation


def test_noise_stream_reproducible_and_distinct():
    a = noise_stream(7, 3).standard_normal(5)
    b = noise_stream(7, 3).standard_normal(5)
    c = noise_stream(7, 4).standard_normal(5)
    d = noise_stream(8, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_mc_aggregate_pinned():
    est = mc_aggregate([1.0, 2.0, 3.0], seed=5, stream_id=2)
    assert est.mean == 2.0
    assert math.isclose(est.stderr, 1.0 / math.sqrt(3), rel_tol=1e-15)
    assert est.replicates == 3 and est.seed == 5 and est.stream_id == 2


def test_mc_aggregate_validation():
    with pytest.raises(ValueError):
        mc_aggregate([1.0], seed=0, stream_id=0)
    with pytest.raises(ValueError):
        mc_aggregate([[1.0, 2.0]], seed=0, stream_id=0)


# ---------------------------------------------------------------------------
# statistical dimension


def test_statdim_chain_matches_harmonic_sum():
    for n in (2, 8):
        dag = build_lattice(LatticeSpec((n,)))
        est = statdim_mc(dag, replicates=1500, seed=11)
        assert abs(est.mean - harmonic_sum(n)) <= 3.5 * est.stderr


def test_statdim_edgeless_dag_is_identity_projection():
    n = 6
    dag = Dag(n_vertices=n, cover_edges=np.zeros((0, 2), dtype=np.int64))
    est = statdim_mc(dag, replicates=800, seed=3)
    assert abs(est.mean - n) <= 3.5 * est.stderr


def test_statdim_deterministic_and_stream_layout():
    dag = build_lattice(LatticeSpec((3, 3)))
    est = statdim_mc(dag, replicates=40, seed=9, stream_id=5)
    again = statdim_mc(dag, replicates=40, seed=9, stream_id=5)
    assert est == again
    # documented layout: replicate r reads stream stream_id + r
    from isodag.solvers import lse_fit

    w = dag.weights()
    vals = []
    for r in range(40):
        eps = noise_stream(9, 5 + r).standard_normal(dag.n_vertices)
        theta = lse_fit(dag, eps).theta_hat
        vals.append(float(np.dot(w * theta, theta)))
    manual = mc_aggregate(vals, seed=9, stream_id=5)
    assert manual == est
    other = statdim_mc(dag, replicates=40, seed=9, stream_id=45)
    assert other.mean != est.mean


def _batch_cases():
    # (dag, replicates): a lattice whose replicate count leaves a short last
    # union (35 vertices, 58 copies per union: 58 + 58 + 14); a weighted
    # design with merged duplicates, whose multiplicities are tiled; a
    # chain; and an order above the vertex budget, fitted alone.
    grid = np.random.default_rng(5).integers(0, 5, (60, 2)) / 4.0
    design = build_design_dag(grid)
    assert design.multiplicities is not None
    return [(build_lattice(LatticeSpec((5, 7))), 130), (design, 90),
            (build_lattice(LatticeSpec((7,))), 20),
            (build_lattice(LatticeSpec((46, 46))), 3)]


@pytest.mark.parametrize("case", range(4))
def test_batched_replicates_equal_separate_fits_bitwise(case):
    dag, reps = _batch_cases()[case]
    w = dag.weights()
    sq = []
    for r in range(reps):
        theta = lse_fit(dag, noise_stream(3, 17 + r).standard_normal(dag.n_vertices)).theta_hat
        sq.append(np.dot(w * theta, theta))
    assert np.array_equal(complexity.fit_errors(dag, 0.0, reps, 3, 17), sq)
    assert statdim_mc(dag, reps, seed=3, stream_id=17) == mc_aggregate(sq, 3, 17)
    assert gaussian_width_mc(dag, reps, seed=3, stream_id=17) == mc_aggregate(
        np.sqrt(sq), 3, 17)


@pytest.mark.parametrize("case", range(4))
def test_batched_unions_stay_within_the_vertex_budget(case, monkeypatch):
    dag, reps = _batch_cases()[case]
    n = dag.n_vertices
    sizes = []

    def recording_fit(union, y):
        sizes.append(union.n_vertices)
        return lse_fit(union, y)

    monkeypatch.setattr(complexity, "lse_fit", recording_fit)
    statdim_mc(dag, reps, seed=0)
    per_fit = 1 if is_chain(dag) else max(1, MC_UNION_VERTICES // n)
    assert len(sizes) == math.ceil(reps / per_fit)
    assert sum(sizes) == reps * n
    assert all(size <= MC_UNION_VERTICES or size == n for size in sizes)


def test_statdim_replicate_validation():
    dag = build_lattice(LatticeSpec((3,)))
    with pytest.raises(ValueError):
        statdim_mc(dag, replicates=1, seed=0)


# ---------------------------------------------------------------------------
# gaussian width


def test_width_at_most_sqrt_statdim():
    dag = build_lattice(LatticeSpec((4, 4)))
    sd = statdim_mc(dag, replicates=300, seed=2)
    wd = gaussian_width_mc(dag, replicates=300, seed=2)
    # same draws, so Jensen holds sample by sample
    assert wd.mean <= math.sqrt(sd.mean) + 1e-12


def test_width_two_chain_matches_closed_form():
    # Split on the projection: a draw already in the cone keeps its chi_2
    # norm; otherwise it lands on the diagonal with norm |g1+g2|/sqrt(2),
    # a half-normal.  Both events have probability 1/2 and are independent
    # of the retained coordinate, so the width is the average of
    # E chi_2 = sqrt(pi/2) and E|N(0,1)| = sqrt(2/pi).
    target = (math.sqrt(math.pi / 2) + math.sqrt(2 / math.pi)) / 2
    dag = build_lattice(LatticeSpec((2,)))
    wd = gaussian_width_mc(dag, replicates=4000, seed=6)
    assert abs(wd.mean - target) <= 3.5 * wd.stderr


def test_width_lower_bound_square():
    spec = LatticeSpec((3, 3))
    dag = build_lattice(spec)
    report = level_antichain_report(spec)
    est, target = width_lower_bound_mc(dag, report, replicates=2000, seed=4)
    assert math.isclose(target, math.sqrt(2 / math.pi) * 3 / 3.0, rel_tol=1e-15)
    assert abs(est.mean - target) <= 3.5 * est.stderr
    wd = gaussian_width_mc(dag, replicates=2000, seed=4)
    assert wd.mean >= est.mean - 3.5 * (wd.stderr + est.stderr)


def test_width_lower_bound_requires_partition():
    spec = LatticeSpec((3, 3))
    dag = build_lattice(spec)
    report = level_antichain_report(spec)
    broken = dataclasses.replace(report, lower_split=report.lower_split[:-1])
    with pytest.raises(ValueError):
        width_lower_bound_mc(dag, broken, replicates=4, seed=0)
    # right counts, wrong vertices: one lower vertex is missing and an upper
    # one appears twice, which a count comparison alone lets through
    spec = LatticeSpec((4, 4))
    dag = build_lattice(spec)
    report = level_antichain_report(spec)
    swapped = dataclasses.replace(
        report, lower_split=np.r_[report.lower_split[:-1], report.upper_split[0]])
    with pytest.raises(ValueError, match="partition"):
        width_lower_bound_mc(dag, swapped, replicates=5, seed=0)
    with pytest.raises(ValueError, match="partition"):
        assouad_fixed(dag, swapped, AssouadSpec(tau=(0,) * len(report.antichain)))


# ---------------------------------------------------------------------------
# closed forms


def test_harmonic_sum_pinned():
    assert harmonic_sum(1) == 1.0
    assert harmonic_sum(2) == 1.5
    assert math.isclose(harmonic_sum(4), 25.0 / 12.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        harmonic_sum(0)


def test_log_plus():
    assert log_plus(1.0) == 1.0
    assert log_plus(0.1) == 1.0
    assert math.isclose(log_plus(math.e ** 3), 3.0, rel_tol=1e-12)


def test_default_gamma():
    assert default_gamma(2) == 4.5
    assert default_gamma(3) == 6.5
    assert default_gamma(4) == 10.5
    with pytest.raises(ValueError):
        default_gamma(1)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(d=0)
    with pytest.raises(ValueError):
        BoundParams(d=2, C=0.0)


def test_bound_eval_pinned():
    p2 = BoundParams(d=2, C=2.0)
    assert math.isclose(bound_eval("worst_fixed", p2, 100),
                        2.0 * 0.1 * math.log(100) ** 4, rel_tol=1e-15)
    # saturated oracle bounds collapse to the constant
    assert bound_eval("sheet_oracle", p2, 50, K=50) == 2.0
    assert bound_eval("block_oracle", p2, 50, k=50) == 2.0
    assert math.isclose(bound_eval("block_oracle", p2, 64, k=1),
                        2.0 * (1 / 64) * math.log(64) ** 8, rel_tol=1e-15)
    assert math.isclose(bound_eval("worst_random", p2, 100),
                        2.0 * 0.1 * math.log(100) ** 4.5, rel_tol=1e-15)
    assert math.isclose(
        bound_eval("worst_random", BoundParams(d=2, gamma=2.0), 100),
        0.1 * math.log(100) ** 2, rel_tol=1e-15)
    assert math.isclose(
        bound_eval("block_oracle_random", BoundParams(d=3), 1000, k=8),
        (8 / 1000) ** (2 / 3) * math.log(125) ** 13.0, rel_tol=1e-12)


def test_bound_eval_few_variables_cases():
    p3 = BoundParams(d=3)
    n = 729
    assert math.isclose(bound_eval("few_variables", p3, n, r=0),
                        n ** (-2 / 3) * math.log(n) ** 8, rel_tol=1e-12)
    assert bound_eval("few_variables", p3, n, r=1) == \
        bound_eval("few_variables", p3, n, r=0)
    assert math.isclose(bound_eval("few_variables", p3, n, r=2),
                        n ** (-4 / 9) * math.log(n) ** (16 / 3), rel_tol=1e-12)
    assert math.isclose(bound_eval("few_variables", p3, n, r=3),
                        n ** (-1 / 3) * math.log(n) ** 4, rel_tol=1e-12)


def test_bound_eval_validation():
    p = BoundParams(d=2)
    with pytest.raises(ValueError):
        bound_eval("sheet_oracle", p, 10)  # missing K
    with pytest.raises(ValueError):
        bound_eval("block_oracle", p, 10, k=11)
    with pytest.raises(ValueError):
        bound_eval("few_variables", p, 10, r=3)
    with pytest.raises(ValueError):
        bound_eval("no_such_bound", p, 10)
    with pytest.raises(ValueError):
        bound_eval("worst_fixed", p, 0)
    assert len(BOUND_NAMES) == 6
