"""Random designs, the increasing extension, and chain/antichain statistics."""

import math

import numpy as np
import pytest
from scipy import stats

from isodag.complexity import noise_stream
from isodag.design import (
    AntichainStats,
    DesignSampler,
    FittedFunction,
    antichain_stats,
    chain_probability_formulas,
    chain_tail_check,
    draw_design,
    empirical_risk,
    extend_estimator,
    l2p_risk_mc,
    sample_design,
)
from isodag.orders import build_design_dag, longest_chain, maximum_antichain


# ---------------------------------------------------------------------------
# samplers


def test_uniform_sampler():
    s = DesignSampler.uniform(2)
    assert s.m0 == s.M0 == 1.0
    assert s.cell_values == (1.0,)


def test_uniform_sampler_chi_square_goodness_of_fit():
    s = DesignSampler.uniform(2)
    pts = sample_design(s, 10_000, seed=2)
    assert np.all((pts >= 0.0) & (pts <= 1.0))
    cells = np.minimum((pts * 4).astype(int), 3)
    observed = np.bincount(cells[:, 0] * 4 + cells[:, 1], minlength=16)
    expected = 10_000 / 16
    chi2 = float(np.sum((observed - expected) ** 2) / expected)
    assert chi2 < stats.chi2.ppf(0.999, df=15)


def test_checkerboard_sampler_frequencies():
    s = DesignSampler.checkerboard(2, low=0.5, high=1.5)
    assert s.m0 == 0.5 and s.M0 == 1.5
    pts = sample_design(s, 40_000, seed=1)
    assert pts.shape == (40_000, 2)
    assert np.all((pts >= 0) & (pts <= 1))
    # cell (0, 0) has density low=0.5 -> mass 0.5/4
    in_low = np.all(pts < 0.5, axis=1)
    freq = in_low.mean()
    assert abs(freq - 0.5 / 4) < 0.01


def test_sampler_validation():
    with pytest.raises(ValueError):
        DesignSampler(d=2, level=1, cell_values=(1.0,), m0=1.0, M0=1.0)
    with pytest.raises(ValueError):
        DesignSampler(d=1, level=0, cell_values=(1.0,), m0=0.0, M0=1.0)
    with pytest.raises(ValueError):
        DesignSampler(d=1, level=0, cell_values=(2.0,), m0=1.0, M0=1.0)
    with pytest.raises(ValueError):
        DesignSampler(d=1, level=1, cell_values=(0.5, 0.9), m0=0.5, M0=1.0)
    with pytest.raises(ValueError):
        DesignSampler.checkerboard(2, low=0.5, high=1.0)


def test_sampler_errors_name_the_bad_setting():
    with pytest.raises(ValueError, match=r"^need d >= 1, got d=0$"):
        DesignSampler.uniform(0)
    with pytest.raises(ValueError, match=r"^need level >= 0, got level=-1$"):
        DesignSampler(d=1, level=-1, cell_values=(1.0,), m0=1.0, M0=1.0)


def test_from_values_widens_band_to_include_one():
    s = DesignSampler.from_values(1, 1, (0.5, 1.5))
    assert s.m0 == 0.5 and s.M0 == 1.5
    t = DesignSampler.from_values(1, 0, (1.0,), m0=0.25, M0=4.0)
    assert t.m0 == 0.25 and t.M0 == 4.0


def test_draw_reproducible():
    s = DesignSampler.uniform(3)
    a = sample_design(s, 50, seed=4, stream_id=2)
    b = draw_design(noise_stream(4, 2), s, 50)
    assert np.array_equal(a, b)
    c = sample_design(s, 50, seed=4, stream_id=3)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        draw_design(noise_stream(0, 0), s, 0)


# ---------------------------------------------------------------------------
# increasing extension


def test_extension_rules():
    pts = np.array([[0.2, 0.2], [0.8, 0.8]])
    fit = FittedFunction.from_fit(pts, np.array([1.0, 3.0]))
    assert fit.max_fitted == 3.0
    # dominated by both -> min of fitted values
    assert extend_estimator(fit, np.array([0.1, 0.1])) == 1.0
    # dominated only by the upper point
    assert extend_estimator(fit, np.array([0.5, 0.5])) == 3.0
    # dominated by nothing -> max fitted
    assert extend_estimator(fit, np.array([0.9, 0.1])) == 3.0
    # at a design point, returns its own value
    assert extend_estimator(fit, pts[0]) == 1.0


def test_extension_batch_matches_single_and_is_monotone():
    rng = np.random.default_rng(0)
    pts = rng.random((40, 3))
    vals = np.sort(rng.random(40))[np.argsort(np.argsort(pts.sum(axis=1)))]
    fit = FittedFunction.from_fit(pts, vals)
    queries = rng.random((300, 3))
    batch = extend_estimator(fit, queries)
    singles = np.array([extend_estimator(fit, q) for q in queries])
    assert np.array_equal(batch, singles)
    for _ in range(200):
        i, j = rng.integers(0, 300, 2)
        if np.all(queries[i] <= queries[j]):
            assert batch[i] <= batch[j] + 1e-12


def test_extension_dimension_check():
    fit = FittedFunction.from_fit(np.zeros((2, 2)), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        extend_estimator(fit, np.zeros(3))
    with pytest.raises(ValueError):
        FittedFunction.from_fit(np.zeros((2, 2)), np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_extension_refuses_points_outside_the_cube(bad):
    """Design points and queries go through the one point check: a ``nan``
    coordinate is refused as one outside the cube is, not read as a value."""
    fit = FittedFunction.from_fit(np.array([[0.2, 0.2], [0.8, 0.8]]), np.array([1.0, 3.0]))
    for query in ([bad, 0.5], [[0.1, 0.1], [0.5, bad]]):
        with pytest.raises(ValueError, match=r"\[0, 1\]\^d"):
            extend_estimator(fit, query)
    with pytest.raises(ValueError, match=r"\[0, 1\]\^d"):
        FittedFunction.from_fit(np.array([[0.2, bad], [0.8, 0.8]]), np.array([1.0, 3.0]))


def test_empirical_risk():
    fit = FittedFunction.from_fit(np.zeros((2, 1)), np.array([1.0, 2.0]))
    assert empirical_risk(fit, np.array([0.0, 0.0])) == 2.5
    with pytest.raises(ValueError):
        empirical_risk(fit, np.zeros(3))


def test_l2p_risk_mc_exact_recovery_is_zero():
    # fit sits exactly on a constant truth: population risk 0
    s = DesignSampler.uniform(2)
    pts = sample_design(s, 30, seed=6)
    fit = FittedFunction.from_fit(pts, np.full(30, 0.7))

    def f0(x):
        return np.full(len(x), 0.7)

    est = l2p_risk_mc(fit, f0, s, mc_points=200, seed=7)
    assert est.mean == 0.0 and est.stderr == 0.0
    with pytest.raises(ValueError):
        l2p_risk_mc(fit, f0, s, mc_points=1, seed=7)


def test_l2p_risk_mc_linear_truth():
    s = DesignSampler.uniform(1)
    pts = sample_design(s, 500, seed=8)

    def f0(x):
        return x[:, 0]

    fit = FittedFunction.from_fit(pts, f0(pts))
    est = l2p_risk_mc(fit, f0, s, mc_points=2000, seed=9)
    # dense design, 1-Lipschitz truth: extension error is O(1/n) pointwise
    assert est.mean < 1e-3


def test_l2p_risk_mc_integrates_first_coordinate():
    # choose f0 so that fhat - f0 is exactly x -> x_1; the integral under
    # the uniform density is then 1/3 whatever the fit looks like
    s = DesignSampler.uniform(2)
    pts = sample_design(s, 40, seed=10)
    fit = FittedFunction.from_fit(pts, pts.sum(axis=1))

    def f0(x):
        return extend_estimator(fit, x) - x[:, 0]

    est = l2p_risk_mc(fit, f0, s, mc_points=4000, seed=11)
    assert abs(est.mean - 1.0 / 3.0) <= 3.5 * est.stderr


# ---------------------------------------------------------------------------
# order statistics


def test_antichain_stats_shape_and_bound():
    s = DesignSampler.uniform(2)
    st = antichain_stats(2, 50, s, replicates=20, seed=1)
    assert isinstance(st, AntichainStats)
    assert st.sizes.shape == (20,)
    assert math.isclose(st.bound, 50 ** 0.5 / (2 * math.e), rel_tol=1e-15)
    assert st.mean_size == st.sizes.mean()
    assert 0.0 <= st.fraction_meeting_bound <= 1.0
    # the 1/(2e) target is loose: every draw should clear it comfortably
    assert st.fraction_meeting_bound == 1.0
    with pytest.raises(ValueError):
        antichain_stats(3, 10, s, replicates=5, seed=0)
    with pytest.raises(ValueError):
        antichain_stats(2, 10, s, replicates=0, seed=0)


def test_antichain_stats_single_point():
    s = DesignSampler.uniform(2)
    st = antichain_stats(2, 1, s, replicates=3, seed=0)
    assert np.all(st.sizes == 1)


def test_planar_antichain_mean_matches_baik_deift_johansson():
    # A maximum antichain of n uniform points in the square is a longest
    # decreasing subsequence of a random permutation, whose mean is
    # 2 sqrt(n) + c n^(1/6) + o(n^(1/6)) with c = -1.7711, the mean of the
    # Tracy-Widom GUE law (Baik, Deift & Johansson 1999).  This is the
    # theory behind criterion 08's band [1.2, 2.5] sqrt(n).
    n, reps = 4000, 20
    st = antichain_stats(2, n, DesignSampler.uniform(2), replicates=reps, seed=0)
    predicted = 2.0 * math.sqrt(n) - 1.7711 * n ** (1.0 / 6.0)
    se = float(np.std(st.sizes, ddof=1)) / math.sqrt(reps)
    assert abs(st.mean_size - predicted) <= 4.0 * se, (st.mean_size, predicted, se)


def test_chain_probability_formulas_relations():
    out = chain_probability_formulas(2, 50, 10)
    kfac = math.factorial(10)
    assert math.isclose(out["union_bound"], out["ordered_tuple"] * kfac,
                        rel_tol=1e-12)
    assert math.isclose(out["subset_exact_uniform"], 1.0 / kfac, rel_tol=1e-12)
    # d = 2, k = 2: two points form a chain iff the coordinate orders agree
    out2 = chain_probability_formulas(2, 2, 2)
    assert math.isclose(out2["subset_exact_uniform"], 0.5, rel_tol=1e-12)
    assert math.isclose(out2["union_bound"], 0.5, rel_tol=1e-12)
    # M0 scales the k-point mass
    heavy = chain_probability_formulas(2, 50, 10, M0=2.0)
    assert math.isclose(heavy["ordered_tuple"], out["ordered_tuple"] * 2 ** 10,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        chain_probability_formulas(2, 5, 6)
    with pytest.raises(ValueError):
        chain_probability_formulas(2, 5, 2, M0=0.5)


def test_chain_tail_frequency_respects_union_bound():
    # regime where the fixed-order expression understates the chain
    # probability: frequency beats it but stays under the union bound
    d, n, k = 2, 50, 10
    expr, freq = chain_tail_check(d, n, k, replicates=60, seed=3)
    union = min(1.0, chain_probability_formulas(d, n, k)["union_bound"])
    assert freq <= union + 1e-12
    assert expr == min(1.0, chain_probability_formulas(d, n, k)["ordered_tuple"])
    # small-k regime where both expressions are moderate
    expr2, freq2 = chain_tail_check(3, 30, 6, replicates=60, seed=5)
    union2 = min(1.0, chain_probability_formulas(3, 30, 6)["union_bound"])
    assert freq2 <= union2 + 1e-12


def test_chain_tail_long_chains_are_never_seen():
    # k far in the tail: the expression is astronomically small and no
    # 30-chain ever shows up among 100 uniform points
    expr, freq = chain_tail_check(2, 100, 30, replicates=200, seed=4)
    assert expr < 1e-6
    assert freq == 0.0


def test_chain_tail_check_prices_its_bound_with_the_sampler_ceiling():
    """With a checkerboard sampler the expression uses that sampler's M0 = 1.5,
    and the frequency is the one its own design draws give."""
    d, n, k, reps = 2, 50, 10, 30
    sampler = DesignSampler.checkerboard(d)
    assert sampler.M0 == 1.5
    expr, freq = chain_tail_check(d, n, k, sampler=sampler, replicates=reps,
                                  seed=7, stream_id=4)
    priced = chain_probability_formulas(d, n, k, M0=1.5)["ordered_tuple"]
    assert expr == min(1.0, priced)
    assert expr > chain_tail_check(d, n, k, replicates=2)[0]
    hits = sum(len(longest_chain(build_design_dag(sample_design(sampler, n, 7, 4 + r))))
               >= k for r in range(reps))
    assert freq == hits / reps


def test_chain_tail_check_validation():
    with pytest.raises(ValueError):
        chain_tail_check(2, 10, 3, sampler=DesignSampler.uniform(3))
    with pytest.raises(ValueError):
        chain_tail_check(2, 10, 3, replicates=0)


def test_longest_chain_on_design_consistency():
    # the simulated statistic agrees with a direct computation on one draw
    s = DesignSampler.uniform(2)
    pts = draw_design(noise_stream(3, 0), s, 50)
    dag = build_design_dag(pts)
    chain = longest_chain(dag)
    anti = maximum_antichain(dag).antichain
    assert len(chain) * len(anti) >= dag.n_vertices  # Mirsky/Dilworth duality
