"""Cone projection: the chain route, partitioning and KKT certificates,
cross-checked against the Dykstra and min-max references."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isodag.complexity import noise_stream
from isodag.design import DesignSampler, draw_design, merge_observations
from isodag.orders import (Dag, LatticeSpec, build_design_dag, build_lattice,
                           disjoint_copies, is_isotonic)
from isodag.signals import SignalSpec, generate_signal
from isodag import solvers
from isodag.solvers import (
    CertificateError,
    ConvergenceError,
    IsotonicProblem,
    is_chain,
    lse_fit,
    project_partition,
    verify_projection_certificate,
)
from reference import minmax_project_oracle, project_dykstra

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def random_dag(rng, n, p=0.35):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Dag.from_edges(n, edges)


def _weighted(dag, w):
    """``dag`` with vertex weights ``w``, as merged duplicate points give."""
    return Dag(dag.n_vertices, dag.cover_edges, multiplicities=w)


# ---------------------------------------------------------------------------
# chains: lse_fit pools adjacent violators (scipy's PAVA)


def _chain(n):
    return build_lattice(LatticeSpec((n,)))


def test_pava_sorted_input_unchanged():
    y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(lse_fit(_chain(3), y).theta_hat, y)


def test_pava_single_violation_pools():
    out = lse_fit(_chain(2), np.array([2.0, 1.0])).theta_hat
    assert np.allclose(out, [1.5, 1.5])


def test_pava_weighted_pool():
    # pooled value is the weighted mean
    out = lse_fit(_weighted(_chain(2), [1.0, 3.0]), np.array([3.0, 0.0])).theta_hat
    assert np.allclose(out, [0.75, 0.75])


def test_pava_decreasing_input_pools_to_mean():
    y = np.arange(10, 0, -1, dtype=float)
    out = lse_fit(_chain(10), y).theta_hat
    assert np.allclose(out, np.full(10, y.mean()))


def test_pava_pools_along_the_order_not_the_ids():
    # along the chain 3 < 1 < 0 < 2 the data reads 0, 2, 1, 3
    dag = Dag.from_edges(4, [(3, 1), (1, 0), (0, 2)])
    assert is_chain(dag)
    y = np.array([1.0, 2.0, 3.0, 0.0])
    assert np.allclose(lse_fit(dag, y).theta_hat, [1.5, 1.5, 3.0, 0.0])


@given(arrays(np.float64, st.integers(1, 25), elements=finite_floats),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pava_is_projection(y, seed):
    """Nondecreasing output; optimal vs random isotonic competitors."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, y.size)
    out = lse_fit(_weighted(_chain(y.size), w), y).theta_hat
    assert np.all(np.diff(out) >= -1e-12)
    for _ in range(5):
        other = np.sort(rng.uniform(y.min() - 1, y.max() + 1, y.size))
        assert np.dot(w, (y - out) ** 2) <= np.dot(w, (y - other) ** 2) + 1e-9


@pytest.mark.parametrize("scale", [2.0 ** -52, 1e-300, 1e300, 5e307])
def test_pava_is_scale_free(scale):
    # 5e307 overflows the pooled weighted sums unless the data is rescaled
    rng = np.random.default_rng(8)
    y = rng.standard_normal(50)
    chain = _weighted(_chain(50), rng.uniform(0.5, 2.0, 50))
    base = lse_fit(chain, y).theta_hat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = lse_fit(chain, scale * y).theta_hat
    assert np.max(np.abs(scaled - scale * base)) <= 1e-12 * scale * np.max(np.abs(y))


# ---------------------------------------------------------------------------
# solver agreement and certificates


def test_is_chain():
    assert is_chain(build_lattice(LatticeSpec((4,))))
    assert not is_chain(build_lattice(LatticeSpec((2, 2))))
    assert is_chain(Dag(1, []))


@pytest.mark.parametrize("y", [[0.5, -1.25, 3.0], [-0.0, 1e300, -1e300],
                               [1e-300, -3e-300, 4.0], [7.0, 7.0, -2.0],
                               [2.2250738585072014e-309, 4.0, 4.0]])
def test_orders_without_edges_fit_to_their_data(y):
    """With no cover edge, the partition route (three vertices) and the chain
    route (one vertex) return the data bitwise with no violation, and so
    does the chain route on a two-vertex chain whose data is sorted, also
    where the binary rescaling takes a datum below the normal range."""
    y = np.array(y)
    for dag, data in ((Dag(3, []), y), (Dag(1, []), y[:1]),
                      (Dag(2, [(0, 1)]), np.sort(y[:2]))):
        result = lse_fit(dag, data)
        assert result.theta_hat.tobytes() == data.tobytes()
        assert result.max_violation == 0.0


@pytest.mark.parametrize("low", [[9, 3], [9, 8]])
def test_fits_of_rounded_subnormal_data_stay_isotonic(low):
    """In units of ``2**-1074``, rescaling ``[low, 4.0]`` by 1/4 takes 9 and
    3 to 2 and 1, which are pooled to 1.5 and rounded to 2, and 9 and 8 to a
    tie at 2, so neither entry may keep its datum: both are fitted at 8, on
    the chain route and (with an isolated fourth vertex) the partition
    route."""
    u = 2.0 ** -1074
    y = np.r_[np.array(low) * u, 4.0]
    for dag, data in ((Dag(3, [(0, 1), (1, 2)]), y), (Dag(4, [(0, 1), (1, 2)]), np.r_[y, 0.0])):
        result = lse_fit(dag, data)
        assert is_isotonic(dag, result.theta_hat)
        assert result.max_violation == 0.0
        assert result.theta_hat[:3].tobytes() == np.array([8 * u, 8 * u, 4.0]).tobytes()


@given(arrays(np.float64, 3, elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_data_is_isotonic_without_edges(y):
    assert is_isotonic(Dag(3, []), y)


def test_dykstra_matches_oracle_small():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        dag = random_dag(rng, n)
        y = rng.standard_normal(n)
        prob = IsotonicProblem(dag, y)
        ours = project_dykstra(prob, tol=1e-10).theta_hat
        oracle = minmax_project_oracle(prob)
        assert np.max(np.abs(ours - oracle)) < 1e-7, f"trial {trial}"


def test_dykstra_matches_oracle_weighted():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        dag = _weighted(random_dag(rng, n), rng.uniform(0.2, 3.0, n))
        prob = IsotonicProblem(dag, rng.standard_normal(n))
        ours = project_dykstra(prob, tol=1e-10).theta_hat
        oracle = minmax_project_oracle(prob)
        assert np.max(np.abs(ours - oracle)) < 1e-7


def test_certificate_accepts_true_projection():
    rng = np.random.default_rng(3)
    lattice = build_lattice(LatticeSpec((3, 3)))
    y = rng.standard_normal(9)
    # 6000 points on a 0.01 grid merge into more than 2000 weighted vertices
    pts = np.round(rng.random((6000, 2)), 2)
    design, ybar, _ = merge_observations(pts, pts.sum(axis=1) + rng.standard_normal(6000))
    assert design.n_vertices > 2000 and design.weights().max() > 1
    for dag, y in ((lattice, y), (design, ybar)):
        prob = IsotonicProblem(dag, y)
        cert = verify_projection_certificate(prob, lse_fit(dag, y).theta_hat)
        assert cert.reconstruction_error <= 1e-12 * np.sqrt(np.dot(prob.weights * y, y))
        assert np.all(cert.edge_multipliers >= 0)


def test_certificate_rejects_non_projection():
    dag = build_lattice(LatticeSpec((4,)))
    y = np.array([3.0, 1.0, 2.0, 0.0])
    prob = IsotonicProblem(dag, y)
    # isotonic but not the projection: residual correlates with feasible moves
    bogus = np.array([0.0, 0.5, 1.0, 1.5])
    with pytest.raises(CertificateError):
        verify_projection_certificate(prob, bogus)
    # not even isotonic
    with pytest.raises(CertificateError) as exc:
        verify_projection_certificate(prob, np.array([1.0, 0.0, 0.0, 0.0]))
    assert exc.value.condition == "isotonic"
    # isotonic and orthogonal to the residual, but not the projection [0.5, 0.5]:
    # no nonnegative multiplier on the one edge rebuilds the residual [1, 0]
    with pytest.raises(CertificateError) as exc:
        verify_projection_certificate(IsotonicProblem(_chain(2), np.array([1.0, 0.0])),
                                      np.zeros(2))
    assert exc.value.condition == "reconstruction"


def test_certificate_on_exact_data():
    # already isotonic input: projection is the identity, multipliers vanish
    dag = build_lattice(LatticeSpec((4,)))
    y = np.array([0.0, 1.0, 2.0, 3.0])
    cert = verify_projection_certificate(IsotonicProblem(dag, y), y.copy())
    assert cert.reconstruction_error < 1e-12


@pytest.mark.parametrize("scale", [2.0 ** -52, 1e-300, 1e-200, 1e200, 1e300])
def test_certificate_is_scale_free(scale):
    # Judged at unit binary scale: raw sums of squares would underflow to a
    # zero threshold below ~1e-154 and overflow above ~1e154.
    dag = build_lattice(LatticeSpec((6, 6)))
    y = scale * np.random.default_rng(0).standard_normal(36)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = lse_fit(dag, y).theta_hat
        cert = verify_projection_certificate(IsotonicProblem(dag, y), theta)
    assert cert.reconstruction_error <= 1e-12 * scale
    assert np.all(cert.edge_multipliers >= 0)


def test_convergence_error_carries_result():
    dag = build_lattice(LatticeSpec((3, 3, 3)))
    y = np.random.default_rng(1).standard_normal(27)
    with pytest.raises(ConvergenceError) as exc:
        project_dykstra(IsotonicProblem(dag, y), tol=1e-14, max_sweeps=2)
    partial = exc.value.result
    assert partial.theta_hat.shape == (27,)
    assert partial.iterations == 2


def test_lse_fit_dispatch_and_errors():
    # lse_fit routes a chain to pooling and a square to partitioning; the
    # other routes reach the same projection
    rng = np.random.default_rng(5)
    for dag in (_chain(6), build_lattice(LatticeSpec((3, 3)))):
        y = rng.standard_normal(dag.n_vertices)
        prob = IsotonicProblem(dag, y)
        fit = lse_fit(dag, y).theta_hat
        assert np.max(np.abs(fit - project_partition(prob).theta_hat)) <= 1e-12
        assert np.max(np.abs(fit - project_dykstra(prob).theta_hat)) < 1e-8
        assert np.max(np.abs(fit - minmax_project_oracle(prob))) <= 1e-12
    square = build_lattice(LatticeSpec((3, 3)))
    y = rng.standard_normal(9)
    assert np.array_equal(lse_fit(square, y).theta_hat,
                          project_partition(IsotonicProblem(square, y)).theta_hat)
    with pytest.raises(ValueError):
        lse_fit(square, np.zeros(8))


# ---------------------------------------------------------------------------
# projection properties (cone geometry)


@st.composite
def dag_and_data(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dag = random_dag(rng, n)
    y = draw(arrays(np.float64, n, elements=finite_floats))
    return dag, y


@given(dag_and_data())
@settings(max_examples=50, deadline=None)
def test_projection_idempotent(case):
    dag, y = case
    theta = lse_fit(dag, y).theta_hat
    again = lse_fit(dag, theta).theta_hat
    assert np.max(np.abs(again - theta)) < 1e-7
    assert is_isotonic(dag, theta, tol=1e-8)


@given(dag_and_data(), dag_and_data())
@settings(max_examples=40, deadline=None)
def test_projection_nonexpansive(case_a, case_b):
    dag, y1 = case_a
    _, y2raw = case_b
    rng = np.random.default_rng(len(y1))
    y2 = y2raw[: len(y1)] if len(y2raw) >= len(y1) else rng.standard_normal(len(y1))
    t1 = lse_fit(dag, y1).theta_hat
    t2 = lse_fit(dag, y2).theta_hat
    assert np.linalg.norm(t1 - t2) <= np.linalg.norm(y1 - y2) + 1e-6


@given(dag_and_data(), st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_projection_positively_homogeneous(case, scale):
    dag, y = case
    t = lse_fit(dag, y).theta_hat
    ts = lse_fit(dag, scale * y).theta_hat
    assert np.max(np.abs(ts - scale * t)) < 1e-6 * max(1.0, scale)


@pytest.mark.parametrize("scale", [2.0 ** -52, 1e-300, 1e-20, 1e6])
def test_projection_converges_far_from_unit_scale(scale):
    # Dykstra's path-family projection must be scale-free: the offsets that
    # keep disjoint paths from interacting have to grow and shrink with the
    # data, or data far below the offset is quantized to the offset's ulp
    # and the sweeps stall short of every tolerance.
    dag = Dag.from_edges(6, [(0, 2), (0, 4), (1, 2), (2, 5)])
    y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -34.0])
    base = project_dykstra(IsotonicProblem(dag, y), tol=1e-10).theta_hat
    res = project_dykstra(IsotonicProblem(dag, scale * y), tol=1e-10)
    assert res.iterations < 1000
    assert np.max(np.abs(res.theta_hat - scale * base)) <= 1e-8 * scale * 34.0


@given(dag_and_data(), st.floats(min_value=-20, max_value=20, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_projection_translation_by_constants(case, c):
    # constants are in the cone's lineality space
    dag, y = case
    t = lse_fit(dag, y).theta_hat
    tc = lse_fit(dag, y + c).theta_hat
    assert np.max(np.abs(tc - (t + c))) < 1e-7


@given(dag_and_data())
@settings(max_examples=50, deadline=None)
def test_projection_mean_range_pythagoras(case):
    dag, y = case
    res = lse_fit(dag, y)
    t = res.theta_hat
    # weighted mean preserved (constants are feasible directions both ways)
    assert abs(t.mean() - y.mean()) < 1e-8
    # fitted values stay inside the data range
    assert t.min() >= y.min() - 1e-8 and t.max() <= y.max() + 1e-8
    # cone Pythagoras: |y|^2 = |y-t|^2 + |t|^2 + 2<y-t, t>, with the cross term ~ 0
    cross = float(np.dot(y - t, t))
    assert abs(cross) <= 1e-6 * max(1.0, float(np.dot(y, y)))


@given(dag_and_data())
@settings(max_examples=30, deadline=None)
def test_oracle_agreement_property(case):
    dag, y = case
    prob = IsotonicProblem(dag, y)
    ours = project_dykstra(prob, tol=1e-10).theta_hat
    oracle = minmax_project_oracle(prob)
    assert np.max(np.abs(ours - oracle)) < 1e-6


# ---------------------------------------------------------------------------
# chains at scale


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_dykstra_equals_pava_on_chains(n):
    rng = np.random.default_rng(n)
    dag = build_lattice(LatticeSpec((n,)))
    y = rng.standard_normal(n)
    via_pava = lse_fit(dag, y).theta_hat
    via_dykstra = project_dykstra(IsotonicProblem(dag, y)).theta_hat
    assert np.max(np.abs(via_pava - via_dykstra)) < 1e-9


def test_problem_validation():
    dag = build_lattice(LatticeSpec((3,)))
    with pytest.raises(ValueError):
        IsotonicProblem(dag, np.zeros(4))
    with pytest.raises(ValueError):
        IsotonicProblem(dag, np.array([0.0, np.nan, 1.0]))


# ---------------------------------------------------------------------------
# recursive partitioning


def _criterion_01_family():
    """The random DAGs and data of acceptance criterion 01, in its order."""
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        order = rng.permutation(n)
        edges = [(int(order[i]), int(order[j]))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        yield Dag.from_edges(n, edges), 2.0 * rng.standard_normal(n)


def test_partition_matches_oracle_on_criterion_01_family():
    for dag, y in _criterion_01_family():
        ours = project_partition(IsotonicProblem(dag, y)).theta_hat
        oracle = minmax_project_oracle(IsotonicProblem(dag, y))
        assert np.max(np.abs(ours - oracle)) <= 1e-12 * np.max(np.abs(y))


def _tight_dykstra_cases():
    for sides in ((16, 16), (64, 64), (8, 8, 8), (16, 16, 16)):
        spec = LatticeSpec(sides)
        yield "x".join(map(str, sides)) + " zero", build_lattice(spec), np.zeros(spec.n)
    spec = LatticeSpec((8, 8, 8))
    yield "8x8x8 linear", build_lattice(spec), generate_signal(SignalSpec.linear_mean(), spec)
    X = draw_design(np.random.default_rng(11), DesignSampler.uniform(2), 500)
    yield "random d=2 n=500", build_design_dag(X), np.zeros(500)


@pytest.mark.parametrize("case", list(_tight_dykstra_cases()), ids=lambda c: c[0])
def test_partition_matches_tight_dykstra(case):
    _, dag, theta0 = case
    y = theta0 + np.random.default_rng(dag.n_vertices).standard_normal(dag.n_vertices)
    ours = project_partition(IsotonicProblem(dag, y))
    ref = project_dykstra(IsotonicProblem(dag, y), tol=1e-11)
    assert ours.max_violation <= 0.0
    assert np.max(np.abs(ours.theta_hat - ref.theta_hat)) <= 1e-9


@pytest.mark.parametrize("scale", [2.0 ** -52, 1e-300, 1e-20, 1e6, 1e300, 5e307])
def test_partition_is_scale_free(scale):
    rng = np.random.default_rng(4)
    lattice = build_lattice(LatticeSpec((5, 5)))
    y = rng.standard_normal(25)
    dag = _weighted(lattice, rng.uniform(0.5, 2.0, 25))
    base = project_partition(IsotonicProblem(dag, y)).theta_hat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = project_partition(IsotonicProblem(dag, scale * y)).theta_hat
    assert np.max(np.abs(scaled - scale * base)) <= 1e-12 * scale * np.max(np.abs(y))


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_dykstra_results_raise_no_warning_far_from_unit_scale(scale):
    # Both of Dykstra's results, converged and carried by ConvergenceError,
    # take their diagnostics at unit binary scale, so data near the ends of
    # the float range neither under- nor overflows.
    dag = build_lattice(LatticeSpec((3, 3)))
    y = np.random.default_rng(0).standard_normal(9)
    base = project_dykstra(IsotonicProblem(dag, y)).theta_hat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = project_dykstra(IsotonicProblem(dag, scale * y))
        with pytest.raises(ConvergenceError) as exc:
            project_dykstra(IsotonicProblem(dag, scale * y), tol=1e-14, max_sweeps=2)
    assert np.max(np.abs(res.theta_hat - scale * base)) <= 1e-12 * scale * np.max(np.abs(y))
    assert exc.value.result.iterations == 2
    assert exc.value.result.theta_hat.shape == (9,)


def test_dykstra_iterates_at_unit_scale_near_the_top_of_the_float_range():
    # The offsets that keep Dykstra's paths apart are twice the data range
    # per path; on raw data at 5e307 they overflow, at unit scale they cannot.
    dag = build_lattice(LatticeSpec((3, 3)))
    y = np.random.default_rng(0).standard_normal(9)
    base = 5e307 * project_dykstra(IsotonicProblem(dag, y), tol=1e-8).theta_hat
    res = project_dykstra(IsotonicProblem(dag, 5e307 * y), tol=1e-8 * 5e307)
    assert np.max(np.abs(res.theta_hat - base)) <= 1e-12 * np.max(np.abs(base))


@pytest.mark.parametrize("kind", ["constant", "isotonic"])
def test_partition_returns_isotonic_data_in_one_level(kind):
    dag = build_lattice(LatticeSpec((3, 4)))
    y = np.full(12, 0.1) if kind == "constant" else 0.1 * dag.labels.sum(axis=1)
    res = lse_fit(dag, y)
    assert res.iterations == 1
    assert np.array_equal(res.theta_hat, y)


def test_partition_quantizes_each_block_on_its_own_scale():
    # Two disjoint 3x3 lattices, the second holding noise 1e-12 times the
    # first's.  The first level splits them apart; quantizing both blocks
    # on one scale would then round every gain of the small block to zero.
    rng = np.random.default_rng(6)
    part = build_lattice(LatticeSpec((3, 3)))
    dag = Dag(18, np.vstack([part.cover_edges, part.cover_edges + 9]))
    small = 1e-12 * rng.standard_normal(9)
    ours = lse_fit(dag, np.r_[10.0 + rng.standard_normal(9), small]).theta_hat
    alone = lse_fit(part, small).theta_hat
    assert np.ptp(alone) > 0.0
    assert np.max(np.abs(ours[9:] - alone)) <= 1e-12 * np.max(np.abs(small))


def test_partition_fits_disjoint_replicates_as_if_alone():
    # 100 disjoint 9^3 lattices as one order of 72,900 vertices.  Each
    # component starts as its own block and is quantized on its own, so
    # every replicate's fit is bitwise the one it gets alone.  One block for
    # the whole union would round all 72,900 gains on one scale, which puts
    # replicate 51 3.1e-7 sup away.
    part = build_lattice(LatticeSpec((9, 9, 9)))
    reps = 100
    union = disjoint_copies(part, reps)
    ys = [noise_stream(0, r).standard_normal(729) for r in range(reps)]
    together = lse_fit(union, np.concatenate(ys)).theta_hat.reshape(reps, 729)
    for r in range(reps):
        assert np.array_equal(together[r], lse_fit(part, ys[r]).theta_hat), r


def test_partition_pools_blocks_left_an_ulp_out_of_order(monkeypatch):
    # The final blocks {4, 6, 7} and {2, 5, 8} both have exact mean 0.4, but
    # their floating-point means come out as 0.4000000000000001 and
    # 0.39999999999999997, out of order across the cover edges 4 -> 5 and
    # 7 -> 8, so lse_fit pools them.
    dag = build_lattice(LatticeSpec((3, 3)))
    y = np.array([1.3, -0.3, 0.7, -0.5, 0.8, 1.0, 1.3, -0.9, -0.5])
    violated = []
    real = solvers._pool_violators

    def spy(theta, label, w, ys, eu, ev):
        violated.append([(u, v) for u, v in zip(eu.tolist(), ev.tolist())
                         if theta[u] > theta[v]])
        return real(theta, label, w, ys, eu, ev)

    monkeypatch.setattr(solvers, "_pool_violators", spy)
    res = lse_fit(dag, y)
    assert violated == [[(4, 5), (7, 8)]]
    assert res.max_violation <= 0.0
    assert np.unique(res.theta_hat[[2, 4, 5, 6, 7, 8]]).size == 1
    oracle = minmax_project_oracle(IsotonicProblem(dag, y))
    assert np.max(np.abs(res.theta_hat - oracle)) <= 1e-12 * np.max(np.abs(y))


def _pooled(dag, label, w, ys):
    """``_pool_violators`` on blocks that sit at their weighted means."""
    label = np.asarray(label)
    theta = (np.bincount(label, w * ys) / np.bincount(label, w))[label]
    eu, ev = dag.cover_edges[:, 0], dag.cover_edges[:, 1]
    out, _ = solvers._pool_violators(theta, label, w, ys, eu, ev)
    assert np.all(out[eu] <= out[ev])
    return out


def test_pool_violators_merges_blocks_an_ulp_out_of_order():
    # Blocks {1, 2} and {3..8} of the 3x3 lattice have exact mean 0.45, but
    # their float means are 0.45 and the float one ulp below it, out of order
    # across the cover edges 1 -> 4 and 2 -> 5; block {0} sits below both.
    dag = build_lattice(LatticeSpec((3, 3)))
    ys = np.array([0.1, 0.8, 0.1, -0.9, 1.5, 0.3, 0.0, 1.5, 0.3])
    w = np.ones(9)
    label = [0, 1, 1, 2, 2, 2, 2, 2, 2]
    means = np.bincount(label, w * ys) / np.bincount(label, w)
    assert means[1] == 0.45 and means[2] == np.nextafter(0.45, 0.0)
    final = np.array([0, 1, 1, 1, 1, 1, 1, 1, 1])
    expected = (np.bincount(final, w * ys) / np.bincount(final, w))[final]
    assert np.array_equal(_pooled(dag, label, w, ys), expected)


def test_pool_violators_takes_a_second_pass_when_a_pool_rises():
    # On the weighted chain 0 < 1 < 2 the first pass pools {0, 1} to 1 + 2u,
    # which now lies above vertex 2; the second pass pools all three to the
    # weighted mean (1 + 4u + 1 + 2 * 1) / 4 = 1 + u, all exact in floats.
    u = np.spacing(1.0)
    dag = build_lattice(LatticeSpec((3,)))
    ys = np.array([1.0 + 4 * u, 1.0, 1.0])
    w = np.array([1.0, 1.0, 2.0])
    assert (ys[0] + ys[1]) / 2 > ys[2]
    assert np.array_equal(_pooled(dag, [0, 1, 2], w, ys), np.full(3, 1.0 + u))


def test_partition_block_rounding_sums_to_zero():
    # Two minimal vertices and a chain of seven under the chain u < h+ < h-;
    # h+ and h- are 1024 merged points each.  In steps of the level's
    # quantization the gains are 0.504 twice, -0.496 seven times, 2.465
    # (u) and +-2**29 (h+, h-).  Rounded to nearest, the first nine would
    # all go up by 0.496, so the whole order would have integer gain 4 and
    # beat the upper set {u, h+, h-}, integer gain 2 for a float gain of
    # 2.465 steps, leaving the order at its mean, 5.2e-7 off the projection.
    # With the block's integer gains summing to 0, the whole order gains 0
    # and the upper set splits off.
    half = 0.5 - 2.0 ** -8
    w = np.r_[np.ones(10), 1024.0, 1024.0]
    dag = Dag(12, [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, 11)], multiplicities=w)
    gain = np.r_[1 - half, 1 - half, np.full(7, -half), 9 * half - 2, 2.0 ** 29, -2.0 ** 29]
    y = gain / w * 2.0 ** -19
    assert not is_chain(dag) and np.dot(w, y) == 0.0 and np.max(np.abs(y)) == 1.0
    fit = lse_fit(dag, y).theta_hat
    assert np.max(np.abs(fit - minmax_project_oracle(IsotonicProblem(dag, y)))) <= 1e-9
