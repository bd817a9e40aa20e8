"""Monotone signals, grid embeddings, perturbation families, packings."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodag.orders import (LatticeSpec, build_lattice, is_isotonic, lattice_index,
                           lattice_vertices, level_antichain_report,
                           maximum_antichain)
from isodag.signals import (
    AssouadSpec,
    HyperrectPartition,
    SignalSpec,
    assouad_fixed,
    assouad_random,
    diagonal_cells,
    diagonal_count_formulas,
    generate_signal,
    grid_maps,
    grid_values,
    k_sheet_bound,
    min_sheet_partition_bruteforce,
    packing_set_2d,
    random_staircase_spec,
    riemann_envelopes,
    sheet_decomposition,
    step_function,
)
from reference import greedy_code_words

lattice_specs = st.builds(
    LatticeSpec,
    st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple),
)


# ---------------------------------------------------------------------------
# signal generation


def test_constant_signal():
    theta = generate_signal(SignalSpec.constant(0.7), LatticeSpec((3, 3)))
    assert np.array_equal(theta, np.full(9, 0.7))


def test_linear_mean_on_square():
    theta = generate_signal(SignalSpec.linear_mean(), LatticeSpec((2, 2)))
    assert np.allclose(sorted(theta), [0.0, 0.5, 0.5, 1.0])


def test_linear_mean_on_4x4_is_isotonic_and_bounded():
    spec = LatticeSpec((4, 4))
    theta = generate_signal(SignalSpec.linear_mean(), spec)
    assert is_isotonic(build_lattice(spec), theta, tol=0.0)
    assert theta.min() == -0.5 and theta.max() == 1.0  # (x1+x2)/4 - 1
    assert np.max(np.abs(theta)) <= 1.0


def test_staircase_levels():
    spec = SignalSpec.staircase(axis=0, cuts=(3,), levels=(0.0, 1.0))
    theta = generate_signal(spec, LatticeSpec((4,)))
    assert theta.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_staircase_validation():
    with pytest.raises(ValueError):
        SignalSpec.staircase(axis=0, cuts=(2,), levels=(1.0, 0.0))
    with pytest.raises(ValueError):
        SignalSpec.staircase(axis=0, cuts=(2, 2), levels=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        SignalSpec.staircase(axis=0, cuts=(2,), levels=(0.0, 0.5, 1.0))


def test_r_variable_depends_on_named_axes_only():
    spec = SignalSpec.r_variable(axes=(1,), levels=(0.0, 1.0))
    lat = LatticeSpec((3, 2))
    theta = generate_signal(spec, lat)
    verts = lattice_vertices(lat)
    values = {}
    for v, t in zip(map(tuple, verts.tolist()), theta):
        values.setdefault(v[1], set()).add(float(t))
    assert all(len(s) == 1 for s in values.values())


def test_custom_grid_must_be_isotonic():
    with pytest.raises(ValueError):
        generate_signal(SignalSpec.custom_grid([1.0, 0.0, 0.0, 1.0]),
                        LatticeSpec((2, 2)))


def test_bounded_rescale():
    theta = generate_signal(SignalSpec.constant(5.0, bounded=True), LatticeSpec((2,)))
    assert np.allclose(theta, 1.0)
    # already within the unit band: untouched
    theta = generate_signal(SignalSpec.constant(0.25, bounded=True), LatticeSpec((2,)))
    assert np.allclose(theta, 0.25)


@given(lattice_specs, st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_generated_signals_are_isotonic(spec, seed):
    rng = np.random.default_rng(seed)
    dag = build_lattice(spec)
    sig = random_staircase_spec(spec, rng)
    theta = generate_signal(sig, spec)
    assert is_isotonic(dag, theta, tol=1e-12)
    assert np.max(np.abs(theta)) <= 1.0 + 1e-12
    lin = generate_signal(SignalSpec.linear_mean(), spec)
    assert is_isotonic(dag, lin, tol=1e-12)


# ---------------------------------------------------------------------------
# grid maps


def test_step_function_round_trip():
    lat = LatticeSpec((3, 2))
    theta = generate_signal(SignalSpec.linear_mean(), lat)
    f = step_function(theta, lat)
    assert np.allclose(grid_values(f, lat), theta)


def test_step_function_cell_interiors():
    lat = LatticeSpec((2,))
    f = step_function(np.array([0.0, 1.0]), lat)
    assert f(np.array([0.25])) == 0.0
    assert f(np.array([0.75])) == 1.0
    assert f(np.array([0.5])) == 0.0  # grid point belongs to its own vertex
    assert f(np.array([1.0])) == 1.0


def test_grid_maps_dispatch():
    lat = LatticeSpec((2, 2))
    theta = np.array([0.0, 1.0, 1.0, 2.0])
    f = grid_maps(theta, lat)
    assert callable(f)
    back = grid_maps(f, lat)
    assert np.allclose(back, theta)


@given(lattice_specs, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_grid_round_trip_property(spec, seed):
    rng = np.random.default_rng(seed)
    theta = generate_signal(random_staircase_spec(spec, rng), spec)
    assert np.allclose(grid_values(step_function(theta, spec), spec), theta)


def test_grid_values_refuses_a_callable_of_one_point():
    """A function written for one point gets the whole ``(m, d)`` batch; its
    answer does not have one value per point, so it is refused."""
    lat = LatticeSpec((3, 2))
    for one_point in (lambda p: p[0] + p[1], lambda p: min(1.0, float(p.sum()))):
        with pytest.raises(ValueError, match=r"\(m, d\) points to m values"):
            grid_values(one_point, lat)
        with pytest.raises(ValueError, match=r"\(m, d\) points to m values"):
            riemann_envelopes(one_point, 3, 2)


def _cube_closures():
    lat = LatticeSpec((3, 2))
    f_lo, f_hi, _ = riemann_envelopes(lambda pts: pts.sum(axis=1), 3, 2)
    return [step_function(generate_signal(SignalSpec.linear_mean(), lat), lat),
            f_lo, f_hi, assouad_random(2, 3)]


@pytest.mark.parametrize("which", range(4))
@pytest.mark.parametrize("x", [[-0.1, 0.5], [0.5, 1.0 + 1e-12],
                               [[0.2, 0.3], [0.4, -1e-300]], [np.nan, 0.5]])
def test_cube_functions_refuse_points_outside_the_cube(which, x):
    f = _cube_closures()[which]
    assert np.isfinite(f([0.0, 1.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\]\^d"):
        f(x)


# ---------------------------------------------------------------------------
# envelope integral


@pytest.mark.parametrize("d,n1", [(2, 2), (2, 5), (3, 2), (3, 4)])
def test_riemann_envelopes_sandwich_and_bound(d, n1):
    rng = np.random.default_rng(d * 100 + n1)
    lat = LatticeSpec.cube(d, n1)
    theta = generate_signal(random_staircase_spec(lat, rng), lat)
    f = step_function(theta, lat)
    f_lo, f_hi, integral = riemann_envelopes(f, n1, d)
    pts = rng.random((200, d))
    lo, mid, hi = f_lo(pts), f(pts), f_hi(pts)
    assert np.all(lo <= mid + 1e-12) and np.all(mid <= hi + 1e-12)
    n = n1 ** d
    sup = max(1e-12, float(np.max(np.abs(theta))))
    assert integral <= 4 * d * n ** (-1.0 / d) * sup ** 2 + 1e-12
    assert integral >= 0.0


def test_riemann_integral_linear_coordinate_2d():
    # f(x) = x_1: the envelope gap is 1/n1 almost everywhere, so the
    # squared-gap integral is exactly 1/n1^2
    _, _, integral = riemann_envelopes(lambda pts: pts[..., 0], 4, 2)
    assert math.isclose(integral, 1.0 / 16.0, rel_tol=1e-12)


def test_riemann_integral_exact_single_step():
    # one cut at the midpoint of one axis: envelopes differ on a slab of
    # width 1/n1 around the cut, with squared gap 1
    n1 = 4
    lat = LatticeSpec((n1,))
    f = step_function(np.array([0.0, 0.0, 1.0, 1.0]), lat)
    _, _, integral = riemann_envelopes(f, n1, 1)
    assert math.isclose(integral, 1.0 / n1, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# antichain perturbation families


def test_assouad_fixed_distance_law_exhaustive():
    spec = LatticeSpec((3, 3))
    dag = build_lattice(spec)
    report = maximum_antichain(dag)
    m = len(report.antichain)
    assert m == 3
    rho = 0.1
    thetas = {}
    for tau in itertools.product((0, 1), repeat=m):
        theta = assouad_fixed(dag, report, AssouadSpec(tau=tau, rho=rho))
        assert is_isotonic(dag, theta, tol=1e-12)
        assert np.max(np.abs(theta)) <= 1.0 + 1e-12
        thetas[tau] = theta
    for ta, tb in itertools.combinations(thetas, 2):
        ham = sum(a != b for a, b in zip(ta, tb))
        gap = float(np.sum((thetas[ta] - thetas[tb]) ** 2))
        assert math.isclose(gap, 4 * rho * rho * ham, rel_tol=1e-12)


def test_assouad_fixed_square_middle_antichain_values():
    spec = LatticeSpec((2, 2))
    dag = build_lattice(spec)
    report = level_antichain_report(spec)  # middle antichain {(1,2),(2,1)}
    theta = assouad_fixed(dag, report, AssouadSpec(tau=(1, 1), rho=1.0 / 3.0))
    order = [lattice_index(spec, v) for v in [(1, 1), (1, 2), (2, 1), (2, 2)]]
    assert theta[order].tolist() == [-1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0]
    assert is_isotonic(dag, theta, tol=0.0)


def test_assouad_fixed_default_rho():
    spec = LatticeSpec((2, 2))
    dag = build_lattice(spec)
    report = level_antichain_report(spec)
    theta = assouad_fixed(dag, report, AssouadSpec(tau=(1, 1)))
    on_w = theta[report.antichain]
    assert np.allclose(np.abs(on_w), 2.0 / (3.0 * math.sqrt(4)))


def test_assouad_rho_validation():
    spec = LatticeSpec((2, 2))
    dag = build_lattice(spec)
    report = level_antichain_report(spec)
    with pytest.raises(ValueError):
        assouad_fixed(dag, report, AssouadSpec(tau=(1, 1), rho=1.5))
    with pytest.raises(ValueError):
        assouad_fixed(dag, report, AssouadSpec(tau=(1,), rho=0.5))


def test_diagonal_cells_and_counts():
    cells = diagonal_cells(2, 4)
    assert cells.tolist() == [[1, 3], [2, 2], [3, 1]]
    counts = diagonal_count_formulas(2, 4)
    assert counts["enumerated"] == 3
    assert counts["compositions"] == math.comb(3, 1) == 3
    assert counts["stars_and_bars"] == math.comb(5, 1) == 5


@pytest.mark.parametrize("d,n1", [(2, 3), (2, 6), (3, 4), (4, 5)])
def test_diagonal_count_enumeration_matches_compositions(d, n1):
    counts = diagonal_count_formulas(d, n1)
    assert counts["enumerated"] == counts["compositions"]


def test_assouad_random_values_and_distance():
    d, n1 = 2, 4
    cells = diagonal_cells(d, n1)
    tau = (1, 0, 1)
    f = assouad_random(d, n1, tau=tau)
    rng = np.random.default_rng(0)
    pts = rng.random((500, d))
    sums = np.ceil(pts * n1).astype(int).sum(axis=1)
    vals = f(pts)
    assert np.all(vals[sums <= n1 - 1] == 0.0)
    assert np.all(vals[sums >= n1 + 1] == 1.0)
    onw = vals[sums == n1]
    assert set(np.round(np.unique(onw), 12)) <= {0.0, round(f.rho, 12)}
    # monotone along coordinatewise increases
    for _ in range(300):
        i, j = rng.integers(0, 500, 2)
        if np.all(pts[i] <= pts[j]):
            assert vals[i] <= vals[j] + 1e-12
    # two labelings differ only on flipped diagonal cells
    g = assouad_random(d, n1, tau=(0, 0, 1))
    diff = np.abs(f(pts) - g(pts))
    assert np.all(diff[sums != n1] == 0.0)
    assert np.all(np.isin(np.round(diff[sums == n1], 12),
                          np.round([0.0, f.rho], 12)))
    assert f.rho == 2.0 ** 1.5 * 1.0 / (3.0 * 1.0 ** 1.5)
    assert len(f.cells) == len(cells)


def test_assouad_random_default_tau_zero():
    f = assouad_random(2, 3)
    assert np.array_equal(np.asarray(f.tau), np.zeros(len(f.cells), dtype=int))


# ---------------------------------------------------------------------------
# sheets


def test_sheet_decomposition_of_cube():
    part = sheet_decomposition((4, 4, 4))
    assert len(part.blocks) == 4
    part.validate()
    assert all(sum(hi - lo > 0 for lo, hi in blk) <= 2 for blk in part.blocks)


def test_sheet_decomposition_keeps_two_largest():
    part = sheet_decomposition((2, 5, 3))
    # axes 1 (5) and 2 (3) stay whole; axis 0 splits -> 2 sheets
    assert len(part.blocks) == 2
    for blk in part.blocks:
        assert blk[1] == (1, 5) and blk[2] == (1, 3)


def test_k_sheet_bound_concavity():
    part = sheet_decomposition((3, 3, 3))
    ssum, crude = k_sheet_bound(part, 3)
    assert ssum <= crude + 1e-12
    assert math.isclose(ssum, 3 * 9 ** (1 - 2 / 3), rel_tol=1e-12)


def test_min_sheet_partition_constant_slabs():
    # constant vector on a cube: need n1^(d-2) sheets
    lat = LatticeSpec((2, 2, 2))
    assert min_sheet_partition_bruteforce(np.zeros(8), lat) == 2
    lat4 = LatticeSpec((2, 2, 2, 2))
    assert min_sheet_partition_bruteforce(np.zeros(16), lat4) == 4


def test_min_sheet_partition_2d_is_one_when_constant():
    lat = LatticeSpec((4, 4))
    assert min_sheet_partition_bruteforce(np.zeros(16), lat) == 1


def test_min_sheet_partition_two_level_slab():
    # 4x4 grid, constant 0 on the left half, 1 on the right half: two sheets
    lat = LatticeSpec((4, 4))
    verts = lattice_vertices(lat)
    theta = (verts[:, 0] >= 3).astype(float)
    assert min_sheet_partition_bruteforce(theta, lat) == 2


def test_min_sheet_partition_cap():
    with pytest.raises(ValueError):
        min_sheet_partition_bruteforce(np.zeros(32), LatticeSpec((2, 2, 2, 2, 2)))


def test_hyperrect_partition_validate_catches_overlap():
    bad = HyperrectPartition(box=((1, 3), (1, 3)),
                             blocks=[((1, 3), (1, 2)), ((1, 3), (1, 3))])
    with pytest.raises(ValueError):
        bad.validate()


# ---------------------------------------------------------------------------
# packing construction


@pytest.mark.parametrize("ell", [2, 3])
def test_packing_set_properties(ell):
    pack = packing_set_2d(ell)
    n1 = 2 ** ell - 1
    n = n1 * n1
    assert pack.n1 == n1
    assert len(pack.codewords) >= math.exp(ell * ell / 8)
    assert pack.min_hamming >= ell * ell / 4
    dag = build_lattice(LatticeSpec((n1, n1)))
    for vec in pack.vectors:
        assert is_isotonic(dag, vec, tol=1e-12)
        assert np.linalg.norm(vec) <= 1.0 + 1e-12
    # squared distance factorizes as hamming distance times the cell gap
    assert pack.min_sq_distance >= pack.min_hamming * pack.cell_sq_gap - 1e-12
    expected_gap = (ell * ell / 4) * (1 - 2 ** -0.5) ** 2 / (4 * math.log(n) ** 2)
    assert pack.min_sq_distance >= expected_gap - 1e-15


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_packing_codewords_equal_the_word_by_word_greedy_scan(ell):
    words = greedy_code_words(ell * ell, ell * ell / 4.0)
    bits = [[w >> b & 1 for b in range(ell * ell)] for w in words]
    assert packing_set_2d(ell).codewords.tolist() == bits


def test_packing_codewords_at_ell_4_are_pinned():
    """The 2048 codewords at ell = 4, as the word-by-word greedy scan gave
    them (SHA-256 of the uint8 codeword matrix's bytes)."""
    codes = packing_set_2d(4).codewords
    assert codes.shape == (2048, 16) and codes.dtype == np.uint8
    assert hashlib.sha256(codes.tobytes()).hexdigest() == (
        "d8aece8bc545910139a04303e9692f1bc5f001fb8d47bfc7ec0804258a6d7c3a")


def test_packing_has_two_codewords_to_compare():
    """First fit accepts the all-zero word, then still finds the all-one
    word ell^2 >= ell^2 / 4 away, so it accepts a second word: every packing
    has the pair that ``min_sq_distance`` and ``min_hamming`` compare."""
    for ell in range(1, 5):
        pack = packing_set_2d(ell)
        assert len(pack.codewords) >= 2 and not pack.codewords[0].any()
        assert pack.min_hamming >= ell * ell / 4 and pack.min_sq_distance > 0.0


def test_packing_cap():
    with pytest.raises(ValueError):
        packing_set_2d(5)
