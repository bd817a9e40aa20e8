"""Partial-order structure: DAG construction, lattices, antichains."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodag.orders import (
    Dag,
    LatticeSpec,
    SizeCapError,
    build_design_dag,
    build_lattice,
    enumerate_upper_lower_sets,
    is_isotonic,
    lattice_index,
    lattice_vertices,
    level_antichain,
    level_antichain_report,
    level_cardinalities,
    longest_chain,
    maximum_antichain,
    merge_duplicates,
    upper_set_masks,
)


def random_dag_edges(rng, n, p=0.3):
    """An acyclic relation on 0..n-1: each i<j pair is an edge w.p. p."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def brute_max_antichain(dag):
    """Largest pairwise-incomparable subset, by subset enumeration."""
    best = 0
    for size in range(1, dag.n_vertices + 1):
        found = any(
            all(not dag.is_comparable(u, v) for u, v in itertools.combinations(combo, 2))
            for combo in itertools.combinations(range(dag.n_vertices), size)
        )
        if found:
            best = size
    return best


# ---------------------------------------------------------------------------
# Dag basics


def test_dag_rejects_empty():
    with pytest.raises(ValueError):
        Dag(0, [])


def test_dag_rejects_out_of_range_and_self_loops():
    with pytest.raises(ValueError):
        Dag(2, [(0, 2)])
    with pytest.raises(ValueError):
        Dag(2, [(1, 1)])


def test_dag_rejects_cycles():
    with pytest.raises(ValueError):
        Dag(2, [(0, 1), (1, 0)])


def test_dag_rejects_unreduced_cover():
    # 0->1->2 plus the implied 0->2 is a closure, not a reduction
    with pytest.raises(ValueError):
        Dag(3, [(0, 1), (1, 2), (0, 2)])


def test_from_edges_reduces():
    dag = Dag.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert sorted(map(tuple, dag.cover_edges.tolist())) == [(0, 1), (1, 2)]
    assert dag.reachability()[0, 2]


def test_reachability_is_strict():
    dag = Dag(3, [(0, 1), (1, 2)])
    reach = dag.reachability()
    assert not reach.diagonal().any()
    assert reach[0, 1] and reach[0, 2] and reach[1, 2]
    assert not reach[2, 0]
    assert dag.is_comparable(0, 2) and not dag.is_comparable(0, 0)


def test_weights_default_and_multiplicities():
    dag = Dag(2, [(0, 1)])
    assert np.array_equal(dag.weights(), [1.0, 1.0])
    dag = Dag(2, [(0, 1)], multiplicities=[2.0, 3.0])
    assert np.array_equal(dag.weights(), [2.0, 3.0])
    with pytest.raises(ValueError):
        Dag(2, [(0, 1)], multiplicities=[1.0, 0.0])


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reduce_closure_round_trip(n, seed):
    """Reducing an arbitrary acyclic relation preserves reachability."""
    rng = np.random.default_rng(seed)
    edges = random_dag_edges(rng, n)
    dag = Dag.from_edges(n, edges)
    reach = dag.reachability()
    # closure computed independently by Floyd-Warshall on the original edges
    closure = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        closure[u, v] = True
    for k in range(n):
        closure |= np.outer(closure[:, k], closure[k, :])
    assert np.array_equal(reach, closure)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_text_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    dag = Dag.from_edges(n, random_dag_edges(rng, n),
                         labels=rng.integers(0, 5, size=(n, 2)),
                         multiplicities=rng.integers(1, 4, size=n).astype(float))
    back = Dag.from_text(dag.to_text())
    assert back.n_vertices == dag.n_vertices
    assert np.array_equal(back.cover_edges, dag.cover_edges)
    assert np.allclose(back.labels.astype(float), dag.labels.astype(float))
    assert np.array_equal(back.weights(), dag.weights())


def test_topo_order_respects_edges():
    dag = Dag.from_edges(5, [(3, 1), (1, 0), (4, 2)])
    pos = np.argsort(dag.topo_order)
    for u, v in dag.cover_edges:
        assert pos[u] < pos[v]


# ---------------------------------------------------------------------------
# lattices


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(())
    with pytest.raises(ValueError):
        LatticeSpec((3, 0))
    spec = LatticeSpec.cube(3, 4)
    assert spec.side_lengths == (4, 4, 4) and spec.d == 3 and spec.n == 64


def test_square_lattice_cover_edges():
    dag = build_lattice(LatticeSpec((2, 2)))
    assert dag.n_vertices == 4
    assert dag.cover_edges.shape == (4, 2)
    # bottom (1,1) reaches everything, top (2,2) reaches nothing
    reach = dag.reachability()
    bottom = lattice_index(LatticeSpec((2, 2)), (1, 1))
    top = lattice_index(LatticeSpec((2, 2)), (2, 2))
    assert reach[bottom].sum() == 3 and reach[top].sum() == 0


def test_chain_lattice():
    dag = build_lattice(LatticeSpec((5,)))
    assert dag.cover_edges.shape == (4, 2)
    assert len(longest_chain(dag)) == 5


@pytest.mark.parametrize("d,n1", [(3, 2), (2, 3), (3, 3)])
def test_cube_cover_edge_count(d, n1):
    dag = build_lattice(LatticeSpec.cube(d, n1))
    assert dag.n_vertices == n1 ** d
    assert dag.cover_edges.shape == (d * (n1 - 1) * n1 ** (d - 1), 2)


def test_lattice_vertices_and_index_agree():
    spec = LatticeSpec((3, 2, 2))
    verts = lattice_vertices(spec)
    assert verts.shape == (12, 3)
    for i, v in enumerate(map(tuple, verts.tolist())):
        assert lattice_index(spec, v) == i


def test_lattice_size_cap():
    with pytest.raises(SizeCapError):
        build_lattice(LatticeSpec((101, 101, 101)))


def test_longest_chain_on_cube():
    spec = LatticeSpec((3, 3, 3))
    chain = longest_chain(build_lattice(spec))
    assert len(chain) == 3 * (3 - 1) + 1
    # returned ids really form a chain
    dag = build_lattice(spec)
    for u, v in zip(chain, chain[1:]):
        assert dag.reachability()[u, v]


def test_design_dag_matches_lattice_reachability():
    spec = LatticeSpec((3, 3))
    verts = lattice_vertices(spec).astype(float) / 3.0
    design = build_design_dag(verts)
    lattice = build_lattice(spec)
    assert np.array_equal(design.reachability(), lattice.reachability())


def test_design_dag_merges_duplicates():
    pts = np.array([[0.2, 0.2], [0.5, 0.5], [0.2, 0.2]])
    dag = build_design_dag(pts)
    assert dag.n_vertices == 2
    assert np.array_equal(dag.weights(), [2.0, 1.0])


def test_design_dag_rejects_outside_cube():
    with pytest.raises(ValueError):
        build_design_dag([[0.5, 1.5]])


def test_design_dag_rejects_nan_points():
    # nan compares false both ways, so a check for points outside [0, 1] misses it
    with pytest.raises(ValueError):
        build_design_dag([[0.2, 0.3], [np.nan, 0.5]])


def test_merge_duplicates_round_trip_and_weights():
    pts = np.array([[0.5, 0.2], [-0.0, 1.0], [0.5, 0.2], [0.3, 0.3],
                    [0.0, 1.0], [0.3, 0.3], [0.5, 0.2]])
    firsts, inverse = merge_duplicates(pts)
    # first-occurrence order; -0.0 and 0.0 are one point
    assert firsts.tolist() == [0, 1, 3]
    assert inverse.tolist() == [0, 1, 0, 2, 1, 2, 0]
    assert np.array_equal(pts[firsts][inverse], pts)
    dag = build_design_dag(pts)
    assert np.array_equal(dag.labels, pts[firsts])
    assert np.array_equal(dag.weights(), np.bincount(inverse))


def test_is_isotonic():
    dag = build_lattice(LatticeSpec((2, 2)))
    assert is_isotonic(dag, [0.0, 1.0, 1.0, 2.0])
    assert not is_isotonic(dag, [0.0, 1.0, 1.0, 0.5])
    assert is_isotonic(dag, [0.0, 1.0, 1.0, 1.0 - 1e-9], tol=1e-8)


# ---------------------------------------------------------------------------
# antichains


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_maximum_antichain_matches_bruteforce(n, seed):
    rng = np.random.default_rng(seed)
    dag = Dag.from_edges(n, random_dag_edges(rng, n))
    report = maximum_antichain(dag)
    assert len(report.antichain) == brute_max_antichain(dag)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_antichain_report_structure(n, seed):
    rng = np.random.default_rng(seed)
    dag = Dag.from_edges(n, random_dag_edges(rng, n))
    report = maximum_antichain(dag)
    W = report.antichain
    # pairwise incomparable
    for u, v in itertools.combinations(W.tolist(), 2):
        assert not dag.is_comparable(u, v)
    # Dilworth certificate: as many chains as antichain elements, partitioning V
    assert len(report.chain_cover) == len(W)
    covered = sorted(v for chain in report.chain_cover for v in chain)
    assert covered == list(range(n))
    reach = dag.reachability()
    for chain in report.chain_cover:
        for u, v in zip(chain, chain[1:]):
            assert reach[u, v]
    # splits partition the rest; nothing in upper_split is below W
    parts = np.sort(np.concatenate([W, report.upper_split, report.lower_split]))
    assert np.array_equal(parts, np.arange(n))
    for v in report.upper_split:
        assert not any(reach[v, u] for u in W)
    for v in report.lower_split:
        assert not any(reach[u, v] for u in W)


def test_level_cardinalities_square():
    assert level_cardinalities(LatticeSpec((3, 3))).tolist() == [1, 2, 3, 2, 1]
    assert level_cardinalities(LatticeSpec((2, 2, 2))).tolist() == [1, 3, 3, 1]


def test_level_antichain_is_antichain():
    spec = LatticeSpec((4, 4))
    dag = build_lattice(spec)
    ids = level_antichain(spec)
    assert len(ids) == 4  # the diagonal of a 4x4 grid
    for u, v in itertools.combinations(ids.tolist(), 2):
        assert not dag.is_comparable(u, v)


def test_level_antichain_explicit_levels():
    spec = LatticeSpec((4, 4))
    verts = lattice_vertices(spec)
    ids = level_antichain(spec, level=4)
    assert sorted(map(tuple, verts[ids].tolist())) == [(1, 3), (2, 2), (3, 1)]
    # "max" picks the longest level: sum 5 has one more cell than sum 4
    assert len(level_antichain(spec, level="max")) == 4
    one_d = LatticeSpec((6,))
    assert lattice_vertices(one_d)[level_antichain(one_d, level=3)].tolist() == [[3]]
    with pytest.raises(ValueError):
        level_antichain(spec, level=9)


def test_level_antichain_report_splits():
    spec = LatticeSpec((3, 3))
    rep = level_antichain_report(spec)
    dag = build_lattice(spec)
    generic = maximum_antichain(dag)
    assert len(rep.antichain) == len(generic.antichain) == 3
    assert rep.chain_cover is None
    assert np.array_equal(np.sort(np.concatenate(
        [rep.antichain, rep.upper_split, rep.lower_split])), np.arange(9))
    # sum-comparison splits coincide with reachability splits on a full lattice
    assert set(rep.upper_split.tolist()) == set(generic.upper_split.tolist())


def test_collinear_design_antichain_is_one():
    pts = np.linspace(0.1, 0.9, 5)[:, None] * np.ones((1, 2))
    report = maximum_antichain(build_design_dag(pts))
    assert len(report.antichain) == 1


# ---------------------------------------------------------------------------
# upper/lower set enumeration


def test_square_upper_sets():
    dag = build_lattice(LatticeSpec((2, 2)))
    masks = upper_set_masks(dag)
    assert len(masks) == 6  # the 2x2 grid has six order filters
    uppers, lowers = enumerate_upper_lower_sets(dag)
    assert len(uppers) == len(lowers) == 6
    reach = dag.reachability()
    for up in uppers:
        for v in up:
            above = {u for u in range(4) if reach[v, u]}
            assert above <= up


def test_chain_upper_set_count():
    # a k-chain has k+1 order filters
    dag = build_lattice(LatticeSpec((4,)))
    assert len(upper_set_masks(dag)) == 5


def test_upper_set_cap():
    with pytest.raises(SizeCapError):
        upper_set_masks(build_lattice(LatticeSpec((4, 4))))
