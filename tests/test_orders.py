"""Partial-order structure: DAG construction, lattices, antichains."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from isodag import cli, design, orders
from isodag.complexity import statdim_mc
from isodag.design import DesignSampler, antichain_stats, sample_design
from isodag.orders import (
    Dag,
    LatticeSpec,
    SizeCapError,
    _flow_antichain,
    build_design_dag,
    build_lattice,
    disjoint_copies,
    is_isotonic,
    lattice_index,
    lattice_vertices,
    level_antichain,
    level_antichain_report,
    level_cardinalities,
    longest_chain,
    maximum_antichain,
    merge_duplicates,
    planar_width,
)
from isodag.solvers import lse_fit
from reference import (_topological_order, _transitive_reduction, enumerate_upper_lower_sets,
                       upper_set_masks)


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
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Dag(2, [(0, 1)], multiplicities=[1.0, bad])


def test_dag_freezes_copies_not_the_callers_arrays():
    e = np.array([[0, 1]])
    labels = np.array([[0.0, 0.0], [1.0, 1.0]])
    mult = np.array([1.0, 2.0])
    dag = Dag(2, e, labels=labels, multiplicities=mult)
    for mine, its in ((e, dag.cover_edges), (labels, dag.labels),
                      (mult, dag.multiplicities)):
        assert mine.flags.writeable
        assert not its.flags.writeable
    e[0, 1] = 0
    labels[1] = 5.0
    mult[1] = 7.0
    assert dag.cover_edges.tolist() == [[0, 1]]
    assert dag.labels.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert dag.multiplicities.tolist() == [1.0, 2.0]


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reduce_closure_round_trip(n, seed):
    """Reducing an arbitrary acyclic relation preserves reachability."""
    rng = np.random.default_rng(seed)
    edges = random_dag_edges(rng, n)
    dag = Dag.from_edges(n, edges)
    assert "_reach" not in dag.__dict__   # the reduced closure is not kept
    reach = dag.reachability()
    # closure computed independently by Floyd-Warshall on the original edges
    closure = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        closure[u, v] = True
    for k in range(n):
        closure |= np.outer(closure[:, k], closure[k, :])
    assert np.array_equal(reach, closure)


def test_constructor_rejects_redundant_edges():
    # 0 -> 2 is implied by 0 -> 1 -> 2, so it is not a cover edge; with no
    # labels the check runs on the packed closure
    with pytest.raises(ValueError, match="transitively reduced"):
        Dag(3, [(0, 1), (1, 2), (0, 2)])
    dag = Dag(3, [(0, 1), (1, 2)])
    assert dag.cover_edges.tolist() == [[0, 1], [1, 2]]


def test_from_edges_rejects_bad_relations():
    for edges in ([(0, 3)], [(1, 1)], [(0, 1), (1, 2), (2, 0)]):
        with pytest.raises(ValueError):
            Dag.from_edges(3, edges)


def test_topo_order_respects_edges():
    dag = Dag.from_edges(5, [(3, 1), (1, 0), (4, 2)])
    pos = np.argsort(dag.topo_order)
    for u, v in dag.cover_edges:
        assert pos[u] < pos[v]


def test_disjoint_copies_tile_the_order():
    part = Dag.from_edges(5, [(3, 1), (1, 0), (4, 2)], multiplicities=[1, 2, 1, 3, 1])
    assert disjoint_copies(part, 1) is part
    union = disjoint_copies(part, 3)
    # the checks the helper skips pass on its output
    checked = Dag(15, union.cover_edges, multiplicities=union.multiplicities)
    assert np.array_equal(checked.reachability(), union.reachability())
    assert np.array_equal(union.weights(), np.tile(part.weights(), 3))
    assert union.topo_order.tolist() == [v + 5 * i for i in range(3)
                                         for v in part.topo_order.tolist()]
    pos = np.argsort(union.topo_order)
    assert np.all(pos[union.cover_edges[:, 0]] < pos[union.cover_edges[:, 1]])
    assert disjoint_copies(build_lattice(LatticeSpec((2, 2))), 2).multiplicities is None
    with pytest.raises(ValueError):
        disjoint_copies(part, 0)


def test_topo_order_is_kahns_when_read():
    """Read lazily, the order is bitwise the one the list-based Kahn's pass
    of the reference gives on the cover edges, and it is computed once."""
    rng = np.random.default_rng(5)
    part = Dag.from_edges(6, [(3, 1), (1, 0), (4, 2), (5, 2), (3, 2)])
    dags = [build_lattice(LatticeSpec((4, 5))), build_lattice(LatticeSpec((3, 3, 3))),
            build_lattice(LatticeSpec((7,))), build_design_dag(rng.random((300, 2))),
            build_design_dag(rng.random(80)), build_design_dag(rng.random((120, 3))),
            part, disjoint_copies(part, 4),
            disjoint_copies(build_design_dag(rng.random((50, 2))), 3)]
    d = build_design_dag(rng.random((90, 2)))
    dags.append(Dag(d.n_vertices, d.cover_edges, labels=d.labels, multiplicities=d.multiplicities))
    for dag in dags:
        assert "topo_order" not in dag.__dict__
        expected = _topological_order(dag.n_vertices, dag.cover_edges)
        assert dag.topo_order.dtype == expected.dtype
        assert np.array_equal(dag.topo_order, expected)
        assert not dag.topo_order.flags.writeable
        assert dag.topo_order is dag.topo_order


def test_topological_order_is_not_computed_unless_read(monkeypatch, capsys):
    kahn = _spy(monkeypatch, "_topological_order")
    assert cli.main(["antichain", "--d", "2", "--n-grid", "60", "--reps", "3",
                     "--seed", "0"]) == 0
    assert "mean_antichain" in capsys.readouterr().out
    statdim_mc(build_lattice(LatticeSpec((4, 4))), 20, seed=1)
    assert kahn == []


def test_constructor_proves_planar_edges_by_the_sweep(monkeypatch):
    """With planar labels the constructor checks the edges by one sweep, and
    only edges that are not the sweep's covers are checked on the packed
    closure."""
    rng = np.random.default_rng(11)
    design = build_design_dag(rng.random((200, 2)))
    edges = design.cover_edges.tolist()
    packed = _spy(monkeypatch, "_covers")
    back = Dag(design.n_vertices, design.cover_edges, labels=design.labels,
               multiplicities=design.multiplicities)
    assert "_reach" not in back.__dict__ and not packed
    assert np.array_equal(back._planar_points, design._planar_points)
    u, v = edges[0]
    w = next(b for a, b in edges if a == v)   # u < v < w, so (u, w) is redundant
    with pytest.raises(ValueError, match="transitively reduced"):
        Dag(design.n_vertices, edges + [[u, w]], labels=design.labels)
    with pytest.raises(ValueError, match="transitively reduced"):
        Dag(design.n_vertices, edges + [edges[7]], labels=design.labels)
    assert len(packed) == 2
    with pytest.raises(ValueError, match="cycle"):
        Dag(design.n_vertices, edges + [[w, u]], labels=design.labels)
    # a subset of cover edges is reduced, but not the labels' order
    part = Dag(design.n_vertices, edges[1:], labels=design.labels)
    assert part._planar_points is None and len(packed) == 3


# ---------------------------------------------------------------------------
# packed closures


@given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_from_edges_matches_the_dense_reduction(n, p, seed):
    """``from_edges`` and the constructor check read the covers off the packed
    closure: the dense reduction's int64 edges, row-major, on relations given
    in shuffled vertex and edge order."""
    rng = np.random.default_rng(seed)
    edges = rng.permutation(n)[np.argwhere(np.triu(rng.random((n, n)) < p, 1))]
    edges = edges[rng.permutation(len(edges))]
    closure = np.zeros((n, n), dtype=bool)   # by Floyd-Warshall
    closure[edges[:, 0], edges[:, 1]] = True
    for k in range(n):
        closure |= np.outer(closure[:, k], closure[k, :])
    expected = _transitive_reduction(closure)
    dag = Dag.from_edges(n, edges)
    assert dag.cover_edges.dtype == expected.dtype
    assert np.array_equal(dag.cover_edges, expected)
    assert np.array_equal(dag.reachability(), closure)
    checked = Dag(n, expected[rng.permutation(len(expected))])
    assert np.array_equal(checked.reachability(), closure)
    if len(edges) > len(expected):   # some given edge is redundant
        with pytest.raises(ValueError, match="transitively reduced"):
            Dag(n, edges)


@given(st.integers(min_value=3, max_value=4), st.integers(min_value=1, max_value=700),
       st.sampled_from([None, 2, 4, 8]), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_design_covers_above_the_plane_match_the_dense_reduction(d, n, grid, seed):
    """At d = 3 and 4 the packed closure of the lexsorted points gives the
    dense reduction's edges bitwise, with shared coordinates (points snapped
    to a grid of ``1/grid``), signed zeros and merged duplicates, over one
    or several row blocks; the builder keeps no closure."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    if grid is not None:
        pts = np.round(pts * grid) / grid
    pts[pts < 0.1] = 0.0
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    pts = np.concatenate([pts, pts[rng.integers(0, n, size=n // 3)]])
    dag = build_design_dag(pts)
    uniq = dag.labels
    le = (uniq[:, None, :] <= uniq[None, :, :]).all(axis=2)
    np.fill_diagonal(le, False)
    expected = _transitive_reduction(le)
    assert dag.cover_edges.dtype == expected.dtype
    assert np.array_equal(dag.cover_edges, expected)
    assert "_reach" not in dag.__dict__


def test_cube_lattice_edges_pass_the_packed_check():
    """The 16^3 lattice's edges are its order's covers, up to edge order."""
    lattice = build_lattice(LatticeSpec.cube(3, 16))
    edges = lattice.cover_edges
    Dag(lattice.n_vertices, edges[::-1])
    assert orders._same_edges(Dag.from_edges(lattice.n_vertices, edges).cover_edges, edges,
                              lattice.n_vertices)


def _traced_peak(build):
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_design_order_above_the_plane_builds_no_n_by_n_array():
    """At d = 3 the build's traced peak, and that of ``from_edges`` on its
    cover edges, stays below n^2 bytes, one n x n bool matrix: the packed
    closure takes n^2 / 8, and the walks of the raw edges read one
    successor array."""
    n = 3000
    pts = np.random.default_rng(8).random((n, 3))
    dag, peak = _traced_peak(lambda: build_design_dag(pts))
    assert len(dag.cover_edges) > n
    assert peak < n * n
    again, peak = _traced_peak(lambda: Dag.from_edges(n, dag.cover_edges))
    assert np.array_equal(again.cover_edges, dag.cover_edges)
    assert peak < n * n


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


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_longest_chain_is_the_first_longest(n, seed):
    """The chain starts at the lowest id among the longest chains' bottoms,
    and each step takes the first child in edge order that keeps it longest."""
    dag = Dag.from_edges(n, random_dag_edges(np.random.default_rng(seed), n))
    succ = [[v for u, v in dag.cover_edges.tolist() if u == w] for w in range(n)]
    height = np.ones(n, dtype=np.int64)   # vertices on a longest chain from each
    for u in dag.topo_order[::-1].tolist():
        height[u] += max((height[v] for v in succ[u]), default=0)
    chain = longest_chain(dag).tolist()
    assert chain[0] == int(np.argmax(height)) and len(chain) == height.max()
    for u, v in zip(chain, chain[1:]):
        assert v == next(c for c in succ[u] if height[c] == height[u] - 1)


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


def dict_merge_duplicates(points):
    """merge_duplicates as a loop over rows keyed by their float tuples."""
    seen = {}
    inverse = np.empty(len(points), dtype=np.int64)
    for i, row in enumerate(map(tuple, np.asarray(points).tolist())):
        inverse[i] = seen.setdefault(row, len(seen))
    return np.unique(inverse, return_index=True)[1], inverse


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_merge_duplicates_matches_the_dict_loop(n, d, seed):
    """Bitwise the loop's ``(firsts, inverse)`` on points snapped to a coarse
    grid, with signed zeros, nans and repeated rows."""
    rng = np.random.default_rng(seed)
    pts = np.round(rng.random((n, d)) * 3) / 3
    pts[rng.random((n, d)) < 0.3] *= -1.0   # -0.0 where the point is 0
    pts[rng.random((n, d)) < 0.05] = np.nan
    pts = np.concatenate([pts, pts[rng.integers(0, max(n, 1), size=n // 2)]])
    for mine, its in zip(merge_duplicates(pts), dict_merge_duplicates(pts)):
        assert mine.dtype == its.dtype
        assert np.array_equal(mine, its)


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


def assert_valid_antichain_report(dag, report):
    """W is an antichain, its chain cover certifies it maximum, and the splits
    partition the rest into what lies strictly above W and the remainder."""
    n = dag.n_vertices
    reach = dag.reachability()
    W = report.antichain
    # pairwise incomparable
    assert not reach[np.ix_(W, W)].any()
    # Dilworth certificate: as many chains as antichain elements, partitioning V
    assert len(report.chain_cover) == len(W)
    covered = np.sort(np.concatenate(report.chain_cover))
    assert np.array_equal(covered, np.arange(n))
    for chain in report.chain_cover:
        assert reach[chain[:-1], chain[1:]].all()
    # splits partition the rest; nothing in upper_split is below W, nothing
    # in lower_split is above it, and everything in upper_split is above it
    upper, lower = report.upper_split, report.lower_split
    parts = np.sort(np.concatenate([W, upper, lower]))
    assert np.array_equal(parts, np.arange(n))
    assert not reach[np.ix_(upper, W)].any()
    assert not reach[np.ix_(W, lower)].any()
    assert reach[np.ix_(W, upper)].any(axis=0).all()


REPORT_FIELDS = ("antichain", "chain_cover", "upper_split", "lower_split")


def assert_read_order_is_irrelevant(route, dag, read_order):
    """Two reports of ``route`` on ``dag``, one read in declaration order and
    one in ``read_order``, hold bitwise the same arrays."""
    first, second = route(dag), route(dag)
    expected = [getattr(first, name) for name in REPORT_FIELDS]
    got = {name: getattr(second, name) for name in read_order}
    for name, want in zip(REPORT_FIELDS, expected):
        have = got[name]
        if name == "chain_cover":
            assert len(have) == len(want)
            pairs = zip(have, want)
        else:
            pairs = [(have, want)]
        for a, b in pairs:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.permutations(REPORT_FIELDS))
@settings(max_examples=40, deadline=None)
def test_antichain_report_structure(n, seed, read_order):
    rng = np.random.default_rng(seed)
    dag = Dag.from_edges(n, random_dag_edges(rng, n))
    assert_valid_antichain_report(dag, maximum_antichain(dag))
    assert_read_order_is_irrelevant(maximum_antichain, dag, read_order)


def reference_matching_antichain(dag):
    """The matching route as per-vertex loops: Konig's alternating search as
    a depth-first stack, chains by following matched successors."""
    n = dag.n_vertices
    reach = dag.reachability()
    rows, cols = np.nonzero(reach)
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    match_of_col = maximum_bipartite_matching(graph, perm_type="row")
    succ = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if match_of_col[v] >= 0:
            succ[match_of_col[v]] = v
    seen_rows = succ < 0
    seen_cols = np.zeros(n, dtype=bool)
    stack = list(np.flatnonzero(seen_rows))
    while stack:
        for v in np.flatnonzero(reach[stack.pop()]):
            if not seen_cols[v]:
                seen_cols[v] = True
                w = match_of_col[v]
                if w >= 0 and not seen_rows[w]:
                    seen_rows[w] = True
                    stack.append(w)
    in_w = seen_rows & ~seen_cols
    chains = []
    for head in sorted(set(range(n)) - set(succ[succ >= 0].tolist())):
        chain = [head]
        while succ[chain[-1]] >= 0:
            chain.append(succ[chain[-1]])
        chains.append(chain)
    above = reach[in_w].any(axis=0) & ~in_w
    return np.flatnonzero(in_w), chains, np.flatnonzero(above), np.flatnonzero(~above & ~in_w)


def test_flow_route_matches_matching_reference():
    """The flow route's width is the reference matching's, and its report is
    valid.  Another route may return another maximum antichain, so the
    antichain and chains themselves are not compared."""
    rng = np.random.default_rng(7)
    dags = [Dag.from_edges(n, random_dag_edges(rng, n, p))
            for n, p in zip(rng.integers(1, 40, 200), rng.choice([0.05, 0.2, 0.5], 200))]
    dags += [build_lattice(LatticeSpec((8, 8, 8))), build_lattice(LatticeSpec((3, 5, 2, 4))),
             build_design_dag(rng.random((300, 3)))]
    read_orders = list(itertools.permutations(REPORT_FIELDS))
    for i, dag in enumerate(dags):
        report = _flow_antichain(dag)
        assert len(report.antichain) == len(reference_matching_antichain(dag)[0])
        assert_valid_antichain_report(dag, report)
        assert_read_order_is_irrelevant(_flow_antichain, dag, read_orders[i % len(read_orders)])


def test_flow_route_on_orders_slow_for_matching():
    """A chain with permuted ids and d=3 designs near the diagonal, where
    scipy's matching is slow (0.66 s, 0.067 s and 0.23 s in the old matching
    route): the flow route gets the known or reference width."""
    rng = np.random.default_rng(4)
    perm = rng.permutation(400)
    chain = Dag.from_edges(400, np.stack([perm[:-1], perm[1:]], axis=1))
    report = maximum_antichain(chain)
    assert len(report.antichain) == 1
    assert_valid_antichain_report(chain, report)
    for n in (300, 400):
        x = rng.random((n, 1))
        dag = build_design_dag(np.clip(x + 1e-3 * rng.standard_normal((n, 3)), 0.0, 1.0))
        report = maximum_antichain(dag)
        assert len(report.antichain) == len(reference_matching_antichain(dag)[0])
        assert_valid_antichain_report(dag, report)


def test_flow_route_builds_no_closure(monkeypatch):
    """A d=3 design's antichain reads only the cover edges: the builder keeps
    no dominance matrix, and the route never asks for reachability."""
    dag = build_design_dag(np.random.default_rng(6).random((300, 3)))
    calls = []
    real = Dag.reachability
    monkeypatch.setattr(Dag, "reachability", lambda self: calls.append(self) or real(self))
    report = maximum_antichain(dag)
    assert "_reach" not in dag.__dict__ and not calls
    monkeypatch.undo()
    assert_valid_antichain_report(dag, report)


@given(st.integers(min_value=1, max_value=80), st.sampled_from([None, 2, 4, 8]),
       st.integers(min_value=0, max_value=2**32 - 1), st.permutations(REPORT_FIELDS),
       st.sampled_from(["plane", "line", "sorted"]))
@settings(max_examples=90, deadline=None)
def test_planar_route_matches_dense_reference(n, grid, seed, read_order, shape):
    """The sweep's cover edges and the patience antichain against the dense
    dominance matrix and the reference matching, with shared coordinates (points
    snapped to a grid of ``1/grid``), repeated points and signed zeros.  A
    ``line`` (one column) and two columns ``sorted`` apart are chains, whose
    covers come from the sort alone."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 1 if shape == "line" else 2))
    if grid is not None:
        pts = np.round(pts * grid) / grid
    if shape == "sorted":
        pts = np.sort(pts, axis=0)[rng.permutation(n)]
    pts[pts < 0.1] = 0.0   # a monotone map: chains stay chains
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    pts = np.concatenate([pts, pts[rng.integers(0, n, size=n // 3)]])
    dag = build_design_dag(pts)
    if shape != "plane":
        assert len(dag.cover_edges) == dag.n_vertices - 1
    uniq = dag.labels
    le = (uniq[:, None, :] <= uniq[None, :, :]).all(axis=2)
    np.fill_diagonal(le, False)
    assert "cover_edges" in dag.__dict__   # swept when built
    expected = _transitive_reduction(le)
    assert dag.cover_edges.dtype == expected.dtype
    assert np.array_equal(dag.cover_edges, expected)
    assert not dag.cover_edges.flags.writeable
    report = maximum_antichain(dag)
    assert len(report.antichain) == len(reference_matching_antichain(dag)[0])
    assert_valid_antichain_report(dag, report)
    assert_read_order_is_irrelevant(maximum_antichain, dag, read_order)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(orders, name)
    monkeypatch.setattr(orders, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("case", ["missing_edge", "reversed_labels", "no_edges", "chain",
                                  "nan_label"])
def test_planar_route_is_checked_not_trusted(case, monkeypatch):
    """Two-column labels that do not realize the order send it to the flow."""
    spec = LatticeSpec((3, 3))
    labels = lattice_vertices(spec)
    edges = build_lattice(spec).cover_edges.tolist()
    if case == "missing_edge":
        dag = Dag.from_edges(9, edges[1:], labels=labels)
    elif case == "reversed_labels":
        dag = Dag(9, edges, labels=labels[::-1])
    elif case == "no_edges":
        dag = Dag(9, [], labels=labels)
    elif case == "chain":
        dag = Dag(9, [(i, i + 1) for i in range(8)], labels=labels)
    else:
        # nan compares false both ways: the sweep finds no edge, as the dag has none
        dag = Dag(2, [], labels=[[0.0, np.nan], [1.0, 0.5]])
    flow = _spy(monkeypatch, "_flow_antichain")
    report = maximum_antichain(dag)
    assert len(flow) == 1
    assert len(report.antichain) == brute_max_antichain(dag)
    assert_valid_antichain_report(dag, report)


@pytest.mark.parametrize("n1", [2, 3, 4, 5, 6])
def test_planar_route_on_square_lattices(n1, monkeypatch):
    dag = build_lattice(LatticeSpec((n1, n1)))
    patience = _spy(monkeypatch, "_patience_antichain")
    flow = _spy(monkeypatch, "_flow_antichain")
    report = maximum_antichain(dag)
    assert len(patience) == 1 and not flow
    assert len(report.antichain) == n1
    assert_valid_antichain_report(dag, report)


@pytest.mark.parametrize("case", ["design", "snapped_design", "chain_lattice"])
def test_line_orders_take_the_planar_route(case, monkeypatch):
    """One label column is swept as the plane's diagonal ``(x, x)``: d=1 designs
    and chain lattices take the sweep and patience routes, with the dense
    cover edges and the flow route's report."""
    if case == "chain_lattice":
        dag = build_lattice(LatticeSpec((30,)))
    else:
        x = np.random.default_rng(3).random(450)
        if case == "snapped_design":
            x = np.round(x * 8) / 8   # 9 distinct points, most repeated
        dag = build_design_dag(x)
        assert "_reach" not in dag.__dict__   # the sweep made no n x n matrix
        le = dag.labels <= dag.labels.T
        np.fill_diagonal(le, False)
        assert np.array_equal(dag.cover_edges, _transitive_reduction(le))
    expected = _flow_antichain(dag)
    patience = _spy(monkeypatch, "_patience_antichain")
    flow = _spy(monkeypatch, "_flow_antichain")
    report = maximum_antichain(dag)
    assert len(patience) == 1 and not flow
    assert np.array_equal(report.antichain, expected.antichain)
    assert np.array_equal(report.upper_split, expected.upper_split)
    assert np.array_equal(report.lower_split, expected.lower_split)
    assert [c.tolist() for c in report.chain_cover] == [
        c.tolist() for c in expected.chain_cover]


@pytest.mark.parametrize("shape", [(300, 2), (300,)])
def test_design_orders_are_swept_once(shape, monkeypatch):
    """build_design_dag sweeps its points once and keeps them as the planar
    proof, so neither the antichain, the fit nor a later read of the cover
    edges sweeps again."""
    sweeps = _spy(monkeypatch, "_planar_covers")
    dag = build_design_dag(np.random.default_rng(2).random(shape))
    assert len(sweeps) == 1
    edges = dag.cover_edges
    report = maximum_antichain(dag)
    lse_fit(dag, np.random.default_rng(3).standard_normal(dag.n_vertices))
    assert dag.cover_edges is edges and len(sweeps) == 1
    assert_valid_antichain_report(dag, report)


@pytest.mark.parametrize("d", [3])
def test_antichain_stats_reads_the_antichain_alone(d, monkeypatch):
    """Above the plane, ``antichain_stats`` calls ``maximum_antichain``
    through the name bound in ``isodag.design`` once per replicate (the
    benchmark tracer wraps that name), and no replicate builds a chain cover."""
    reports = []
    real = design.maximum_antichain
    monkeypatch.setattr(design, "maximum_antichain",
                        lambda dag: reports.append(real(dag)) or reports[-1])
    builders = [_spy(monkeypatch, name) for name in ("_pile_chains", "_flow_chains")]
    stats = antichain_stats(d, 150, DesignSampler.uniform(d), replicates=4, seed=5)
    assert len(reports) == 4
    assert builders == [[], []]
    assert stats.sizes.tolist() == [len(r.antichain) for r in reports]
    assert all("chain_cover" not in r.__dict__ for r in reports)


@pytest.mark.parametrize("route, builder", [("patience", "_pile_chains"),
                                            ("flow", "_flow_chains")])
def test_reports_build_their_chain_cover_once_on_first_read(route, builder, monkeypatch):
    """On both routes ``repr``, ``dataclasses.replace`` and ``check_partition``
    build no chain cover; the first read of ``chain_cover`` builds it and the
    second returns the same chains."""
    dag = build_design_dag(np.random.default_rng(6).random((60, 2 if route == "patience" else 3)))
    calls = _spy(monkeypatch, builder)
    report = maximum_antichain(dag)
    text = repr(report)
    copy = dataclasses.replace(report, lower_split=report.lower_split)
    report.check_partition(dag.n_vertices)
    copy.check_partition(dag.n_vertices)
    assert calls == []
    assert "chain_cover" not in text and "chains=" not in text
    cover = report.chain_cover
    assert report.chain_cover is cover and len(calls) == 1
    assert_valid_antichain_report(dag, report)
    assert [c.tolist() for c in copy.chain_cover] == [c.tolist() for c in cover]


def test_reports_compare_and_hash_by_identity(monkeypatch):
    """Two reports of one order compare unequal with no error and build no
    chain cover; a report hashes, and equals itself."""
    dag = build_design_dag(np.random.default_rng(9).random((30, 3)))
    calls = _spy(monkeypatch, "_flow_chains")
    a, b = maximum_antichain(dag), maximum_antichain(dag)
    assert a == a and a != b and len({a, b, a}) == 2
    assert hash(a) == hash(a)
    assert calls == [] and "chain_cover" not in a.__dict__ | b.__dict__


@pytest.mark.parametrize("d", [1, 2])
def test_antichain_stats_takes_planar_widths_from_the_points(d, monkeypatch):
    """In the plane ``antichain_stats`` builds no order and runs no antichain
    route: each replicate's size is the width of its drawn points, which is
    the width of the order built from them."""
    calls = []
    for name in ("build_design_dag", "maximum_antichain"):
        monkeypatch.setattr(design, name, lambda *a, name=name: calls.append(name))
    sampler = DesignSampler.uniform(d)
    stats = antichain_stats(d, 150, sampler, replicates=4, seed=5, stream_id=2)
    assert calls == []
    assert stats.sizes.tolist() == [
        len(maximum_antichain(build_design_dag(sample_design(sampler, 150, 5, 2 + r)))
            .antichain) for r in range(4)]


# coordinates with ties, the cube's ends and both zeros
_CUBE_COORDS = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                         st.floats(min_value=0.0, max_value=1.0))


@given(st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=80, deadline=None)
def test_planar_width_is_the_built_orders_width(d, data):
    """The width of the points as drawn, duplicates included, is the width
    of the order on the merged points."""
    base = data.draw(arrays(float, st.tuples(st.integers(1, 30), st.just(d)),
                            elements=_CUBE_COORDS))
    repeats = data.draw(st.lists(st.integers(0, len(base) - 1), max_size=10))
    points = np.concatenate([base, base[repeats]])
    points = points[data.draw(st.permutations(range(len(points))))]
    if d == 1 and data.draw(st.booleans()):
        points = points.ravel()
    expected = len(maximum_antichain(build_design_dag(points)).antichain)
    assert planar_width(points) == expected


@pytest.mark.parametrize("bad", [[[0.5, np.nan]], [np.nan], [[0.2, np.inf]],
                                 [[0.5, 1.5]], [[-0.1, 0.5]], [0.5, 2.0], []])
def test_planar_width_checks_points_as_the_builder_does(bad):
    with pytest.raises(ValueError):
        build_design_dag(bad)
    with pytest.raises(ValueError):
        planar_width(bad)


def test_planar_width_leaves_higher_dimensions_to_the_order():
    points = np.random.default_rng(4).random((50, 3))
    assert planar_width(points) is None
    with pytest.raises(ValueError):
        planar_width(points + 1.0)


# labels as the public ``Dag`` constructor takes them: ties, both zeros, nan
_LABEL_COORDS = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0, np.nan]),
                          st.floats(allow_nan=True, allow_infinity=False))


@pytest.mark.parametrize("distinct", [True, False])
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_sweep_order_is_lexsort_bitwise(distinct, data):
    """``_sweep_order`` is ``np.lexsort((y, x))``, bitwise, on both of its
    branches: x alone when the sorted x is strictly increasing, else both keys."""
    if distinct:   # hypothesis counts -0.0 and 0.0 as one value
        x = data.draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30,
                               unique=True))
    else:
        x = data.draw(st.lists(_LABEL_COORDS, min_size=2, max_size=30))
        x += data.draw(st.lists(st.sampled_from(x), min_size=1, max_size=5))
        x = data.draw(st.permutations(x))
    y = data.draw(st.lists(_LABEL_COORDS, min_size=len(x), max_size=len(x)))
    pts = np.column_stack([np.asarray(x, float), np.asarray(y, float)])
    expected = np.lexsort((pts[:, 1], pts[:, 0]))
    lexsorts = []
    real = np.lexsort
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "lexsort", lambda keys: lexsorts.append(keys) or real(keys))
        got = orders._sweep_order(pts)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert len(lexsorts) == (0 if distinct else 1)


@given(st.integers(min_value=1, max_value=2), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_patience_report_on_planar_designs_with_ties(d, merged, data):
    """On a design order of the plane with tied coordinates and repeated
    points (merged into weighted vertices, or kept as vertices of their own),
    the patience route's report is valid and as wide as the flow route's,
    and its antichain is the run the piles give: one point per pile, each
    the latest point of its pile before the next run point, ending at the
    last point of the last pile."""
    grid = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
    base = data.draw(arrays(float, st.tuples(st.integers(1, 25), st.just(d)), elements=grid))
    repeats = data.draw(st.lists(st.integers(0, len(base) - 1), max_size=8))
    points = np.concatenate([base, base[repeats]])
    points = points[data.draw(st.permutations(range(len(points))))]
    if merged:
        dag = build_design_dag(points)
    else:
        dag = Dag(len(points), orders._planar_covers(points[:, [0, -1]]), labels=points)
    with pytest.MonkeyPatch.context() as mp:
        patience = _spy(mp, "_patience_antichain")
        report = maximum_antichain(dag)
    assert len(patience) == 1
    assert_valid_antichain_report(dag, report)
    assert len(report.antichain) == len(_flow_antichain(dag).antichain)
    pos = np.argsort(orders._sweep_order(dag._planar_points))   # vertex -> sweep position
    run = report.antichain[np.argsort(pos[report.antichain])]
    piles = [pos[chain] for chain in report.chain_cover]
    assert [int(pos[v]) for v in run] == [int(piles[k][np.searchsorted(piles[k], pos[w]) - 1])
                                          for k, w in enumerate(run[1:])] + [int(piles[-1][-1])]


@pytest.mark.parametrize("sides", [(1,), (40,), (1, 6), (5, 8), (12, 12)])
def test_planar_lattices_state_their_points(sides, monkeypatch):
    """``build_lattice`` in the plane stores its labels as the planar proof,
    so ``maximum_antichain`` runs no sweep on it; its report is the one of
    the same order built by the public constructor, which sweeps to prove it."""
    dag = build_lattice(LatticeSpec(sides))
    sweeps = _spy(monkeypatch, "_planar_covers")
    report = maximum_antichain(dag)
    assert sweeps == []
    given_order = Dag(dag.n_vertices, dag.cover_edges, labels=dag.labels)
    expected = maximum_antichain(given_order)
    assert len(sweeps) == 1
    assert dag._planar_points.tobytes() == given_order._planar_points.tobytes()
    for name in ("antichain", "upper_split", "lower_split"):
        assert getattr(report, name).tobytes() == getattr(expected, name).tobytes()
    assert [c.tolist() for c in report.chain_cover] == [
        c.tolist() for c in expected.chain_cover]


def test_cube_lattices_state_no_planar_points():
    assert build_lattice(LatticeSpec((3, 3, 3)))._planar_points is None


@pytest.mark.parametrize("shape", [(400, 2), (400,)])
def test_design_edges_fit_and_serialize_as_given_ones(shape):
    """A design order built from points of the plane fits and serializes
    bitwise (labels, multiplicities and cover edges) as the same order with
    the sweep's edges handed to the public constructor, which proves them by
    sweeping its labels."""
    rng = np.random.default_rng(8)
    dag = build_design_dag(np.round(rng.random(shape) * 30) / 30)   # repeats carry weight
    given_edges = Dag(dag.n_vertices, orders._planar_covers(dag._planar_points),
                      labels=dag.labels, multiplicities=dag.multiplicities)
    y = dag.labels.sum(axis=1) + rng.standard_normal(dag.n_vertices)
    fit = lse_fit(dag, y)
    expected = lse_fit(given_edges, y)
    assert fit.theta_hat.tobytes() == expected.theta_hat.tobytes()
    assert fit.residual.tobytes() == expected.residual.tobytes()
    assert dag.labels.tobytes() == given_edges.labels.tobytes()
    assert dag.multiplicities.tobytes() == given_edges.multiplicities.tobytes()
    assert dag.cover_edges.tobytes() == given_edges.cover_edges.tobytes()


def test_planar_antichain_at_scale():
    # the bipartite-matching route this replaced did not finish it within 9 minutes
    dag = build_design_dag(np.random.default_rng(0).random((4000, 2)))
    report = maximum_antichain(dag)
    assert_valid_antichain_report(dag, report)


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
