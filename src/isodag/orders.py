"""Finite partial orders as DAGs: lattices, design orders, antichains.

A partial order on ``{0, ..., n-1}`` is stored as a :class:`Dag` holding the
cover edges (the transitive reduction) together with a topological order.
Reachability -- the full order relation -- is recovered on demand and cached.

Two constructors cover the cases used throughout the package:

* :func:`build_lattice` builds the grid order on ``{1..n_1} x ... x {1..n_d}``
  where ``u <= v`` iff the inequality holds coordinatewise.
* :func:`build_design_dag` builds the induced order on a finite set of points
  in ``[0, 1]^d``, merging exact duplicates into weighted vertices.

Vertex ids are always 0-based integers; lattice vertex labels are 1-based
coordinate tuples laid out in row-major (C) order, last coordinate fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

DEFAULT_MAX_VERTICES = 1_000_000

# Subset enumeration (upper/lower sets, min-max oracles) is exponential in n.
UPPER_SET_VERTEX_CAP = 12


class SizeCapError(ValueError):
    """A requested combinatorial construction exceeds its configured cap."""


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be a sequence of (u, v) pairs")
    return arr


def _topological_order(n: int, edges: np.ndarray) -> np.ndarray:
    """Kahn's algorithm; raises ValueError on a cycle."""
    indeg = np.zeros(n, dtype=np.int64)
    heads: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        heads[u].append(v)
        indeg[v] += 1
    stack = sorted(np.flatnonzero(indeg == 0).tolist(), reverse=True)
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in heads[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if len(order) != n:
        raise ValueError("edge set contains a cycle")
    return np.asarray(order, dtype=np.int64)


class Dag:
    """Immutable DAG in transitive reduction, representing a partial order.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; ids are ``0..n_vertices-1``.
    cover_edges : array-like of shape (m, 2)
        Cover relations ``u -> v`` meaning ``u < v`` with nothing in between.
        Must already be transitively reduced; use :meth:`from_edges` to
        reduce an arbitrary acyclic relation first.
    labels : array-like of shape (n, d), optional
        Coordinate labels (lattice tuples or design points).
    multiplicities : array-like of shape (n,), optional
        Positive vertex weights from merged duplicate points.  ``None``
        means all ones.

    Instances are immutable after construction and safe to share across
    concurrent readers; reachability is computed lazily and cached.
    """

    def __init__(self, n_vertices, cover_edges, labels=None, multiplicities=None,
                 _skip_reduction_check=False):
        n = int(n_vertices)
        if n <= 0:
            raise ValueError("n_vertices must be positive")
        edges = _as_edge_array(cover_edges)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loop in edge list")
        self.n_vertices = n
        self.cover_edges = edges
        self.cover_edges.setflags(write=False)
        self.topo_order = _topological_order(n, edges)
        self.topo_order.setflags(write=False)
        if labels is not None:
            labels = np.asarray(labels)
            if labels.ndim == 1:
                labels = labels.reshape(n, 1)
            if labels.shape[0] != n:
                raise ValueError("labels must have one row per vertex")
            labels.setflags(write=False)
        self.labels = labels
        if multiplicities is not None:
            multiplicities = np.asarray(multiplicities, dtype=float)
            if multiplicities.shape != (n,):
                raise ValueError("multiplicities must have shape (n,)")
            if np.any(multiplicities <= 0):
                raise ValueError("multiplicities must be positive")
            multiplicities.setflags(write=False)
        self.multiplicities = multiplicities
        if not _skip_reduction_check and edges.size:
            red = _transitive_reduction(self.reachability())
            if red.shape[0] != edges.shape[0] or not _same_edge_set(red, edges):
                raise ValueError("cover_edges are not transitively reduced")

    # -- derived structure -------------------------------------------------

    @cached_property
    def _reach(self) -> np.ndarray:
        n = self.n_vertices
        reach = np.zeros((n, n), dtype=bool)
        children: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.cover_edges:
            children[u].append(v)
        for u in self.topo_order[::-1]:
            row = reach[u]
            for v in children[u]:
                row[v] = True
                row |= reach[v]
        reach.setflags(write=False)
        return reach

    def reachability(self) -> np.ndarray:
        """Strict reachability matrix: ``R[u, v]`` iff ``u < v``.

        The matrix is cached; do not mutate it.  Quadratic memory -- intended
        for the desk scales where antichain and oracle computations run.
        """
        return self._reach

    def is_comparable(self, u: int, v: int) -> bool:
        r = self.reachability()
        return bool(r[u, v] or r[v, u])

    @cached_property
    def _adjacency(self):
        children: list[list[int]] = [[] for _ in range(self.n_vertices)]
        parents: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.cover_edges:
            children[u].append(v)
            parents[v].append(u)
        return children, parents

    @property
    def children(self):
        return self._adjacency[0]

    @property
    def parents(self):
        return self._adjacency[1]

    def weights(self) -> np.ndarray:
        if self.multiplicities is None:
            return np.ones(self.n_vertices)
        return np.asarray(self.multiplicities, dtype=float)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n_vertices, edges, labels=None, multiplicities=None) -> "Dag":
        """Build a Dag from an arbitrary acyclic relation.

        The edge list may contain transitively redundant pairs; the stored
        cover edges are the transitive reduction of its closure.
        """
        n = int(n_vertices)
        edges = _as_edge_array(edges)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        order = _topological_order(n, edges)  # cycle check on raw edges
        reach = np.zeros((n, n), dtype=bool)
        children: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop in edge list")
            children[u].append(v)
        for u in order[::-1]:
            for v in children[u]:
                reach[u, v] = True
                reach[u] |= reach[v]
        cover = _transitive_reduction(reach)
        return cls(n, cover, labels=labels, multiplicities=multiplicities,
                   _skip_reduction_check=True)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the plain-text interchange format.

        Line 1 is ``n d``; the next ``n`` lines give vertex coordinates
        (``d`` columns; a trailing multiplicity column is appended when any
        vertex carries weight != 1); a literal ``edges`` line follows, then
        one ``u v`` line per cover edge.  ``d = 0`` means unlabeled vertices
        and no coordinate lines.  Round-trips exactly through
        :meth:`from_text`.
        """
        if self.labels is None:
            d = 0
        else:
            d = self.labels.shape[1]
        lines = [f"{self.n_vertices} {d}"]
        with_mult = self.multiplicities is not None and not np.all(self.multiplicities == 1.0)
        if d or with_mult:
            for i in range(self.n_vertices):
                parts = [] if self.labels is None else [_num_repr(x) for x in self.labels[i]]
                if with_mult:
                    parts.append(_num_repr(self.multiplicities[i]))
                lines.append(" ".join(parts))
        lines.append("edges")
        for u, v in self.cover_edges:
            lines.append(f"{u} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dag":
        """Parse the format written by :meth:`to_text`."""
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if not lines:
            raise ValueError("empty dag text")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError("first line must be 'n d'")
        n, d = int(head[0]), int(head[1])
        pos = 1
        labels = None
        mult = None
        if pos < len(lines) and lines[pos] != "edges" and (d > 0 or lines[pos].split()):
            rows = []
            for i in range(n):
                if pos >= len(lines) or lines[pos] == "edges":
                    raise ValueError("truncated vertex block")
                rows.append([_num_parse(tok) for tok in lines[pos].split()])
                pos += 1
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged vertex block")
            width = widths.pop()
            if width == d + 1:
                mult = np.asarray([r[-1] for r in rows], dtype=float)
                rows = [r[:-1] for r in rows]
            elif width != d:
                raise ValueError(f"expected {d} coordinates per vertex, got {width}")
            if d:
                labels = np.asarray(rows)
        if pos >= len(lines) or lines[pos] != "edges":
            raise ValueError("missing 'edges' line")
        pos += 1
        edges = []
        for ln in lines[pos:]:
            toks = ln.split()
            if len(toks) != 2:
                raise ValueError(f"bad edge line: {ln!r}")
            edges.append((int(toks[0]), int(toks[1])))
        return cls(n, edges, labels=labels, multiplicities=mult,
                   _skip_reduction_check=True)


def _num_repr(x) -> str:
    # integers print bare so lattice labels round-trip as ints
    f = float(x)
    if f.is_integer() and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def _num_parse(tok: str):
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def _transitive_reduction(reach: np.ndarray) -> np.ndarray:
    """Cover edges of the strict order with closure matrix ``reach``."""
    # edge (u, v) is a cover iff no w with u < w < v
    r = reach.astype(np.float32)
    two_step = (r @ r) > 0.5
    cover = reach & ~two_step
    return np.argwhere(cover).astype(np.int64)


def _same_edge_set(a: np.ndarray, b: np.ndarray) -> bool:
    sa = {tuple(e) for e in a.tolist()}
    sb = {tuple(e) for e in b.tolist()}
    return sa == sb


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class LatticeSpec:
    """Axis-aligned grid ``{1..n_1} x ... x {1..n_d}`` under the product order."""

    side_lengths: tuple[int, ...]

    def __post_init__(self):
        if len(self.side_lengths) < 1:
            raise ValueError("need at least one dimension")
        if any(int(s) < 1 for s in self.side_lengths):
            raise ValueError("side lengths must be >= 1")
        object.__setattr__(self, "side_lengths", tuple(int(s) for s in self.side_lengths))

    @classmethod
    def cube(cls, d: int, n1: int) -> "LatticeSpec":
        if d < 1:
            raise ValueError("d must be >= 1")
        return cls((int(n1),) * int(d))

    @property
    def d(self) -> int:
        return len(self.side_lengths)

    @property
    def n(self) -> int:
        return int(np.prod([int(s) for s in self.side_lengths], dtype=object))


def lattice_vertices(spec: LatticeSpec) -> np.ndarray:
    """1-based coordinate tuples of all vertices, row-major order, shape (n, d)."""
    grids = np.meshgrid(*[np.arange(1, s + 1) for s in spec.side_lengths], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def lattice_index(spec: LatticeSpec, vertex: tuple[int, ...]) -> int:
    """Vertex id of a 1-based coordinate tuple."""
    if len(vertex) != spec.d:
        raise ValueError("tuple dimension mismatch")
    idx = 0
    for x, s in zip(vertex, spec.side_lengths):
        if not 1 <= x <= s:
            raise ValueError(f"coordinate {x} outside 1..{s}")
        idx = idx * s + (x - 1)
    return idx


def build_lattice(spec: LatticeSpec, max_vertices: int = DEFAULT_MAX_VERTICES) -> Dag:
    """Grid order on the lattice: ``u <= v`` iff coordinatewise.

    Cover edges step +1 in exactly one coordinate, so a full cube
    ``d, n_1`` has ``d (n_1 - 1) n_1^(d-1)`` of them.

    Raises
    ------
    SizeCapError
        If ``spec.n`` exceeds ``max_vertices``.
    """
    n = spec.n
    if n > max_vertices:
        raise SizeCapError(
            f"lattice has {n} vertices, above the cap of {max_vertices}")
    sides = spec.side_lengths
    d = spec.d
    shape = tuple(sides)
    ids = np.arange(n).reshape(shape)
    edges = []
    for j in range(d):
        if sides[j] < 2:
            continue
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[j] = slice(0, sides[j] - 1)
        hi[j] = slice(1, sides[j])
        edges.append(np.stack([ids[tuple(lo)].ravel(), ids[tuple(hi)].ravel()], axis=1))
    cover = np.concatenate(edges, axis=0) if edges else np.zeros((0, 2), dtype=np.int64)
    return Dag(n, cover, labels=lattice_vertices(spec), _skip_reduction_check=True)


def merge_duplicates(points) -> tuple[np.ndarray, np.ndarray]:
    """Merge the equal rows of an ``(n, d)`` array of points.

    Returns ``(firsts, inverse)``: the row of each distinct point's first
    occurrence, in first-occurrence order, and for every row the position
    of its point in ``firsts``, so ``points[firsts][inverse]`` equals
    ``points`` and ``bincount(inverse)`` holds the multiplicities.  Rows
    merge when they are equal as tuples of floats, so ``-0.0`` and ``0.0``
    are one point.
    """
    seen: dict[tuple, int] = {}
    inverse = np.empty(len(points), dtype=np.int64)
    for i, row in enumerate(map(tuple, np.asarray(points).tolist())):
        inverse[i] = seen.setdefault(row, len(seen))
    return np.unique(inverse, return_index=True)[1], inverse


def build_design_dag(points) -> Dag:
    """Partial order induced on points of ``[0, 1]^d`` by coordinatewise <=.

    Equal points are merged by :func:`merge_duplicates` into one vertex
    carrying a multiplicity weight.  Vertices keep the first-occurrence
    order of the input.  Non-finite coordinates are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, d) array")
    if not np.all((pts >= 0.0) & (pts <= 1.0)):   # also false for nan
        raise ValueError("points must be finite and lie in [0, 1]^d")
    firsts, inverse = merge_duplicates(pts)
    mult = np.bincount(inverse)
    uniq = pts[firsts]
    n = uniq.shape[0]
    # dominance is already transitive: closure == componentwise comparison
    le = np.ones((n, n), dtype=bool)
    for j in range(uniq.shape[1]):
        col = uniq[:, j]
        le &= col[:, None] <= col[None, :]
    np.fill_diagonal(le, False)
    cover = _transitive_reduction(le)
    dag = Dag(n, cover, labels=uniq,
              multiplicities=mult if mult.max() > 1 else None,
              _skip_reduction_check=True)
    dag.__dict__["_reach"] = le  # reuse the dominance matrix as the cached closure
    le.setflags(write=False)
    return dag


# ---------------------------------------------------------------------------
# isotonic feasibility


def is_isotonic(dag: Dag, theta, tol: float = 0.0) -> bool:
    """True iff ``theta[u] <= theta[v] + tol`` across every cover edge."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dag.n_vertices,):
        raise ValueError("theta length does not match vertex count")
    if dag.cover_edges.size == 0:
        return True
    u = dag.cover_edges[:, 0]
    v = dag.cover_edges[:, 1]
    return bool(np.all(theta[u] <= theta[v] + tol))


# ---------------------------------------------------------------------------
# antichains and chain covers


@dataclass(frozen=True)
class AntichainReport:
    """A maximum antichain with its Dilworth certificate and order splits.

    ``antichain`` is a sorted vertex id array W; ``chain_cover`` is a vertex
    partition into ``len(antichain)`` chains witnessing maximality (``None``
    when the report was built from a known antichain without running the
    matching); ``upper_split`` / ``lower_split`` partition the remaining
    vertices into those strictly above some element of W and the rest, with
    no element of W above anything in ``upper_split``.
    """

    antichain: np.ndarray
    chain_cover: list | None
    upper_split: np.ndarray
    lower_split: np.ndarray


def maximum_antichain(dag: Dag) -> AntichainReport:
    """Maximum antichain via Dilworth's theorem on the split bipartite graph.

    A maximum matching on ``{v_out} x {v_in}`` with an edge per strictly
    comparable pair yields a minimum chain cover of size ``n - |matching|``;
    the Konig vertex cover complement recovers an antichain of that size.
    """
    n = dag.n_vertices
    reach = dag.reachability()
    rows, cols = np.nonzero(reach)
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    match_of_col = maximum_bipartite_matching(graph, perm_type="row")
    match_of_row = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if match_of_col[v] >= 0:
            match_of_row[match_of_col[v]] = v

    # Konig: alternate from unmatched rows along non-matching edges L->R
    # and matching edges R->L.
    visited_rows = np.zeros(n, dtype=bool)
    visited_cols = np.zeros(n, dtype=bool)
    stack = [u for u in range(n) if match_of_row[u] < 0]
    visited_rows[stack] = True
    while stack:
        u = stack.pop()
        for v in np.nonzero(reach[u])[0]:
            if not visited_cols[v]:
                visited_cols[v] = True
                w = match_of_col[v]
                if w >= 0 and not visited_rows[w]:
                    visited_rows[w] = True
                    stack.append(w)
    in_antichain = visited_rows & ~visited_cols
    antichain = np.flatnonzero(in_antichain)

    # chains: follow matched successor links
    succ = match_of_row
    has_pred = np.zeros(n, dtype=bool)
    for u in range(n):
        if succ[u] >= 0:
            has_pred[succ[u]] = True
    chains = []
    for u in range(n):
        if not has_pred[u]:
            chain = [u]
            w = succ[u]
            while w >= 0:
                chain.append(w)
                w = succ[w]
            chains.append(np.asarray(chain, dtype=np.int64))

    upper, lower = _splits_from_antichain(dag, antichain)
    return AntichainReport(antichain=antichain, chain_cover=chains,
                           upper_split=upper, lower_split=lower)


def _splits_from_antichain(dag: Dag, antichain: np.ndarray):
    reach = dag.reachability()
    n = dag.n_vertices
    in_w = np.zeros(n, dtype=bool)
    in_w[antichain] = True
    above = reach[antichain, :].any(axis=0) & ~in_w
    upper = np.flatnonzero(above)
    lower = np.flatnonzero(~above & ~in_w)
    return upper, lower


def level_cardinalities(spec: LatticeSpec) -> np.ndarray:
    """Counts of lattice vertices at each coordinate sum ``d .. sum(n_j)``."""
    poly = np.array([1], dtype=object)
    for s in spec.side_lengths:
        poly = np.convolve(poly, np.ones(s, dtype=object))
    return poly.astype(np.int64)


def level_antichain(spec: LatticeSpec, level="max") -> np.ndarray:
    """Vertex ids of the lattice antichain at a fixed coordinate sum.

    Parameters
    ----------
    spec : LatticeSpec
    level : int or "max"
        Coordinate-sum level in ``d .. sum(n_j)``.  ``"max"`` picks the level
        of largest cardinality, breaking ties toward the lower level.

    Returns
    -------
    ndarray
        Sorted vertex ids whose 1-based coordinates sum to ``level``.
    """
    d = spec.d
    lo, hi = d, sum(spec.side_lengths)
    if level == "max":
        counts = level_cardinalities(spec)
        level = lo + int(np.argmax(counts))
    level = int(level)
    if not lo <= level <= hi:
        raise ValueError(f"level must lie in {lo}..{hi}")
    sums = lattice_vertices(spec).sum(axis=1)
    return np.flatnonzero(sums == level)


def level_antichain_report(spec: LatticeSpec, level="max") -> AntichainReport:
    """AntichainReport for a coordinate-sum antichain, splits by sum comparison.

    On a full lattice the vertices with coordinate sum above the level are
    exactly those above some antichain element, so this matches the generic
    reachability split without running the matching.  ``chain_cover`` is left
    ``None``.
    """
    ids = level_antichain(spec, level)
    sums = lattice_vertices(spec).sum(axis=1)
    lev = int(sums[ids[0]])
    upper = np.flatnonzero(sums > lev)
    lower = np.flatnonzero(sums < lev)
    return AntichainReport(antichain=ids, chain_cover=None,
                           upper_split=upper, lower_split=lower)


def longest_chain(dag: Dag) -> np.ndarray:
    """Vertex ids of a maximum chain, in increasing order."""
    n = dag.n_vertices
    best_len = np.ones(n, dtype=np.int64)
    best_next = np.full(n, -1, dtype=np.int64)
    children = dag.children
    for u in dag.topo_order[::-1]:
        for v in children[u]:
            if best_len[v] + 1 > best_len[u]:
                best_len[u] = best_len[v] + 1
                best_next[u] = v
    start = int(np.argmax(best_len))
    chain = [start]
    while best_next[chain[-1]] >= 0:
        chain.append(int(best_next[chain[-1]]))
    return np.asarray(chain, dtype=np.int64)


# ---------------------------------------------------------------------------
# upper/lower set enumeration


def upper_set_masks(dag: Dag) -> list[int]:
    """All upper sets as vertex bitmasks (bit i set iff vertex i in the set).

    Exponential enumeration; capped at ``UPPER_SET_VERTEX_CAP`` vertices.
    """
    n = dag.n_vertices
    if n > UPPER_SET_VERTEX_CAP:
        raise SizeCapError(
            f"upper set enumeration capped at {UPPER_SET_VERTEX_CAP} vertices, got {n}")
    reach = dag.reachability()
    succ = [int(sum(1 << v for v in np.nonzero(reach[u])[0])) for u in range(n)]
    out = []
    for mask in range(1 << n):
        m = mask
        ok = True
        while m:
            u = (m & -m).bit_length() - 1
            if succ[u] & ~mask:
                ok = False
                break
            m &= m - 1
        if ok:
            out.append(mask)
    return out


def enumerate_upper_lower_sets(dag: Dag):
    """All upper sets and all lower sets of the order, as frozensets.

    Both lists include the empty set and the full vertex set; lower sets are
    the complements of upper sets.  Same size cap as :func:`upper_set_masks`.
    """
    n = dag.n_vertices
    full = (1 << n) - 1
    uppers = upper_set_masks(dag)
    to_set = lambda m: frozenset(i for i in range(n) if m >> i & 1)
    upper_sets = [to_set(m) for m in uppers]
    lower_sets = [to_set(full & ~m) for m in uppers]
    return upper_sets, lower_sets
