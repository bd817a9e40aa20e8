"""Finite partial orders as DAGs: lattices, design orders, antichains.

A partial order on ``{0, ..., n-1}`` is stored as a :class:`Dag` holding the
cover edges (the transitive reduction).  A topological order and
reachability -- the full order relation -- are computed when first read and
cached.

Two constructors cover the cases used throughout the package:

* :func:`build_lattice` builds the grid order on ``{1..n_1} x ... x {1..n_d}``
  where ``u <= v`` iff the inequality holds coordinatewise.
* :func:`build_design_dag` builds the induced order on a finite set of points
  in ``[0, 1]^d``, merging exact duplicates into weighted vertices, after
  the package's one point check (nonempty, finite, inside the cube).  For
  ``d <= 2`` one sweep of the points of the plane (a line's points as the
  diagonal ``(x, x)``, a chain that needs only its sort) gives the cover
  edges with no n x n matrix, and the points are stored as the order's
  planar proof; higher dimensions use the dense dominance matrix.

:func:`maximum_antichain` returns a maximum antichain with a chain cover of
the same size.  On an order that is planar dominance of its labels (one
label column counts as the plane's diagonal) it uses patience sorting in
O(n log n); the proof is the points that :func:`build_design_dag` or
:func:`build_lattice` built the order from, so it sweeps nothing, or one
sweep run and cached on first use for any other order.
On every other order it runs one maximum flow on the cover edges (Dilworth
via Ford & Fulkerson): the antichain and the splits are read off the
minimal minimum cut, and the chains off the flow.  No route needs the n x n
reachability matrix.  Either route computes the antichain at once and
builds the chain cover and the splits when they are first read, so a
caller that wants the width alone pays for neither (a design order of the
plane paid for its sweep when built).  :func:`planar_width` gives the width
of points of the plane from the same patience piles, with no order built.

Vertex ids are always 0-based integers; lattice vertex labels are 1-based
coordinate tuples laid out in row-major (C) order, last coordinate fastest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, maximum_flow

LATTICE_VERTEX_CAP = 1_000_000


class SizeCapError(ValueError):
    """A requested combinatorial construction exceeds its configured cap."""


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be a sequence of (u, v) pairs")
    return arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``: the dag cannot be changed through the
    caller's array, and the caller's array stays writable."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _topological_order(n: int, edges: np.ndarray) -> np.ndarray:
    """Kahn's algorithm; raises ValueError on a cycle."""
    indeg = [0] * n
    heads: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        heads[u].append(v)
        indeg[v] += 1
    stack = [u for u in range(n - 1, -1, -1) if indeg[u] == 0]
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
        Positive finite vertex weights, as merged duplicate points give;
        they are the weights of every fit on the dag.  ``None`` means all
        ones.

    Instances are immutable after construction and safe to share across
    concurrent readers.  ``cover_edges`` is a read-only int64 copy of the
    given edges.  The topological order, reachability and the planar proof
    are computed when first read and cached.  Two concurrent first reads may
    each compute a value, and both get the same one.  The constructor checks
    that the edges are reduced and acyclic: by one planar sweep when the
    labels' dominance order has exactly these cover edges, and otherwise on
    the n x n reachability matrix.  An order from :func:`build_design_dag`
    also carries ``_merge``, the read-only ``(firsts, inverse)`` of
    :func:`merge_duplicates` that merged its points.
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
        self.cover_edges = _frozen_copy(edges)
        if labels is not None:
            labels = np.asarray(labels)
            if labels.ndim == 1:
                labels = labels.reshape(n, 1)
            if labels.shape[0] != n:
                raise ValueError("labels must have one row per vertex")
            labels = _frozen_copy(labels)
        self.labels = labels
        if multiplicities is not None:
            multiplicities = np.asarray(multiplicities, dtype=float)
            if multiplicities.shape != (n,):
                raise ValueError("multiplicities must have shape (n,)")
            if not np.all(np.isfinite(multiplicities)) or np.any(multiplicities <= 0):
                raise ValueError("multiplicities must be positive and finite")
            multiplicities = _frozen_copy(multiplicities)
        self.multiplicities = multiplicities
        # a sweep's covers are reduced and acyclic; any other edges are
        # checked on the closure, whose topological order rejects a cycle
        if not _skip_reduction_check and edges.size and self._planar_points is None:
            if not _same_edges(_transitive_reduction(self.reachability()), edges):
                raise ValueError("cover_edges are not transitively reduced")

    # -- derived structure -------------------------------------------------

    @cached_property
    def topo_order(self) -> np.ndarray:
        """A topological order of the vertices, by Kahn's algorithm (cached).

        Raises ``ValueError`` if the edges contain a cycle.
        """
        order = _topological_order(self.n_vertices, self.cover_edges)
        order.setflags(write=False)
        return order

    @cached_property
    def children(self) -> list[list[int]]:
        """Cover-edge successors of each vertex, as Python lists (cached)."""
        children: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.cover_edges.tolist():
            children[u].append(v)
        return children

    @cached_property
    def _reach(self) -> np.ndarray:
        reach = np.zeros((self.n_vertices, self.n_vertices), dtype=bool)
        children = self.children
        for u in self.topo_order[::-1].tolist():
            row = reach[u]
            for v in children[u]:
                row[v] = True
                row |= reach[v]
        reach.setflags(write=False)
        return reach

    @cached_property
    def _planar_points(self) -> np.ndarray | None:
        """The labels as float points if they realize the order in the plane.

        They do when the labels are one or two finite numeric columns (one
        column ``x`` is read as the point ``(x, x)``) and the planar sweep's
        covers of those points equal the cover edges, in count and as a
        set; otherwise ``None``.  :func:`build_design_dag` and, for ``d <= 2``,
        :func:`build_lattice` store the points their orders are dominance
        of, so those orders are never swept to prove them.
        """
        labels = self.labels
        if labels is None or labels.shape[1] not in (1, 2) or labels.dtype.kind not in "iuf":
            return None
        pts = labels[:, [0, -1]].astype(float)
        if not np.all(np.isfinite(pts)) or not _same_edges(_planar_covers(pts),
                                                           self.cover_edges):
            return None
        return pts

    def reachability(self) -> np.ndarray:
        """Strict reachability matrix: ``R[u, v]`` iff ``u < v``.

        Built from the cover edges on first use and cached; do not mutate it.
        Quadratic memory, for small orders; no antichain route reads it.
        """
        return self._reach

    def is_comparable(self, u: int, v: int) -> bool:
        r = self.reachability()
        return bool(r[u, v] or r[v, u])

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
        # the constructor checks range and self-loops on the raw edges, and
        # reading their closure runs Kahn's pass, which rejects a cycle
        reach = cls(n, edges, _skip_reduction_check=True).reachability()
        return cls(n, _transitive_reduction(reach), labels=labels,
                   multiplicities=multiplicities, _skip_reduction_check=True)

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
        lines.extend(f"{u} {v}" for u, v in self.cover_edges.tolist())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dag":
        """Parse the format written by :meth:`to_text`.

        The edges must be cover edges: a transitively redundant edge raises
        ``ValueError``, as it does in the constructor.
        """
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
        return cls(n, edges, labels=labels, multiplicities=mult)


def disjoint_copies(dag: Dag, copies: int) -> Dag:
    """The order of ``copies`` side-by-side copies of ``dag``, none comparable
    with another.

    Copy ``i`` holds vertices ``i*n .. (i+1)*n - 1``; its cover edges and
    multiplicities are those of ``dag``, offset by ``i*n``.  ``dag`` already
    passed the cycle and reduction checks, and a disjoint union of reduced
    orders is reduced, so the check is skipped.  The union's topological
    order, if read, is ``dag``'s tiled copy by copy: Kahn's stack finishes
    one copy before it pops a source of the next.  The copies carry no
    labels.  One copy is ``dag`` itself.
    """
    copies = int(copies)
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if copies == 1:
        return dag
    n = dag.n_vertices
    offsets = n * np.arange(copies, dtype=np.int64)
    edges = (dag.cover_edges[None] + offsets[:, None, None]).reshape(-1, 2)
    mult = None if dag.multiplicities is None else np.tile(dag.multiplicities, copies)
    return Dag(n * copies, edges, multiplicities=mult, _skip_reduction_check=True)


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


def _same_edges(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two edge lists hold the same ``(u, v)`` pairs, counted with
    multiplicity, in any order."""
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    m = max(int(a.max()), int(b.max())) + 1   # one int64 key per edge
    return np.array_equal(np.sort(a[:, 0] * m + a[:, 1]), np.sort(b[:, 0] * m + b[:, 1]))


# Rows of the planar sweep handled at once; its memory is O(n * _SWEEP_ROWS).
_SWEEP_ROWS = 128


def _planar_covers(pts: np.ndarray) -> np.ndarray:
    """Cover edges of the dominance order on points of the plane, no n x n matrix.

    One sweep over the points in ``np.lexsort((y, x))`` order (Kung, Luccio &
    Preparata 1975).  Of two distinct points only the earlier can lie below
    the later (equal points are ordered by index), and
    point ``q`` covers an earlier point ``p`` iff ``y_q >= y_p`` and ``y_q``
    is strictly below the y of every candidate between them, a point ``k``
    with ``p < k < q`` and ``y_k >= y_p``.  So along row ``p`` the covers
    are the strict new minima of the running minimum over the candidates.
    Rows are swept in chunks of ``_SWEEP_ROWS``; if the sorted y never
    decreases (a line's ``(x, x)`` always), the points are a chain whose
    covers are its consecutive pairs, with no sweep.  For distinct points the
    edges equal ``_transitive_reduction`` of the dominance matrix, in the
    same row-major ``(u, v)`` order.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    n = len(order)
    ys = pts[order, 1]
    if np.all(ys[1:] >= ys[:-1]):   # a chain: each point covers the one before
        u, v = np.divmod(np.sort(order[:-1] * n + order[1:]), n)
        return np.stack([u, v], axis=1).astype(np.int64)
    # y as int32 ranks (equal y, equal rank): the running minimum is cheaper
    y = np.unique(ys, return_inverse=True)[1].astype(np.int32)
    keys = []   # edge (u, v) as u * n + v, which sorts in row-major order
    for a in range(0, n - 1, _SWEEP_ROWS):
        k = min(_SWEEP_ROWS, n - 1 - a)
        later = y[a + 1:]
        # row r is point a + r, column c is point a + 1 + c; n marks no candidate
        cand = np.where(later >= y[a:a + k, None], later, np.int32(n))
        cand[:, :k][np.tri(k, k, -1, dtype=bool)] = n   # columns not after the row
        low = np.minimum.accumulate(cand, axis=1)
        cover = np.empty(low.shape, dtype=bool)
        cover[:, 0] = low[:, 0] < n
        np.less(low[:, 1:], low[:, :-1], out=cover[:, 1:])
        r, c = np.divmod(np.flatnonzero(cover), n - 1 - a)
        keys.append(order[a + r] * n + order[a + 1 + c])
    u, v = np.divmod(np.sort(np.concatenate(keys)), n)
    return np.stack([u, v], axis=1).astype(np.int64)


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


def build_lattice(spec: LatticeSpec) -> Dag:
    """Grid order on the lattice: ``u <= v`` iff coordinatewise.

    Cover edges step +1 in exactly one coordinate, so a full cube
    ``d, n_1`` has ``d (n_1 - 1) n_1^(d-1)`` of them.  For ``d <= 2`` the
    order is dominance of its labels in the plane, and the dag stores them
    as float points (a line's as ``(x, x)``), as :func:`build_design_dag`
    does, so :func:`maximum_antichain` takes the planar route with no sweep
    to prove it.

    Raises
    ------
    SizeCapError
        If ``spec.n`` exceeds ``LATTICE_VERTEX_CAP``.
    """
    n = spec.n
    if n > LATTICE_VERTEX_CAP:
        raise SizeCapError(
            f"lattice has {n} vertices, above the cap of {LATTICE_VERTEX_CAP}")
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
    dag = Dag(n, cover, labels=lattice_vertices(spec), _skip_reduction_check=True)
    if d <= 2:
        dag.__dict__["_planar_points"] = dag.labels[:, [0, -1]].astype(float)
    return dag


def merge_duplicates(points) -> tuple[np.ndarray, np.ndarray]:
    """Merge the equal rows of an ``(n, d)`` array of points.

    Returns ``(firsts, inverse)``: the row of each distinct point's first
    occurrence, in first-occurrence order, and for every row the position
    of its point in ``firsts``, so ``points[firsts][inverse]`` equals
    ``points`` and ``bincount(inverse)`` holds the multiplicities.  Rows
    merge when they are equal as tuples of floats, so ``-0.0`` and ``0.0``
    are one point and a row holding ``nan`` merges with none.
    """
    pts = np.asarray(points)
    # the stable sort puts equal rows next to each other, each group in
    # input order, so a group's first row is its first occurrence
    order = np.lexsort(pts.T)
    rows = pts[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    firsts = order[starts]
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = rank[np.cumsum(starts) - 1]
    return np.sort(firsts), inverse


def _cube_points(points) -> np.ndarray:
    """``points`` as a float ``(n, d)`` array (one column for a 1-d array): the
    package's one check that points are nonempty, finite and in ``[0, 1]^d``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, d) array")
    if not np.all((pts >= 0.0) & (pts <= 1.0)):   # also false for nan
        raise ValueError("points must be finite and lie in [0, 1]^d")
    return pts


def build_design_dag(points) -> Dag:
    """Partial order induced on points of ``[0, 1]^d`` by coordinatewise <=.

    Equal points are merged by :func:`merge_duplicates` into one vertex
    carrying a multiplicity weight; that merge, read-only, is kept as the
    dag's ``_merge``, the one attribute only design orders carry.  Vertices
    keep the first-occurrence order of the input.  The points are checked by
    :func:`_cube_points`, which rejects non-finite coordinates.

    The cover edges are built by one of two routes, chosen by ``d``:

    * ``d <= 2``: one sweep over the points sorted by ``(x, y)``, taken in
      chunks of rows, so memory is O(n) per row and no n x n matrix is made.
      A point ``x`` of the line is read as ``(x, x)``; the labels keep one
      column.  The points are stored as the dag's planar proof, so
      :func:`maximum_antichain` sweeps nothing more.  A chain of points, as
      a line's always is, needs only the sort; otherwise the O(n^2) sweep
      runs here, also for a caller that wants the width alone: on uniform
      points and a 2-core machine, 17-21 ms at n = 2000 and 0.32-0.42 s at
      n = 10^4, against 1 and 4-7 ms for the patience antichain.
      :func:`planar_width` gives that width with no order built.
      Reachability is built from the cover edges only if someone asks for it.
    * ``d >= 3``: the dense n x n dominance matrix, reduced with an
      O(n^3) float32 matrix product and then dropped.

    Both give the same cover edges in the same row-major ``(u, v)`` order.
    """
    pts = _cube_points(points)
    firsts, inverse = merge_duplicates(pts)
    mult = np.bincount(inverse)
    uniq = pts[firsts]
    n = uniq.shape[0]
    planar = None
    if uniq.shape[1] <= 2:
        planar = uniq[:, [0, -1]]
        cover = _planar_covers(planar)
    else:
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
    dag.__dict__["_planar_points"] = planar
    dag._merge = (_frozen_copy(firsts), _frozen_copy(inverse))
    return dag


# ---------------------------------------------------------------------------
# isotonic feasibility


def is_isotonic(dag: Dag, theta, tol: float = 0.0) -> bool:
    """True iff ``theta[u] <= theta[v] + tol`` across every cover edge."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dag.n_vertices,):
        raise ValueError("theta length does not match vertex count")
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
    when the report was built from a known antichain without running
    :func:`maximum_antichain`); ``upper_split`` / ``lower_split`` partition
    the remaining vertices into those strictly above some element of W and
    the rest, with no element of W above anything in ``upper_split``.

    A report made by the constructor holds the four fields as given.  A
    report from :func:`maximum_antichain` holds ``antichain`` only: it
    builds ``chain_cover`` when that is first read, and both splits when
    either is first read, and caches them, so a caller that reads the
    antichain alone never pays for the certificate.  Two concurrent first
    reads may each build a field, and both get the same values.
    """

    antichain: np.ndarray
    chain_cover: list | None
    upper_split: np.ndarray
    lower_split: np.ndarray

    @classmethod
    def _deferred(cls, antichain: np.ndarray, chains, splits) -> "AntichainReport":
        """A report holding ``antichain``; ``chains()`` builds the chain cover
        and ``splits()`` the pair ``(upper_split, lower_split)`` on first read."""
        report = object.__new__(cls)
        object.__setattr__(report, "antichain", antichain)
        object.__setattr__(report, "_chains", chains)
        object.__setattr__(report, "_splits", splits)
        return report

    def check_partition(self, n: int) -> None:
        """Raise ``ValueError`` unless the antichain and the two splits
        together hold each of the vertices ``0 .. n-1`` exactly once."""
        ids = np.sort(np.concatenate([self.antichain, self.upper_split, self.lower_split]))
        if ids.size != n or np.any(ids != np.arange(n)):
            raise ValueError("antichain and splits do not partition the vertices")

    def __getattr__(self, name):
        # reached only for a name missing from the instance: a field that a
        # deferred report has not built yet, or no attribute at all
        state = self.__dict__
        if name == "chain_cover" and "_chains" in state:
            object.__setattr__(self, name, state["_chains"]())
        elif name in ("upper_split", "lower_split") and "_splits" in state:
            upper, lower = state["_splits"]()
            object.__setattr__(self, "upper_split", upper)
            object.__setattr__(self, "lower_split", lower)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return state[name]


def maximum_antichain(dag: Dag) -> AntichainReport:
    """Maximum antichain with a chain cover of the same size, by one of two routes.

    Each route computes the antichain at once and returns a report that
    builds the chain cover and the splits on their first read (see
    :class:`AntichainReport`), so reading ``antichain`` alone costs the
    patience loop or the flow and its cut, nothing more.

    * Planar route, when the order is a dominance order of the plane:
      ``dag.labels`` are one or two finite numeric columns (one column ``x``
      is read as the point ``(x, x)``, so chains take this route) and the
      dag's cover edges are the planar sweep's covers of those points.  The
      proof is the dag's cached ``_planar_points``: :func:`build_design_dag`
      and :func:`build_lattice` store the points whose dominance order the
      dag is, and this route reads neither the sweep nor the edges; any
      other order is swept once on first use.
      With the points in ``(x, y)`` order, an antichain is a strictly
      decreasing run of y, and patience sorting finds a longest one in
      O(n log n); its piles are the chain cover (Aldous & Diaconis 1999),
      grouped on first read.  The splits come from the staircase of the
      antichain.
    * Flow route, for every other order: Dilworth's theorem by one maximum
      flow on the split cover network (Ford & Fulkerson 1962, ch. II): arcs
      source -> ``v_out`` and ``v_in`` -> sink of capacity 1, ``u_out`` ->
      ``v_in`` per cover edge and ``v_in`` -> ``v_out`` of capacity n.  The
      width is n minus the flow.  The capacity-n arcs never saturate, so the
      nodes S reached from the source in the residual graph are closed
      upward.  The antichain W is the vertices with ``v_out`` in S and
      ``v_in`` not; S is the minimal minimum cut, hence the up-closure of
      W's out-nodes, so ``upper_split`` is the vertices with ``v_in`` in S and
      ``lower_split`` those with ``v_out`` outside it.  Each unit of flow
      links the vertex it leaves the source at to the one it enters the
      sink at, and the links make the chains; tracing them reads the
      topological order, so an antichain alone never computes it.
    """
    pts = dag._planar_points
    if pts is None:
        return _flow_antichain(dag)
    return _patience_antichain(pts)


def planar_width(points) -> int | None:
    """Width of the dominance order on points of ``[0, 1]^d`` if ``d <= 2``.

    The width is the size of a maximum antichain of
    ``build_design_dag(points)``, read off the patience piles of the points
    as given (a point ``x`` of the line as ``(x, x)``), with no merge, no
    :class:`Dag` and none of the O(n^2) sweep that building the order runs:
    equal points land on one pile, so duplicates change no width.  The
    points are checked as :func:`build_design_dag` checks them.  Returns
    ``None`` for ``d >= 3``, where the order is not planar and
    :func:`maximum_antichain` of the built order gives the width.
    """
    pts = _cube_points(points)
    if pts.shape[1] > 2:
        return None
    return len(_patience_antichain(pts[:, [0, -1]]).antichain)


def _patience_antichain(pts: np.ndarray) -> AntichainReport:
    """Maximum antichain of the planar order on ``pts`` (see ``_planar_covers``)."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    y = pts[order, 1]
    n = len(y)
    # pile k's top has the k-th smallest -y among pile tops; a point goes on
    # the first pile whose top it does not exceed, so each pile is a chain
    tops: list[float] = []
    top_at: list[int] = []
    pile = [0] * n
    prev = [-1] * n
    for p, z in enumerate((-y).tolist()):
        k = bisect_left(tops, z)
        if k == len(tops):
            tops.append(z)
            top_at.append(p)
        else:
            tops[k] = z
            top_at[k] = p
        pile[p] = k
        if k:
            prev[p] = top_at[k - 1]
    # back-pointers from the last pile give a strictly decreasing run of y
    run = [top_at[-1]]
    while prev[run[-1]] >= 0:
        run.append(prev[run[-1]])
    w_pos = np.asarray(run[::-1], dtype=np.int64)
    return AntichainReport._deferred(np.sort(order[w_pos]),
                                     partial(_pile_chains, order, pile),
                                     partial(_staircase_splits, order, y, w_pos))


def _pile_chains(order: np.ndarray, pile: list[int]) -> list[np.ndarray]:
    """The patience piles as chains of vertex ids, each in sweep order."""
    by_pile = np.argsort(pile, kind="stable")
    ends = np.cumsum(np.bincount(pile))[:-1]
    return [order[c] for c in np.split(by_pile, ends)]


def _staircase_splits(order: np.ndarray, y: np.ndarray,
                      w_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The splits of the antichain at sweep positions ``w_pos``."""
    n = len(y)
    # the last antichain point before p has the lowest y among those before p
    last = np.searchsorted(w_pos, np.arange(n)) - 1
    above = (last >= 0) & (y[w_pos[np.maximum(last, 0)]] <= y)
    in_w = np.zeros(n, dtype=bool)
    in_w[w_pos] = True
    return np.sort(order[above & ~in_w]), np.sort(order[~above & ~in_w])


def minimal_cut(net: csr_matrix, src: int, snk: int) -> tuple[csr_matrix, np.ndarray]:
    """One maximum flow (Dinic) on the integer capacities ``net``, and the
    nodes reached from ``src`` in its residual graph as a boolean mask: the
    source side of the minimal minimum cut, whatever maximum flow is found."""
    flow = maximum_flow(net, src, snk, method="dinic").flow
    residual = net - flow
    residual.eliminate_zeros()
    reached = np.zeros(net.shape[0], dtype=bool)
    reached[breadth_first_order(residual, src, return_predecessors=False)] = True
    return flow, reached


def _flow_antichain(dag: Dag) -> AntichainReport:
    """The flow route of :func:`maximum_antichain`, for any order."""
    n = dag.n_vertices
    eu, ev = dag.cover_edges[:, 0], dag.cover_edges[:, 1]
    ids = np.arange(n)
    src, snk = 2 * n, 2 * n + 1   # node v is v_out, node n + v is v_in
    net = csr_matrix(
        (np.r_[np.ones(n), np.full(eu.size + n, n), np.ones(n)].astype(np.int32),
         (np.r_[np.full(n, src), eu, n + ids, n + ids],
          np.r_[ids, n + ev, ids, np.full(n, snk)])),
        shape=(2 * n + 2, 2 * n + 2))
    flow, reached = minimal_cut(net, src, snk)
    out, up = reached[:n], reached[n:2 * n]
    return AntichainReport._deferred(np.flatnonzero(out & ~up),
                                     partial(_flow_chains, dag, flow),
                                     partial(_cut_splits, out, up))


def _cut_splits(out: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The splits from the cut's ``v_out`` and ``v_in`` source-side masks."""
    return np.flatnonzero(up), np.flatnonzero(~out)


def _flow_chains(dag: Dag, flow: csr_matrix) -> list[np.ndarray]:
    """The chains of a maximum flow on ``dag``'s split cover network."""
    n = dag.n_vertices
    src, snk = 2 * n, 2 * n + 1
    # carry each unit of flow up the order from the vertex it left the
    # source at to the one it enters the sink at (row v_out's flow is
    # positive on v's cover arcs only), and link the two
    from_src = (flow[src, :n].toarray().ravel() > 0).tolist()
    to_snk = (flow[n:2 * n, snk].toarray().ravel() > 0).tolist()
    ptr, head, amount = flow.indptr.tolist(), flow.indices.tolist(), flow.data.tolist()
    carried: list[list[int]] = [[] for _ in range(n)]   # start vertices of units at v_in
    links = []
    for v in dag.topo_order.tolist():
        units = carried[v]
        if to_snk[v]:
            links.append((units.pop(), v))
        if from_src[v]:
            units.append(v)
        for w, k in zip(head[ptr[v]:ptr[v + 1]], amount[ptr[v]:ptr[v + 1]]):
            if k > 0:
                carried[w - n] += units[-k:]
                del units[-k:]
    u, v = np.asarray(links, dtype=np.int64).reshape(-1, 2).T
    chain_of = connected_components(csr_matrix((np.ones(u.size), (u, v)), shape=(n, n)),
                                    directed=False)[1]
    by_chain = dag.topo_order[np.argsort(chain_of[dag.topo_order], kind="stable")]
    starts = np.unique(chain_of[by_chain], return_index=True)[1]
    chains = np.split(by_chain, starts[1:])
    return [chains[i] for i in np.argsort(by_chain[starts])]


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
    exactly those above some antichain element, so this gives the splits of
    :func:`maximum_antichain` without running it.  ``chain_cover`` is left
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
    best_len = [1] * n
    best_next = [-1] * n
    children = dag.children
    for u in dag.topo_order[::-1].tolist():
        for v in children[u]:
            if best_len[v] + 1 > best_len[u]:
                best_len[u] = best_len[v] + 1
                best_next[u] = v
    chain = [best_len.index(max(best_len))]   # the first maximum, as np.argmax
    while best_next[chain[-1]] >= 0:
        chain.append(best_next[chain[-1]])
    return np.asarray(chain, dtype=np.int64)
