"""Cut-rank over the rationals and rank-width-1 decompositions.

The cut-rank of a vertex set A is the rank of the weighted adjacency
submatrix between A and its complement, computed exactly over Q by
fraction-free elimination on integer rows.  Accepted graphs admit a
decomposition tree all of whose edge cuts have rank 1; the tree is built by
structural induction along the construction trace (each added vertex
becomes a cherry beside the vertex it came from).  For small n an
exhaustive enumerator of all (2n-5)!! cubic trees provides the converse
oracle.  It ranks each of the 2^(n-1) - 1 vertex bipartitions at most once
per call, but the trees themselves are still exponentially many, so it is
capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import InvalidSubset, LeafMismatch, SizeCapExceeded
from .graphs import Adjacency, WeightedGraph, _is_connected
from .recognition import (
    ReductionTrace,
    RemovePendant,
    RemoveTwin,
    construction_walk,
)

TreeEdge = tuple[int, int]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DecompositionTree:
    """Unrooted tree whose leaves are the graph vertices; internal degree 3.

    `leaves` maps leaf node id -> graph vertex.  A 1-vertex graph gets the
    degenerate single-node tree; a 2-vertex graph two leaves and one edge.
    """

    leaves: dict[int, int]
    edges: tuple[TreeEdge, ...]

    def nodes(self) -> set[int]:
        out = set(self.leaves)
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return out

    def neighbors(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.nodes()}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def validate(self) -> None:
        adj = self.neighbors()
        for node in adj:
            deg = len(adj[node])
            if node in self.leaves:
                expected = 0 if len(self.leaves) == 1 else 1
                if deg != expected:
                    raise LeafMismatch(f"leaf node {node} has tree degree {deg}")
            elif deg != 3:
                raise LeafMismatch(f"internal node {node} has degree {deg}, want 3")
        if len(self.edges) != len(adj) - 1 or not _is_connected(adj):
            raise LeafMismatch(f"{len(self.edges)} edges on {len(adj)} nodes do not form one tree")


@dataclass(frozen=True)
class CutRankResult:
    edge: TreeEdge
    side: frozenset[int]
    rank: int


def cut_rank(g: WeightedGraph, a: set[int] | frozenset[int]) -> int:
    """Rank over Q of the weighted adjacency block rows(A) x columns(V-A)."""
    a = set(a)
    if not a or not a <= set(range(g.n)) or len(a) == g.n:
        raise InvalidSubset("cut rank needs a proper nonempty vertex subset")
    return _cut_rank(g.adjacency(), a)


def _cut_rank(adj: Adjacency, a: set[int] | frozenset[int]) -> int:
    """Rank of the block rows(A) x columns(V-A), built on the boundary only:
    rows of A with a neighbour outside A, columns outside A with a neighbour
    in A.  Every row or column left out is zero, so the rank is unchanged."""
    rows = [u for u in a if not adj[u].keys() <= a]
    cols = sorted({x for u in rows for x in adj[u] if x not in a})
    return _rank([[adj[u].get(x, _ZERO) for x in cols] for u in rows])


def _rank(matrix: list[list[Fraction]]) -> int:
    """Rank over Q by fraction-free elimination.

    Each row is scaled to integers by the lcm of its denominators.  A pivot
    row's first nonzero column is cleared from every other row by cross
    multiplication, and each changed row is divided by the gcd of its
    entries, so entries stay small; zero rows drop out.
    """
    rows = []
    for row in matrix:
        scale = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (scale // x.denominator) for x in row]
        if any(ints):
            rows.append(ints)
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(j for j, x in enumerate(pivot) if x)
        p = pivot[col]
        rank += 1
        rest = []
        for row in rows:
            f = row[col]
            if f:
                row = [p * x - f * y for x, y in zip(row, pivot)]
                common = math.gcd(*row)
                if not common:
                    continue
                if common > 1:
                    row = [x // common for x in row]
            rest.append(row)
        rows = rest
    return rank


def tree_width(g: WeightedGraph, t: DecompositionTree) -> int:
    """Maximum cut rank over the tree's edges."""
    return max((r.rank for r in cut_ranks(g, t)), default=0)


def cut_ranks(g: WeightedGraph, t: DecompositionTree) -> list[CutRankResult]:
    """Cut rank of every tree edge, with the graph vertices on the side of
    its first endpoint.  Each rank is an elimination on the boundary block of
    its cut (`_cut_rank`), which is small when the graph is sparse."""
    adj = g.adjacency()
    return [CutRankResult(edge, side, _cut_rank(adj, side)) for edge, side in _tree_sides(g, t)]


def _tree_sides(g: WeightedGraph, t: DecompositionTree) -> list[tuple[TreeEdge, frozenset[int]]]:
    """Every tree edge with the graph vertices on the side of its first
    endpoint, after checking that `t` is a decomposition tree of `g`.

    The tree is rooted once, and one pass from the deepest nodes up collects
    the graph vertices below every node.  The side of edge (a, b) is then
    below[a] when b is the parent of a, and V - below[b] otherwise.  The
    sides take O(n*h) for a tree of height h, against O(n) per edge for a
    search of the tree.
    """
    if sorted(t.leaves.values()) != list(range(g.n)):
        raise LeafMismatch("tree leaves must biject to the graph vertices")
    t.validate()
    tree_adj = t.neighbors()
    root = next(iter(t.leaves))
    parent: dict[int, int | None] = {root: None}
    order = [root]
    for node in order:
        for u in tree_adj[node]:
            if u not in parent:
                parent[u] = node
                order.append(u)
    below: dict[int, frozenset[int]] = {}
    for node in reversed(order):
        vertices = {t.leaves[node]} if node in t.leaves else set()
        for u in tree_adj[node]:
            if u != parent[node]:
                vertices |= below[u]
        below[node] = frozenset(vertices)
    everything = below[root]
    sides = []
    for edge in t.edges:
        a, b = edge
        sides.append((edge, below[a] if parent[a] == b else everything - below[b]))
    return sides


def build_rank_decomposition(trace: ReductionTrace) -> DecompositionTree:
    """Width-1 decomposition tree for the graph a trace constructs.

    Each construction step that adds a vertex replaces the leaf of its
    source vertex by an internal node holding both as a cherry; pendant
    attachments hang beside the attachment vertex the same way.  Scalings
    and sign flips change no cut rank, hence no tree structure.
    """
    leaf_node: dict[int, int] = {trace.final_vertex: 0}
    edges: list[TreeEdge] = []
    neighbors: dict[int, set[int]] = {0: set()}
    next_id = 1

    def add_edge(a: int, b: int) -> None:
        edges.append((a, b))
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    def drop_edge(a: int, b: int) -> None:
        edges.remove((a, b) if (a, b) in edges else (b, a))
        neighbors[a].discard(b)
        neighbors[b].discard(a)

    for step, _ in construction_walk(trace):
        if isinstance(step, (RemovePendant, RemoveTwin)):
            new_vertex = step.u if isinstance(step, RemovePendant) else step.removed
            anchor = step.attach if isinstance(step, RemovePendant) else step.kept
            new_leaf = next_id
            next_id += 1
            if len(leaf_node) == 1:
                add_edge(leaf_node[anchor], new_leaf)
            else:
                anchor_leaf = leaf_node[anchor]
                (z,) = neighbors[anchor_leaf]
                internal = next_id
                next_id += 1
                drop_edge(anchor_leaf, z)
                add_edge(z, internal)
                add_edge(internal, anchor_leaf)
                add_edge(internal, new_leaf)
            leaf_node[new_vertex] = new_leaf

    return DecompositionTree(
        leaves={node: vertex for vertex, node in leaf_node.items()},
        edges=tuple(edges),
    )


def enumerate_cubic_trees(n: int) -> Iterator[DecompositionTree]:
    """All (2n-5)!! unrooted trees with leaves 0..n-1 and internal degree 3.

    Generated by inserting leaf k into every edge of every tree on k leaves;
    each tree arises exactly once.  Internal node ids start at n.
    """
    if n == 1:
        yield DecompositionTree(leaves={0: 0}, edges=())
        return
    if n == 2:
        yield DecompositionTree(leaves={0: 0, 1: 1}, edges=((0, 1),))
        return

    def insert(edge_list: list[TreeEdge], leaf: int, next_internal: int) -> Iterator[tuple[list[TreeEdge], int]]:
        for i, (a, b) in enumerate(edge_list):
            m = next_internal
            yield (
                edge_list[:i] + edge_list[i + 1 :] + [(a, m), (m, b), (m, leaf)],
                next_internal + 1,
            )

    def grow(edge_list: list[TreeEdge], k: int, next_internal: int) -> Iterator[list[TreeEdge]]:
        if k == n:
            yield edge_list
            return
        for bigger, nxt in insert(edge_list, k, next_internal):
            yield from grow(bigger, k + 1, nxt)

    leaves = {v: v for v in range(n)}
    for edge_list in grow([(0, 1)], 2, n):
        yield DecompositionTree(leaves=leaves, edges=tuple(edge_list))


def exhaustive_min_rankwidth(g: WeightedGraph, cap: int = 7) -> int:
    """Minimum width over every cubic tree; exhaustive, so capped at small n.

    A cut and its complement have the same rank, so each of the
    2^(n-1) - 1 bipartitions is ranked once, keyed by its side without
    vertex 0, however many of the (2n-5)!! trees contain it.
    """
    if g.n < 2:
        raise InvalidSubset("rank-width needs at least two vertices")
    if g.n > cap:
        raise SizeCapExceeded(f"exhaustive rank-width capped at {cap} vertices, got {g.n}")
    adj = g.adjacency()
    everything = frozenset(range(g.n))
    ranks: dict[frozenset[int], int] = {}

    def rank(side: frozenset[int]) -> int:
        key = everything - side if 0 in side else side
        if key not in ranks:
            ranks[key] = _cut_rank(adj, key)
        return ranks[key]

    return min(max(rank(side) for _, side in _tree_sides(g, t)) for t in enumerate_cubic_trees(g.n))
