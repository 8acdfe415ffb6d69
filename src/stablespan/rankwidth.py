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
from typing import Collection, Iterator

from .errors import InvalidSubset, LeafMismatch, SizeCapExceeded
from .graphs import Adjacency, WeightedGraph, _is_connected
from .recognition import (
    ReductionTrace,
    RemovePendant,
    RemoveTwin,
    construction_walk,
)

TreeEdge = tuple[int, int]


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
        self._checked_neighbors()

    def _checked_neighbors(self) -> dict[int, set[int]]:
        """`neighbors()`, after checking that the tree is a decomposition
        tree: leaves of degree 1, internal nodes of degree 3, one tree."""
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
        return adj


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
    adj = g.adjacency()
    return _rank_across(_integer_rows(adj), [(u, x) for u in a for x in adj[u] if x not in a])


def _integer_rows(adj: Adjacency) -> dict[int, dict[int, int]]:
    """Each vertex's edge weights times the lcm of their denominators.

    Scaling a row of a cut's block by a nonzero constant leaves its rank
    unchanged, so every cut can be ranked on these integers.
    """
    rows = {}
    for u, nbrs in adj.items():
        scale = math.lcm(*(w.denominator for w in nbrs.values()))
        rows[u] = {x: w.numerator * (scale // w.denominator) for x, w in nbrs.items()}
    return rows


def _rank_across(rows: dict[int, dict[int, int]], crossing: Collection[tuple[int, int]]) -> int:
    """Rank of a cut given its crossing edges as (inside, outside) pairs,
    on the integer rows of `_integer_rows`.

    The block has one row per inside endpoint and one column per outside
    endpoint; every other row or column of rows(A) x columns(V-A) is zero,
    so the rank is unchanged.
    """
    inside = {u for u, _ in crossing}
    cols = {x for _, x in crossing}
    return _rank([[rows[u].get(x, 0) for x in cols] for u in inside])


def _rank(matrix: list[list[Fraction | int]]) -> int:
    """Rank over Q by fraction-free elimination.

    Each row is scaled to integers by the lcm of its denominators (1 for a
    row of integers, such as those of `_integer_rows`).  A pivot
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
    its first endpoint, after checking that `t` is a decomposition tree of
    `g`.

    One pass from the deepest tree nodes up collects, for every node, the
    graph vertices below it and the edges crossing its cut.  The crossing
    edges of a node are the symmetric difference of its children's, merged
    small into large, so collecting them all costs O(m log n).  A node's cut
    is ranked when the node is finished, on the block of its crossing edges'
    endpoints, so a sparse cut costs little.  Ranking costs up to
    Theta(n*m) overall when every cut is crossed by many edges, as for K_n
    on a caterpillar tree.  The sides are part of the result, and the edge
    of a leaf has all n - 1 other vertices on its far side, so listing them
    takes Theta(n^2) time and memory whatever the graph.
    """
    if sorted(t.leaves.values()) != list(range(g.n)):
        raise LeafMismatch("tree leaves must biject to the graph vertices")
    tree_adj = t._checked_neighbors()
    adj = g.adjacency()
    rows = _integer_rows(adj)
    root = next(iter(t.leaves))
    parent: dict[int, int | None] = {root: None}
    order = [root]
    for node in order:
        for u in tree_adj[node]:
            if u not in parent:
                parent[u] = node
                order.append(u)
    below: dict[int, frozenset[int]] = {}
    crossing: dict[int, set[tuple[int, int]]] = {}
    rank: dict[int, int] = {}
    for node in reversed(order):
        vertices = set()
        parts = []
        if node in t.leaves:
            v = t.leaves[node]
            vertices.add(v)
            parts.append({(v, x) for x in adj[v]})
        for u in tree_adj[node]:
            if u != parent[node]:
                vertices |= below[u]
                parts.append(crossing.pop(u))
        # An edge between two parts is internal to the union; every other
        # crossing edge of a part crosses the union's cut.
        parts.sort(key=len)
        edges = parts.pop()
        for part in parts:
            for u, x in part:
                if (x, u) in edges:
                    edges.remove((x, u))
                else:
                    edges.add((u, x))
        below[node] = frozenset(vertices)
        crossing[node] = edges
        if parent[node] is not None:
            rank[node] = _rank_across(rows, edges)
    everything = below[root]
    results = []
    for edge in t.edges:
        a, b = edge
        if parent[a] == b:
            results.append(CutRankResult(edge, below[a], rank[a]))
        else:
            results.append(CutRankResult(edge, everything - below[b], rank[b]))
    return results


def build_rank_decomposition(trace: ReductionTrace) -> DecompositionTree:
    """Width-1 decomposition tree for the graph a trace constructs.

    Each construction step that adds a vertex replaces the leaf of its
    source vertex by an internal node holding both as a cherry; pendant
    attachments hang beside the attachment vertex the same way.  Scalings
    and sign flips change no cut rank, hence no tree structure.
    """
    leaf_node: dict[int, int] = {trace.final_vertex: 0}
    # Insertion-ordered, so a dropped edge leaves the order as a list
    # removal would, in O(1).
    edges: dict[TreeEdge, None] = {}
    neighbors: dict[int, set[int]] = {0: set()}
    next_id = 1

    def add_edge(a: int, b: int) -> None:
        edges[(a, b)] = None
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    def drop_edge(a: int, b: int) -> None:
        del edges[(a, b) if (a, b) in edges else (b, a)]
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
    leaves = {v: v for v in range(n)}
    for edges, _ in _grown_trees(n):
        yield DecompositionTree(leaves=leaves, edges=tuple(edges))


def _grown_trees(n: int) -> Iterator[tuple[list[TreeEdge], list[int]]]:
    """Every cubic tree on leaves 0..n-1, n >= 2, as its edge list and its
    cuts: for each edge, the leaves on its side without leaf 0, as a bit
    mask.  The cuts are listed in their own order, not the edges'.

    Rooted at leaf 0, edge e lies below edge s exactly when cut(e) is a
    subset of cut(s).  Inserting leaf k into edge e therefore adds k to the
    cut of every edge above e, splits e into a lower half with cut(e) and an
    upper half with cut(e) + k, and adds the new leaf's edge with cut {k}.
    """

    def grow(edges: list[TreeEdge], cuts: list[int], k: int, m: int) -> Iterator[tuple[list[TreeEdge], list[int]]]:
        if k == n:
            yield edges, cuts
            return
        bit = 1 << k
        for i, ((a, b), cut) in enumerate(zip(edges, cuts)):
            others = cuts[:i] + cuts[i + 1 :]
            yield from grow(
                edges[:i] + edges[i + 1 :] + [(a, m), (m, b), (m, k)],
                [c | bit if c & cut == cut else c for c in others] + [cut | bit, cut, bit],
                k + 1,
                m + 1,
            )

    yield from grow([(0, 1)], [0b10], 2, n)


def exhaustive_min_rankwidth(g: WeightedGraph, cap: int = 7) -> int:
    """Minimum width over every cubic tree; exhaustive, so capped at small n.

    A cut and its complement have the same rank, so each of the
    2^(n-1) - 1 bipartitions is ranked once, keyed by its side without
    vertex 0, however many of the (2n-5)!! trees contain it.  The cuts come
    straight from the tree enumeration, with no tree to validate or root.
    """
    if g.n < 2:
        raise InvalidSubset("rank-width needs at least two vertices")
    if g.n > cap:
        raise SizeCapExceeded(f"exhaustive rank-width capped at {cap} vertices, got {g.n}")
    adj = g.adjacency()
    rows = _integer_rows(adj)
    ranks: dict[int, int] = {}

    def rank(cut: int) -> int:
        if cut not in ranks:
            inside = [v for v in range(g.n) if cut >> v & 1]
            ranks[cut] = _rank_across(rows, [(u, x) for u in inside for x in adj[u] if not cut >> x & 1])
        return ranks[cut]

    return min(max(rank(cut) for cut in cuts) for _, cuts in _grown_trees(g.n))
