"""Shared brute-force oracles and exhaustive generators for the test suite.

Everything here is deliberately independent of the package internals it
checks: articulation points by vertex deletion, distance-hereditariness by
the literal distance-preservation definition, trees by Prufer sequences,
cographs by union/join composition, contractible pairs by testing every
vertex pair, tree sides by a search per edge, cut ranks on the full dense
block by elimination over Fraction, and determinants by Bareiss elimination
over the `Polynomial` ring.

The per-step references keep the package's earlier, simpler algorithms: a
reduction loop that rescans every vertex pair after each removal, a
factorization that substitutes into every factor at each copy or scaling,
and a cut rank that scans every vertex of the side for its boundary.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from stablespan.factorization import LinearFactorization
from stablespan.graphs import ContractiblePair, MixedSignCertificate, WeightedGraph, normalize_signs
from stablespan.polynomials import LinearForm, Polynomial
from stablespan.rankwidth import DecompositionTree, _rank
from stablespan.recognition import (
    Obstruction,
    RecognitionResult,
    ReductionTrace,
    RemovePendant,
    RemoveTwin,
    ScaleVertex,
    SignFlipBlock,
    _diagnose_core,
    construction_walk,
)


def bfs_distances(adj: dict[int, set[int]], start: int) -> dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def unweighted_adj(g: WeightedGraph, vertices: set[int] | None = None) -> dict[int, set[int]]:
    vertices = set(range(g.n)) if vertices is None else vertices
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for (u, v) in g.edges:
        if u in vertices and v in vertices:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def is_connected_set(g: WeightedGraph, vertices: set[int]) -> bool:
    adj = unweighted_adj(g, vertices)
    start = next(iter(vertices))
    return len(bfs_distances(adj, start)) == len(vertices)


def brute_articulation_points(g: WeightedGraph) -> set[int]:
    """v is an articulation point iff deleting it disconnects the graph."""
    if g.n <= 2:
        return set()
    out = set()
    for v in range(g.n):
        rest = set(range(g.n)) - {v}
        if not is_connected_set(g, rest):
            out.add(v)
    return out


def brute_distance_hereditary(g: WeightedGraph) -> bool:
    """Definition-level check: every connected induced subgraph preserves
    all pairwise distances of the full graph."""
    full = unweighted_adj(g)
    base = {v: bfs_distances(full, v) for v in range(g.n)}
    for size in range(2, g.n + 1):
        for subset in combinations(range(g.n), size):
            vertices = set(subset)
            if not is_connected_set(g, vertices):
                continue
            adj = unweighted_adj(g, vertices)
            for v in subset:
                dist = bfs_distances(adj, v)
                for u in subset:
                    if dist[u] != base[v][u]:
                        return False
    return True


def prufer_to_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            # insert keeping the leaf list sorted
            lo = 0
            while lo < len(leaves) and leaves[lo] < v:
                lo += 1
            leaves.insert(lo, v)
    a, b = leaves
    edges.append((min(a, b), max(a, b)))
    return edges


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices, via Prufer sequences."""
    if n == 1:
        yield WeightedGraph(1, {})
        return
    if n == 2:
        yield WeightedGraph.from_edges(2, [(0, 1, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        edges = prufer_to_edges(seq, n)
        yield WeightedGraph(n, {e: Fraction(1) for e in edges})


def _canonical_edges(n: int, edges: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        )
        if best is None or mapped < best:
            best = mapped
    return best


def connected_cographs(n: int) -> list[WeightedGraph]:
    """One representative per isomorphism class of connected cographs."""

    def dedupe(items: list[frozenset]) -> list[frozenset]:
        seen = {}
        for edges in items:
            seen.setdefault(_canonical_edges_size(edges), edges)
        return list(seen.values())

    size_of = {}

    def _canonical_edges_size(edges: frozenset) -> tuple:
        return _canonical_edges(size_of[edges], edges)

    def partitions(total: int, max_part: int):
        if total == 0:
            yield ()
            return
        for part in range(min(total, max_part), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    def offset(edges: frozenset, delta: int) -> frozenset:
        return frozenset((u + delta, v + delta) for u, v in edges)

    connected_memo: dict[int, list[frozenset]] = {}
    part_memo: dict[int, list[frozenset]] = {}

    def connected_sets(k: int) -> list[frozenset]:
        if k in connected_memo:
            return connected_memo[k]
        if k == 1:
            e = frozenset()
            size_of[e] = 1
            connected_memo[1] = [e]
            return connected_memo[1]
        out = []
        for parts in partitions(k, k - 1):
            if len(parts) < 2:
                continue
            for choice in product(*(join_children(p) for p in parts)):
                edges = set()
                shift = 0
                spans = []
                for part, child in zip(parts, choice):
                    edges |= offset(child, shift)
                    spans.append((shift, shift + part))
                    shift += part
                for (a0, a1), (b0, b1) in combinations(spans, 2):
                    for u in range(a0, a1):
                        for v in range(b0, b1):
                            edges.add((min(u, v), max(u, v)))
                e = frozenset(edges)
                size_of[e] = k
                out.append(e)
        connected_memo[k] = dedupe(out)
        return connected_memo[k]

    def join_children(k: int) -> list[frozenset]:
        # children of a join: single vertices or disconnected cographs
        if k in part_memo:
            return part_memo[k]
        if k == 1:
            part_memo[1] = connected_sets(1)
            return part_memo[1]
        out = []
        for parts in partitions(k, k - 1):
            if len(parts) < 2:
                continue
            for choice in product(*(connected_sets(p) for p in parts)):
                edges = set()
                shift = 0
                for part, child in zip(parts, choice):
                    edges |= offset(child, shift)
                    shift += part
                e = frozenset(edges)
                size_of[e] = k
                out.append(e)
        part_memo[k] = dedupe(out)
        return part_memo[k]

    return [
        WeightedGraph(n, {e: Fraction(1) for e in edges})
        for edges in connected_sets(n)
    ]


def brute_contractible_pairs(adj: dict[int, dict[int, Fraction]]) -> list[ContractiblePair]:
    """Every contractible pair by testing all vertex pairs, in (u, v) order:
    equal neighbourhoods apart from each other, and a positive weight ratio
    that is constant over the common neighbours (1 when there are none)."""
    pairs = []
    for u, v in combinations(sorted(adj), 2):
        common = set(adj[u]) - {v}
        if common != set(adj[v]) - {u}:
            continue
        ratios = {adj[x][u] / adj[x][v] for x in common}
        if len(ratios) > 1:
            continue
        ratio = ratios.pop() if ratios else Fraction(1)
        if ratio > 0:
            pairs.append(ContractiblePair(u, v, ratio, adj[u].get(v, Fraction(0))))
    return pairs


def brute_tree_side(tree: DecompositionTree, edge: tuple[int, int]) -> frozenset[int]:
    """Graph vertices whose leaves a search from edge[0] reaches without
    crossing the edge."""
    a, b = edge
    adj = tree.neighbors()
    seen = {a}
    stack = [a]
    while stack:
        node = stack.pop()
        for u in adj[node]:
            if {node, u} != {a, b} and u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(tree.leaves[x] for x in seen if x in tree.leaves)


def dense_cut_rank(g: WeightedGraph, a: frozenset[int]) -> int:
    """Rank of the full |A| x |V-A| weighted adjacency block."""
    rows = sorted(a)
    cols = sorted(set(range(g.n)) - a)
    return fraction_rank([[g.edges.get((min(u, v), max(u, v)), Fraction(0)) for v in cols] for u in rows])


def fraction_rank(matrix: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over Fraction."""
    if not matrix or not matrix[0]:
        return 0
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                for j in range(col, ncols):
                    rows[r][j] -= factor * rows[rank][j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def symbolic_laplacian(g: WeightedGraph) -> list[list[Polynomial]]:
    """Laplacian with off-diagonal entries -w(uv)*x_u*x_v, last row and
    column deleted."""
    size = g.n - 1
    lap = [[Polynomial.zero(g.n) for _ in range(size)] for _ in range(size)]
    for (u, v), w in g.edges.items():
        term = Polynomial.monomial(w, {u: 1, v: 1}, g.n)
        for a, b in ((u, v), (v, u)):
            if a < size:
                lap[a][a] = lap[a][a] + term
                if b < size:
                    lap[a][b] = lap[a][b] - term
    return lap


def polynomial_bareiss(matrix: list[list[Polynomial]]) -> Polynomial:
    """Determinant by Bareiss elimination in the `Polynomial` ring, with
    `Polynomial.divexact` for the exact divisions."""
    size = len(matrix)
    if size == 0:
        return Polynomial.constant(1)
    a = [row[:] for row in matrix]
    sign = 1
    prev = Polynomial.constant(1)
    for k in range(size - 1):
        if a[k][k].is_zero():
            swap = next((r for r in range(k + 1, size) if not a[r][k].is_zero()), None)
            if swap is None:
                return Polynomial.zero()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).divexact(prev)
            a[i][k] = Polynomial.zero()
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det.scale(-1) if sign < 0 else det


def reference_recognize(g: WeightedGraph) -> RecognitionResult:
    """The reduction loop that rescans every vertex pair after each step:
    the least pendant first, else the least pair of
    `brute_contractible_pairs`, its larger vertex scaled and removed."""
    normalized = normalize_signs(g)
    if isinstance(normalized, MixedSignCertificate):
        cert = normalized
        return RecognitionResult(
            accepted=False,
            obstruction=Obstruction(
                kind="mixed_sign",
                detail=(
                    f"edges {cert.center}-{cert.pos_neighbor} (weight {cert.pos_weight}) and "
                    f"{cert.center}-{cert.neg_neighbor} (weight {cert.neg_weight}) have opposite "
                    "signs inside one biconnected component"
                ),
                certificate=cert,
            ),
        )
    positive, flips = normalized
    steps = [SignFlipBlock(b) for b in flips]
    adj = positive.adjacency()

    def delete(v: int) -> None:
        for u in adj[v]:
            del adj[u][v]
        del adj[v]

    while len(adj) > 1:
        u = min((v for v in adj if len(adj[v]) == 1), default=None)
        if u is not None:
            attach, weight = next(iter(adj[u].items()))
            steps.append(RemovePendant(u, attach, weight))
            delete(u)
            continue
        pairs = brute_contractible_pairs(adj)
        if not pairs:
            return RecognitionResult(accepted=False, obstruction=_diagnose_core(adj, frozenset(adj)))
        pair = pairs[0]
        removed, kept = pair.v, pair.u
        if pair.ratio != 1:
            steps.append(ScaleVertex(removed, pair.ratio))
            for x in list(adj[removed]):
                adj[removed][x] *= pair.ratio
                adj[x][removed] *= pair.ratio
        steps.append(RemoveTwin(removed, kept, adj[removed].get(kept, Fraction(0))))
        delete(removed)
    return RecognitionResult(accepted=True, trace=ReductionTrace(tuple(steps), next(iter(adj))))


def substitute(form: LinearForm, var: int, replacement: LinearForm) -> LinearForm:
    """Replace x_var in a linear form by another linear form."""
    c_var = form.coefficient(var)
    if c_var == 0:
        return form
    coeffs = {v: c for v, c in form.coefficients if v != var}
    for v, c in replacement.coefficients:
        coeffs[v] = coeffs.get(v, Fraction(0)) + c_var * c
    return LinearForm.of(coeffs, form.constant + c_var * replacement.constant)


def reference_factor_from_trace(trace: ReductionTrace) -> LinearFactorization:
    """The factorization that rewrites every factor at each step: a copy
    substitutes x_kept -> x_kept + x_removed, a scaling x_v -> x_v / c."""
    constant = Fraction(1)
    factors: list[LinearForm] = []
    for step, adj in construction_walk(trace):
        if isinstance(step, RemovePendant):
            constant *= step.weight
            if len(adj) >= 2:
                factors.append(LinearForm.of({step.attach: 1}))
        elif isinstance(step, RemoveTwin):
            if len(adj) == 1:
                constant *= step.bridge
                continue
            pair_form = LinearForm.of({step.kept: 1, step.removed: 1})
            factors = [substitute(f, step.kept, pair_form) for f in factors]
            coeffs = dict(adj[step.kept])
            if step.bridge != 0:
                coeffs[step.kept] = coeffs.get(step.kept, Fraction(0)) + step.bridge
                coeffs[step.removed] = coeffs.get(step.removed, Fraction(0)) + step.bridge
            factors.append(LinearForm.of(coeffs))
        elif isinstance(step, ScaleVertex):
            constant /= step.c
            inv_form = LinearForm.of({step.v: 1 / step.c})
            factors = [substitute(f, step.v, inv_form) for f in factors]
        elif isinstance(step, SignFlipBlock):
            if (len(step.block) - 1) % 2 == 1:
                constant = -constant
    return LinearFactorization(constant, tuple(factors))


def boundary_cut_rank(adj: dict[int, dict[int, Fraction]], a: frozenset[int]) -> int:
    """Rank of rows(A) x columns(V-A) built on its boundary, found by
    scanning every vertex of A: rows with a neighbour outside A, columns
    outside A with a neighbour in A."""
    rows = [u for u in a if not adj[u].keys() <= a]
    cols = sorted({x for u in rows for x in adj[u] if x not in a})
    return _rank([[adj[u].get(x, Fraction(0)) for x in cols] for u in rows])
