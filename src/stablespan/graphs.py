"""Weighted graph core: representation, blocks, sign normalization, twins.

Graphs are simple, undirected, with nonzero rational edge weights.  All the
recognition machinery rests on exact equality of weight ratios, so weights
are `fractions.Fraction` end to end.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random

from .errors import DisconnectedGraph, EmptySet, InvalidGraph, ZeroWeightEdge
from .polynomials import GaussianRational, Polynomial

Edge = tuple[int, int]
Adjacency = dict[int, dict[int, Fraction]]


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class WeightedGraph:
    """Simple undirected graph on vertices 0..n-1 with nonzero rational weights.

    Immutable after construction; safe to share for read-only analysis.
    Equality compares structure (n and the weighted edge set); the optional
    display labels are presentation metadata and do not affect equality.
    """

    __slots__ = ("n", "edges", "labels")

    def __init__(
        self,
        n: int,
        edges: dict[Edge, Fraction],
        labels: tuple[str, ...] | None = None,
    ):
        if n < 1:
            raise InvalidGraph("graph needs at least one vertex")
        clean: dict[Edge, Fraction] = {}
        for (u, v), w in edges.items():
            if u == v:
                raise InvalidGraph(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraph(f"edge ({u},{v}) out of range for n={n}")
            key = edge_key(u, v)
            if key in clean:
                raise InvalidGraph(f"parallel edge {key}")
            if not isinstance(w, Fraction):
                w = Fraction(w)
            if w == 0:
                raise ZeroWeightEdge(f"edge {key} has weight 0")
            clean[key] = w
        if labels is not None and len(labels) != n:
            raise InvalidGraph("labels must have one entry per vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", clean)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    @staticmethod
    def from_edges(n: int, edges: list[tuple[int, int, Fraction | int | str]], labels=None) -> "WeightedGraph":
        return WeightedGraph(n, {(u, v): Fraction(w) for u, v, w in edges}, labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.edges.items())))

    def __repr__(self) -> str:
        es = ", ".join(f"{u}-{v}:{w}" for (u, v), w in sorted(self.edges.items()))
        return f"WeightedGraph(n={self.n}, {es})"

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def weight(self, u: int, v: int) -> Fraction:
        return self.edges[edge_key(u, v)]

    def neighbors(self, v: int) -> set[int]:
        return {u if w == v else w for u, w in self.edges if v in (u, w)}

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def adjacency(self) -> Adjacency:
        adj: Adjacency = {v: {} for v in range(self.n)}
        for (u, v), w in self.edges.items():
            adj[u][v] = w
            adj[v][u] = w
        return adj

    def is_connected(self) -> bool:
        return _is_connected(self.adjacency())

    def vertex_name(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)


# -- adjacency-dict helpers (shared with the reduction loop) ----------------


def _is_connected(adj: Adjacency) -> bool:
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


def _blocks_and_articulation(adj: Adjacency) -> tuple[list[frozenset[int]], set[int]]:
    """Biconnected components (as vertex sets) and articulation vertices.

    Iterative Hopcroft-Tarjan over an adjacency dict with arbitrary vertex ids.
    Isolated vertices (possible only for a 1-vertex graph here) yield no block.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    articulation: set[int] = set()
    blocks: list[frozenset[int]] = []
    edge_stack: list[Edge] = []
    counter = 0

    for root in adj:
        if root in disc:
            continue
        parent[root] = None
        root_children = 0
        stack = [(root, iter(adj[root]))]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if u not in disc:
                    parent[u] = v
                    if v == root:
                        root_children += 1
                    edge_stack.append(edge_key(v, u))
                    disc[u] = low[u] = counter
                    counter += 1
                    stack.append((u, iter(adj[u])))
                    advanced = True
                    break
                if u != parent[v] and disc[u] < disc[v]:
                    edge_stack.append(edge_key(v, u))
                    low[v] = min(low[v], disc[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    # p closes off a block; pop its edges.
                    members: set[int] = set()
                    while edge_stack:
                        e = edge_stack.pop()
                        members.update(e)
                        if e == edge_key(p, v):
                            break
                    blocks.append(frozenset(members))
                    if parent[p] is not None or root_children > 1:
                        articulation.add(p)
    return blocks, articulation


def _pair_ratio(adj: Adjacency, u: int, v: int) -> Fraction | tuple[int, ...]:
    """w(x, u)/w(x, v) when u and v are contractible: N(u) - v = N(v) - u
    and the ratio is one positive value at every common neighbour x (1 when
    there is none).

    Otherwise a witness: vertices that keep the pair invalid for as long as
    they all remain.  That is a neighbour of u that v lacks, or two common
    neighbours with different ratios, or one with a negative ratio; the
    witness is empty when the degrees differ, which is cheap to test again.
    """
    au, av = adj[u], adj[v]
    # Adjacency is symmetric, so v in N(u) exactly when u in N(v); equal
    # degrees and N(u) - v inside N(v) then give N(u) - v = N(v) - u.
    if len(au) != len(av):
        return ()
    # The ratio is kept as an unreduced num/den and compared by cross
    # multiplication, which is much cheaper than Fraction division.
    first = num = den = 0
    for x, w in au.items():
        if x == v:
            continue
        wv = av.get(x)
        if wv is None:
            return (x,)
        a = w.numerator * wv.denominator
        b = w.denominator * wv.numerator
        if not den:
            first, num, den = x, a, b
        elif a * den != b * num:
            return (first, x)
    if not den:
        return Fraction(1)
    ratio = Fraction(num, den)
    return ratio if ratio > 0 else (first,)


class _TwinIndex:
    """Twin groups and pendant vertices of a positive adjacency, kept
    current while vertices are deleted from it.

    Each vertex holds a random even token.  Its open key is the sum of its
    neighbours' tokens and its closed key adds its own token plus 1, so
    open keys are even, closed keys odd, and twins share a key: open twins
    the open one, closed twins the closed one.  Deleting v subtracts v's
    token from both keys of each neighbour, so only v's neighbours are
    rekeyed.  A shared key only nominates a pair; `_pair_ratio` confirms
    it, so a key collision costs a check and never a wrong pair.

    Keys only decrease, so a vertex that leaves a group never returns to
    it, and while two vertices stay in one group neither has lost a
    neighbour; the weights of remaining vertices never change during a
    reduction.  A valid pair stays valid, with the same ratio, until one of
    them is deleted: every later deletion removes a common neighbour from
    both, and while pairs are sought no vertex is a pendant, so a common
    neighbour remains.  An invalid pair stays invalid while its witness
    from `_pair_ratio` remains.  Verdicts are cached on those terms, so a
    pair is checked again only when its witness has gone.

    The least pair comes from a heap with lazy deletion: a group that gains
    members gets an entry (least member, -1), a lower bound on any pair
    inside it.  When an entry reaches the top, a (u, v) entry whose
    vertices both remain is the answer; otherwise the group's least valid
    pair is found and pushed in its place.
    """

    def __init__(self, adj: Adjacency):
        self.adj = adj
        rng = Random(0x5EED)
        self.token = {v: (rng.getrandbits(63) + 1) << 1 for v in sorted(adj)}
        self.key = {v: sum(self.token[x] for x in adj[v]) for v in adj}
        self.groups: dict[int, set[int]] = {}
        self.heap: list[tuple[int, int, int, Fraction | None]] = []
        self.verdicts: dict[tuple[int, int], Fraction | tuple[int, ...]] = {}
        self._joined: dict[int, None] = {}
        for v in sorted(adj):
            self._join(v, self.key[v])
            self._join(v, self.key[v] + self.token[v] + 1)
        self._flush()
        self.pendants = [v for v in adj if len(adj[v]) == 1]
        heapq.heapify(self.pendants)

    def _join(self, v: int, key: int) -> None:
        members = self.groups.get(key)
        if members is None:
            self.groups[key] = {v}
        else:
            members.add(v)
            self._joined[key] = None

    def _leave(self, v: int, key: int) -> None:
        members = self.groups[key]
        members.remove(v)
        if not members:
            del self.groups[key]

    def _flush(self) -> None:
        for key in self._joined:
            members = self.groups.get(key)
            if members is not None and len(members) > 1:
                heapq.heappush(self.heap, (min(members), -1, key, None))
        self._joined.clear()

    def least_pendant(self) -> int | None:
        while self.pendants:
            v = self.pendants[0]
            if v in self.adj and len(self.adj[v]) == 1:
                return v
            heapq.heappop(self.pendants)
        return None

    def least_pair(self) -> ContractiblePair | None:
        """The lexicographically least contractible pair, or None."""
        heap = self.heap
        while heap:
            u, v, key, ratio = heap[0]
            members = self.groups.get(key)
            if members is not None and u in members and v in members:
                return ContractiblePair(u, v, ratio, self.adj[u].get(v, Fraction(0)))
            heapq.heappop(heap)
            if members is None or len(members) < 2:
                continue
            for a, b in combinations(sorted(members), 2):
                r = self._ratio(a, b)
                if r is not None:
                    heapq.heappush(heap, (a, b, key, r))
                    break
        return None

    def _ratio(self, u: int, v: int) -> Fraction | None:
        """The ratio of a contractible pair, else None, from the cached
        verdict while it holds."""
        verdict = self.verdicts.get((u, v))
        if verdict is None or isinstance(verdict, tuple) and not all(x in self.adj for x in verdict):
            verdict = _pair_ratio(self.adj, u, v)
            # An empty witness (unequal degrees) holds only until the next
            # deletion, and costs O(1) to find again.
            if verdict != ():
                self.verdicts[(u, v)] = verdict
        return None if isinstance(verdict, tuple) else verdict

    def delete(self, v: int) -> None:
        """Remove v from the adjacency and rekey its neighbours."""
        adj, key, token = self.adj, self.key, self.token
        t = token[v]
        self._leave(v, key[v])
        self._leave(v, key[v] + t + 1)
        for x in adj[v]:
            del adj[x][v]
            k = key[x]
            c = k + token[x] + 1
            self._leave(x, k)
            self._leave(x, c)
            self._join(x, k - t)
            self._join(x, c - t)
            key[x] = k - t
            if len(adj[x]) == 1:
                heapq.heappush(self.pendants, x)
        del adj[v]
        self._flush()


def _contractible_pairs_adj(adj: Adjacency) -> list["ContractiblePair"]:
    """Contractible pairs of a positive adjacency in (u, v) order; see
    `find_contractible_pairs`."""
    found: dict[tuple[int, int], ContractiblePair] = {}
    for members in _TwinIndex(adj).groups.values():
        for u, v in combinations(sorted(members), 2):
            ratio = _pair_ratio(adj, u, v)
            if not isinstance(ratio, tuple):
                found[(u, v)] = ContractiblePair(u, v, ratio, adj[u].get(v, Fraction(0)))
    return [found[pair] for pair in sorted(found)]


# -- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components, articulation vertices, and their incidences.

    Every edge lies in exactly one block; two blocks meet in at most one
    vertex, necessarily an articulation vertex.  `block_tree` maps each
    articulation vertex to the indices of the blocks containing it.
    """

    blocks: tuple[frozenset[int], ...]
    articulation_vertices: frozenset[int]
    block_tree: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class ContractiblePair:
    """Two vertices with equal neighborhoods (mod themselves) and constant
    weight ratio w(x,u)/w(x,v) over all common neighbors x.

    `bridge` is the weight of the edge uv, 0 when absent (open twins).
    """

    u: int
    v: int
    ratio: Fraction
    bridge: Fraction

    @property
    def twin_kind(self) -> str:
        return "closed" if self.bridge != 0 else "open"

    def as_pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class MixedSignCertificate:
    """Two edges of opposite sign sharing an endpoint inside one block.

    The zero point kills the star polynomial of the shared vertex: with
    x_{u_pos} = -i*w(center,u_neg) and x_{u_neg} = i*w(center,u_pos) (both in
    the upper half-plane because the weights have opposite signs) the sum
    w(center,u_pos)*x_{u_pos} + w(center,u_neg)*x_{u_neg} cancels exactly.
    """

    center: int
    pos_neighbor: int
    pos_weight: Fraction
    neg_neighbor: int
    neg_weight: Fraction

    def zero_point(self, n: int) -> dict[int, GaussianRational]:
        point = {v: GaussianRational() for v in range(n)}
        point[self.pos_neighbor] = GaussianRational(Fraction(0), -self.neg_weight)
        point[self.neg_neighbor] = GaussianRational(Fraction(0), self.pos_weight)
        return point

    def hpoint_vertices(self) -> tuple[int, int]:
        return (self.pos_neighbor, self.neg_neighbor)


# -- operations --------------------------------------------------------------


def biconnected_components(g: WeightedGraph) -> BlockDecomposition:
    """Blocks and articulation vertices of a connected graph."""
    adj = g.adjacency()
    if not _is_connected(adj):
        raise DisconnectedGraph("biconnected_components requires a connected graph")
    blocks, articulation = _blocks_and_articulation(adj)
    tree: dict[int, list[int]] = {a: [] for a in articulation}
    for i, b in enumerate(blocks):
        for v in b:
            if v in tree:
                tree[v].append(i)
    return BlockDecomposition(
        blocks=tuple(blocks),
        articulation_vertices=frozenset(articulation),
        block_tree={a: tuple(sorted(ix)) for a, ix in tree.items()},
    )


def normalize_signs(
    g: WeightedGraph,
) -> tuple[WeightedGraph, tuple[frozenset[int], ...]] | MixedSignCertificate:
    """Flip whole blocks so that every weight becomes positive.

    Sign flips on a biconnected component leave the zero set of the spanning
    polynomial unchanged, so they are free normalizations.  If some block
    carries both signs, no normalization exists and a MixedSignCertificate
    locating two adjacent opposite-sign edges in that block is returned.
    """
    dec = biconnected_components(g)
    # Every edge lies in exactly one block, and two blocks share at most one
    # vertex, so the blocks of its two endpoints meet in exactly its block.
    member = _block_members(dec.blocks)
    block_edges: list[list[Edge]] = [[] for _ in dec.blocks]
    for u, v in g.edges:
        (i,) = member[u] & member[v]
        block_edges[i].append((u, v))
    flipped: list[frozenset[int]] = []
    new_edges = dict(g.edges)
    for block, edges in zip(dec.blocks, block_edges):
        signs = {g.edges[e] > 0 for e in edges}
        if len(signs) == 2:
            return _mixed_sign_certificate(g, edges)
        if signs == {False}:
            flipped.append(block)
            for e in edges:
                new_edges[e] = -new_edges[e]
    return WeightedGraph(g.n, new_edges, g.labels), tuple(flipped)


def _block_members(blocks: tuple[frozenset[int], ...]) -> defaultdict[int, set[int]]:
    """Vertex -> indices of the listed vertex sets that contain it."""
    member: defaultdict[int, set[int]] = defaultdict(set)
    for i, block in enumerate(blocks):
        for v in block:
            member[v].add(i)
    return member


def _mixed_sign_certificate(g: WeightedGraph, edges: list[Edge]) -> MixedSignCertificate:
    """The least vertex with edges of both signs among `edges`, each sign's
    edge taken as the last of that sign in the list.

    Two opposite-sign edges sharing an endpoint exist inside any connected
    mixed-sign edge set, such as the edges of one block.
    """
    last: dict[int, list] = {}
    for e in edges:
        w = g.edges[e]
        for v, u in (e, e[::-1]):
            last.setdefault(v, [None, None])[w < 0] = (u, w)
    center = min(v for v, (pos, neg) in last.items() if pos and neg)
    (pos_neighbor, pos_weight), (neg_neighbor, neg_weight) = last[center]
    return MixedSignCertificate(center, pos_neighbor, pos_weight, neg_neighbor, neg_weight)


def flip_blocks(g: WeightedGraph, blocks: tuple[frozenset[int], ...]) -> WeightedGraph:
    """Negate the edges inside each listed block (its own inverse).

    An edge inside several listed sets is negated once for each of them.
    """
    member = _block_members(blocks)
    edges = {(u, v): -w if len(member[u] & member[v]) % 2 else w for (u, v), w in g.edges.items()}
    return WeightedGraph(g.n, edges, g.labels)


def find_contractible_pairs(g: WeightedGraph) -> list[ContractiblePair]:
    """All contractible pairs, ordered lexicographically by (min, max) vertex.

    Requires all weights positive: contractibility is defined only after
    sign normalization.  Adjacent endpoints with no further neighbors (the
    K2 case) count as a closed pair with ratio fixed to 1 by convention.

    Twins u, v have equal open neighbourhoods when nonadjacent and equal
    closed neighbourhoods when adjacent, so vertices are grouped by a hash of
    both (`_TwinIndex`) and only pairs inside one group are tested.  That
    costs O(n + m) for the groups plus O(deg u) per pair inside a group for
    its weight ratio, instead of testing all n(n-1)/2 pairs.
    """
    if any(w <= 0 for w in g.edges.values()):
        raise InvalidGraph("contractible pairs are defined for positive weights; normalize signs first")
    return list(_contractible_pairs_adj(g.adjacency()))


def induced_subgraph(g: WeightedGraph, s: set[int]) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Subgraph induced by `s`, vertices remapped in sorted order.

    Returns the new graph and the tuple mapping new index -> old vertex.
    """
    if not s:
        raise EmptySet("induced subgraph of the empty set")
    if not all(0 <= v < g.n for v in s):
        raise InvalidGraph("subset contains out-of-range vertices")
    order = tuple(sorted(s))
    index = {old: new for new, old in enumerate(order)}
    edges = {
        (index[u], index[v]): w
        for (u, v), w in g.edges.items()
        if u in index and v in index
    }
    labels = tuple(g.labels[v] for v in order) if g.labels else None
    return WeightedGraph(len(order), edges, labels), order


def scale_vertex(g: WeightedGraph, v: int, c: Fraction) -> WeightedGraph:
    """Multiply every edge incident to v by c > 0."""
    if c <= 0:
        raise InvalidGraph("vertex scaling needs a positive constant")
    edges = {e: (w * c if v in e else w) for e, w in g.edges.items()}
    return WeightedGraph(g.n, edges, g.labels)


def star_polynomial(g: WeightedGraph, v: int) -> Polynomial:
    """Sum of w(v,t)*x_t over neighbors t of v, in the graph's variables."""
    terms = {}
    for t in sorted(g.neighbors(v)):
        terms[((t, 1),)] = g.weight(v, t)
    return Polynomial(terms, g.n)
