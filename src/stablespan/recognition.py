"""Weighted stability recognition by iterated reduction, with replayable traces.

A connected weighted graph is stable exactly when it can be built from a
single vertex by weight-preserving vertex copies (with an optional positive
bridge edge), gluings at articulation points, and positive vertex scalings.
The recognizer runs that characterization backwards: normalize signs per
block, then greedily strip pendant vertices and contractible pairs.  Each
removal is recorded as a reversible step, so an accepting run doubles as a
construction certificate; a stuck run yields a structured obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

from .errors import DisconnectedGraph, MalformedTrace, SizeCapExceeded
from .graphs import (
    Adjacency,
    MixedSignCertificate,
    WeightedGraph,
    _TwinIndex,
    _is_connected,
    normalize_signs,
)

# -- trace vocabulary --------------------------------------------------------


@dataclass(frozen=True)
class SignFlipBlock:
    """All edges inside one biconnected component had their sign flipped."""

    block: frozenset[int]


@dataclass(frozen=True)
class ScaleVertex:
    """Every edge at v was multiplied by c > 0."""

    v: int
    c: Fraction

    def __post_init__(self):
        if self.c <= 0:
            raise MalformedTrace("vertex scaling constant must be positive")


@dataclass(frozen=True)
class RemovePendant:
    """Degree-1 vertex u, attached at `attach` with the given edge weight."""

    u: int
    attach: int
    weight: Fraction

    def __post_init__(self):
        if self.weight <= 0:
            raise MalformedTrace("pendant weight must be positive")


@dataclass(frozen=True)
class RemoveTwin:
    """`removed` was a contractible twin of `kept` with equal weights to every
    common neighbor (the recognizer scales it first); `bridge` is the weight
    of the edge removed-kept, 0 when the twins were nonadjacent.
    """

    removed: int
    kept: int
    bridge: Fraction

    def __post_init__(self):
        if self.bridge < 0:
            raise MalformedTrace("bridge weight cannot be negative")


TraceStep = SignFlipBlock | ScaleVertex | RemovePendant | RemoveTwin


@dataclass(frozen=True)
class ReductionTrace:
    """Reduction steps in removal order plus the single surviving vertex.

    Replaying the steps in reverse from the final vertex rebuilds the input
    graph exactly, sign flips and scalings included.
    """

    steps: tuple[TraceStep, ...]
    final_vertex: int


@dataclass(frozen=True)
class ForbiddenSubgraph:
    """An induced obstruction to being distance-hereditary."""

    name: str  # "long_cycle" | "gem" | "house" | "domino"
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class Obstruction:
    kind: str  # "mixed_sign" | "stuck_core" | "forbidden_subgraph"
    detail: str
    certificate: MixedSignCertificate | None = None
    core: frozenset[int] | None = None
    name: str | None = None
    vertices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RecognitionResult:
    accepted: bool
    trace: ReductionTrace | None = None
    obstruction: Obstruction | None = None


# -- recognition -------------------------------------------------------------


def recognize(g: WeightedGraph) -> RecognitionResult:
    """Decide weighted stability; emit a construction trace or an obstruction.

    Loop order (deterministic): remove the least pendant vertex if one
    exists; otherwise remove the larger member of the lexicographically
    least contractible pair, scaling its weight ratio to 1 first so the
    reversed step is a weight-preserving copy.  Stuck means not stable; the
    all-weights-1 support of the remaining core is searched for a named
    forbidden subgraph to sharpen the diagnosis.

    Twin groups, pendants and ratio verdicts persist from step to step
    (`graphs._TwinIndex`): a deletion rekeys only the deleted vertex's
    neighbours, and only groups whose members changed are searched again.
    A search scans its group's pairs in order until one is valid, so the
    cost is O(n + m) plus O(deg) per pair checked, not a rescan of the
    whole graph per step.
    """
    if not g.is_connected():
        raise DisconnectedGraph("recognition requires a connected graph")
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
    steps: list[TraceStep] = [SignFlipBlock(b) for b in flips]
    adj = positive.adjacency()
    index = _TwinIndex(adj)

    while len(adj) > 1:
        u = index.least_pendant()
        if u is not None:
            attach, weight = next(iter(adj[u].items()))
            steps.append(RemovePendant(u, attach, weight))
            index.delete(u)
            continue
        # No member of a contractible pair is a cut vertex: every other
        # neighbor of one twin is a neighbor of the other, so deleting one
        # twin leaves the graph connected.
        pair = index.least_pair()
        if pair is None:
            core = frozenset(adj)
            return RecognitionResult(accepted=False, obstruction=_diagnose_core(adj, core))
        # pair.ratio is w(x, pair.u)/w(x, pair.v): scaling pair.v by it makes
        # the removal a weight-preserving copy.  Only the removed vertex is
        # ever scaled, so its edges are not rewritten, just the bridge.
        removed, kept = pair.v, pair.u
        if pair.ratio != 1:
            steps.append(ScaleVertex(removed, pair.ratio))
        steps.append(RemoveTwin(removed, kept, pair.bridge * pair.ratio))
        index.delete(removed)

    final = next(iter(adj))
    return RecognitionResult(accepted=True, trace=ReductionTrace(tuple(steps), final))


def _diagnose_core(adj: Adjacency, core: frozenset[int]) -> Obstruction:
    order = sorted(core)
    index = {v: i for i, v in enumerate(order)}
    support = WeightedGraph(
        len(order),
        {(index[u], index[v]): Fraction(1) for u in adj for v in adj[u] if u < v},
    )
    found: ForbiddenSubgraph | bool = True
    if support.n <= DEFAULT_ORACLE_CAP:
        found = is_distance_hereditary_oracle(support)
    if found is True:
        return Obstruction(
            kind="stuck_core",
            detail=f"no pendant vertex or contractible pair on the {len(core)} remaining vertices",
            core=core,
        )
    vertices = tuple(order[i] for i in found.vertices)
    return Obstruction(
        kind="forbidden_subgraph",
        detail=f"irreducible core contains an induced {found.name} on vertices {vertices}",
        core=core,
        name=found.name,
        vertices=vertices,
    )


# -- forbidden-subgraph oracle ------------------------------------------------

DEFAULT_ORACLE_CAP = 10

_HOUSE = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 4)})
_GEM = frozenset({(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)})
_DOMINO = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)})


def _induced_edges(g: WeightedGraph, subset: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    pos = {v: i for i, v in enumerate(subset)}
    return frozenset(
        (min(pos[u], pos[v]), max(pos[u], pos[v]))
        for (u, v) in g.edges
        if u in pos and v in pos
    )


def _degree_multiset(edges: frozenset[tuple[int, int]], k: int) -> tuple[int, ...]:
    deg = [0] * k
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg))


def _isomorphic(edges: frozenset[tuple[int, int]], target: frozenset[tuple[int, int]], k: int) -> bool:
    if len(edges) != len(target) or _degree_multiset(edges, k) != _degree_multiset(target, k):
        return False
    for perm in permutations(range(k)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in target for u, v in edges):
            return True
    return False


def _is_chordless_cycle(edges: frozenset[tuple[int, int]], k: int) -> bool:
    if len(edges) != k or _degree_multiset(edges, k) != (2,) * k:
        return False
    # With all degrees 2 and k edges, the subgraph is a disjoint union of
    # cycles; it is a single cycle exactly when it is connected.
    adj: dict[int, list[int]] = {i: [] for i in range(k)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == k


def is_distance_hereditary_oracle(g: WeightedGraph, cap: int = DEFAULT_ORACLE_CAP) -> bool | ForbiddenSubgraph:
    """Exhaustive search for an induced long cycle, gem, house, or domino.

    Weights are ignored.  Returns True when the graph is distance-hereditary,
    otherwise the first forbidden subgraph found (scanning subsets smallest
    first in lexicographic order).
    """
    if g.n > cap:
        raise SizeCapExceeded(f"oracle capped at {cap} vertices, got {g.n}")
    for size in range(5, g.n + 1):
        for subset in combinations(range(g.n), size):
            edges = _induced_edges(g, subset)
            if _is_chordless_cycle(edges, size):
                return ForbiddenSubgraph("long_cycle", subset)
            if size == 5:
                if _isomorphic(edges, _HOUSE, 5):
                    return ForbiddenSubgraph("house", subset)
                if _isomorphic(edges, _GEM, 5):
                    return ForbiddenSubgraph("gem", subset)
            if size == 6 and _isomorphic(edges, _DOMINO, 6):
                return ForbiddenSubgraph("domino", subset)
    return True


# -- trace replay -------------------------------------------------------------


def construction_walk(trace: ReductionTrace) -> Iterator[tuple[TraceStep, Adjacency]]:
    """Walk a trace in construction (reverse) order from its final vertex.

    Each step is checked, then yielded with the adjacency as it stands
    before the step, then applied: copy instead of remove, unscale, unflip.
    Every yield hands out the same dict, mutated in place, so consumers only
    read it; once the walk ends it holds the whole graph.
    """
    adj: Adjacency = {trace.final_vertex: {}}
    for step in reversed(trace.steps):
        if isinstance(step, RemovePendant):
            if step.u in adj:
                raise MalformedTrace(f"pendant vertex {step.u} already exists")
            if step.attach not in adj:
                raise MalformedTrace(f"pendant attachment vertex {step.attach} does not exist")
            yield step, adj
            adj[step.u] = {step.attach: step.weight}
            adj[step.attach][step.u] = step.weight
        elif isinstance(step, RemoveTwin):
            if step.removed in adj:
                raise MalformedTrace(f"twin vertex {step.removed} already exists")
            if step.kept not in adj:
                raise MalformedTrace(f"twin source vertex {step.kept} does not exist")
            if not adj[step.kept] and step.bridge == 0:
                raise MalformedTrace(
                    f"copying isolated vertex {step.kept} without a bridge would disconnect the graph"
                )
            yield step, adj
            adj[step.removed] = dict(adj[step.kept])
            for x, w in adj[step.kept].items():
                adj[x][step.removed] = w
            if step.bridge != 0:
                adj[step.removed][step.kept] = step.bridge
                adj[step.kept][step.removed] = step.bridge
        elif isinstance(step, ScaleVertex):
            if step.v not in adj:
                raise MalformedTrace(f"scaled vertex {step.v} does not exist")
            yield step, adj
            inv = 1 / step.c
            for x in list(adj[step.v]):
                adj[step.v][x] *= inv
                adj[x][step.v] *= inv
        elif isinstance(step, SignFlipBlock):
            missing = step.block - set(adj)
            if missing:
                raise MalformedTrace(f"sign-flip block references missing vertices {sorted(missing)}")
            yield step, adj
            for u in step.block:
                for x in adj[u]:
                    if x in step.block and u < x:
                        adj[u][x] = -adj[u][x]
                        adj[x][u] = adj[u][x]
        else:
            raise MalformedTrace(f"unknown trace step {step!r}")


def replay_trace(trace: ReductionTrace) -> WeightedGraph:
    """Rebuild the graph a trace reduces by walking it to the end."""
    adj: Adjacency = {trace.final_vertex: {}}
    for _, adj in construction_walk(trace):
        pass
    if not _is_connected(adj):
        raise MalformedTrace("replayed graph is disconnected")
    return adjacency_to_graph(adj)


def adjacency_to_graph(adj: Adjacency) -> WeightedGraph:
    """Pack an id-keyed adjacency into a WeightedGraph (sorted-id order).

    Ids that already form the range 0..n-1 map to themselves.
    """
    order = sorted(adj)
    index = {vid: i for i, vid in enumerate(order)}
    labels = None if order == list(range(len(order))) else tuple(str(v) for v in order)
    edges = {
        (index[u], index[v]): w
        for u in adj
        for v, w in adj[u].items()
        if u < v
    }
    return WeightedGraph(len(order), edges, labels)
