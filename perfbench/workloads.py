"""Seeded inputs for the benchmark workloads.

Every graph is built here by construction steps whose effect on the verdict
is known in advance, so the expected verdict of every request comes from the
generator and never from running the program.  The generator shares no code
with `stablespan`: a change to the program cannot change the inputs, and the
input digest shows that two runs measured the same files.

Each graph fills a slot of its workload.  A slot fixes the graph's size,
shape and vertex labels: its construction steps come from a random generator
seeded by the slot alone, down to which vertices get scaled and which
pendant edges are negated.  The seed draws the values: edge weights,
scaling constants, the order of the requests and the falsifier's seed.
Labels belong to the slot because the cost of the Kirchhoff cofactor
depends on the vertex order several times more than on the weights; seeds
then differ in values but hardly in what a pass costs.

Families:
  * accepted:    grown from one vertex by pendant attachments, equal-weight
                 twin copies (optionally bridged) and positive vertex
                 scalings, then some pendant edges negated (a one-edge block
                 flip is free).  Stable by construction.
  * mixed_sign:  grown from a triangle with weights (+, +, -).  The triangle
                 stays one block carrying both signs, so it is rejected at
                 sign normalization.  Its support is distance-hereditary.
  * forbidden:   grown from an induced C5, house, gem or domino with positive
                 weights.  Growth never removes an induced subgraph, so the
                 support is not distance-hereditary and the graph is rejected.
  * weighted_c4: grown from a 4-cycle with weights a, b, c, d and a*c != b*d.
                 Growth keeps the 4-cycle induced and scalings keep a*c/(b*d),
                 so the graph is rejected though its support may be
                 distance-hereditary.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("accept-large", "certify-small", "reject-mixed")

Adjacency = dict[int, dict[int, Fraction]]

# Planted obstructions on vertices 0..k-1 (the same shapes as the named
# forbidden subgraphs of distance-hereditary graphs).
PLANTS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "c5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    "house": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 4))),
    "gem": (5, ((0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4))),
    "domino": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4))),
}

# Falsifier budget for rejected graphs in certify-small.  A hit costs as
# many trials as it takes, which the seed decides; a small budget bounds how
# far that moves a request's latency.
FALSIFY_TRIALS = 20

# accept-large: sparse accepted graphs on an n ladder from 40 to 150, denser
# at small n (a request's cost grows about as n^2.2), plus dense twin-only
# graphs, whose requests fill the latencies around the median.
LARGE_SPARSE = 26
LARGE_DENSE_N = tuple(range(20, 28))
# certify-small: n 6 and 7 with a fixed edge count per n (the cap).
# Exhaustive rank-width runs where n <= SMALL_ORACLE_MAX_N: at n=7 one such
# request takes about as long as a fifth of a pass, so few passes would fit
# in a run.  The 90th percentile falls inside the costliest group, the 24
# exhaustive rank-width requests at n=6, rather than between two groups of
# very different cost; the median falls among the polynomial checks.
SMALL_EDGES = {6: 8, 7: 9}
SMALL_ACCEPTED_N = (6,) * 24 + (7,) * 6
SMALL_REJECTED_N = (6,) * 12
SMALL_ORACLE_MAX_N = 6
# reject-mixed: n from 8 to 80; the oracle runs where n <= ORACLE_MAX_N.
MIXED_GRAPHS = 288
ORACLE_MAX_N = 10


@dataclass(frozen=True)
class Graph:
    name: str
    n: int
    edges: dict[tuple[int, int], Fraction]
    family: str  # "accepted" | "mixed_sign" | "forbidden" | "weighted_c4"

    @property
    def accepted(self) -> bool:
        return self.family == "accepted"

    def text(self) -> str:
        lines = [f"n {self.n}"]
        lines += [f"{u} {v} {w}" for (u, v), w in sorted(self.edges.items())]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    """One CLI invocation: `argv` for `stablespan.cli.run`, with its input."""

    argv: tuple[str, ...]
    graph: Graph

    @property
    def command(self) -> str:
        return self.argv[0]


class Slot:
    """Random sources for one graph: `shape` from the slot, `value` from the seed."""

    def __init__(self, workload: str, name: str, value: random.Random) -> None:
        self.name = name
        self.shape = random.Random(f"{workload}:{name}")
        self.value = value

    def weight(self) -> Fraction:
        return Fraction(self.value.randint(1, 6), self.value.randint(1, 3))


def _add_edge(adj: Adjacency, u: int, v: int, w: Fraction) -> None:
    adj[u][v] = w
    adj[v][u] = w


def _grow(adj: Adjacency, n: int, slot: Slot, pendant: float, closed: float) -> None:
    """Add construction steps until the graph has n vertices.

    Each step attaches a pendant vertex, or copies an anchor with equal
    weights (an open twin, or a closed twin with a positive bridge), and
    then scales a random vertex by a positive constant with probability 0.3.
    None of these steps can make a stable graph unstable, nor remove an
    induced subgraph or change the signs inside an existing block.
    """
    while len(adj) < n:
        new = len(adj)
        anchor = slot.shape.randrange(new)
        op = slot.shape.random()
        adj[new] = {}
        if op < pendant or not adj[anchor]:
            _add_edge(adj, anchor, new, slot.weight())
        else:
            for x, w in list(adj[anchor].items()):
                _add_edge(adj, x, new, w)
            if op < pendant + closed:
                _add_edge(adj, anchor, new, slot.weight())
        if slot.shape.random() < 0.3:
            v = slot.shape.randrange(len(adj))
            c = slot.weight()
            for x in adj[v]:
                adj[v][x] *= c
                adj[x][v] *= c


def _base(edges: list[tuple[int, int, Fraction]], k: int) -> Adjacency:
    adj: Adjacency = {v: {} for v in range(k)}
    for u, v, w in edges:
        _add_edge(adj, u, v, w)
    return adj


def _finish(adj: Adjacency, family: str, slot: Slot) -> Graph:
    """Relabel vertices at random, so planted structure sits anywhere."""
    perm = list(range(len(adj)))
    slot.shape.shuffle(perm)
    edges = {}
    for u in adj:
        for v, w in adj[u].items():
            if u < v:
                a, b = perm[u], perm[v]
                edges[(min(a, b), max(a, b))] = w
    return Graph(slot.name, len(adj), edges, family)


def accepted_graph(n: int, slot: Slot, dense: bool = False) -> Graph:
    adj: Adjacency = {0: {}}
    if dense:
        _grow(adj, n, slot, pendant=0.0, closed=0.5)
    else:
        _grow(adj, n, slot, pendant=0.45, closed=0.3)
    # Negate some pendant edges: each is a block of its own, so flipping its
    # sign is a free normalization and the graph stays accepted.
    for v in range(n):
        if len(adj[v]) == 1 and slot.shape.random() < 0.3:
            (u,) = adj[v]
            _add_edge(adj, u, v, -adj[u][v])
    return _finish(adj, "accepted", slot)


def mixed_sign_graph(n: int, slot: Slot) -> Graph:
    adj = _base([(0, 1, slot.weight()), (1, 2, slot.weight()), (0, 2, -slot.weight())], 3)
    _grow(adj, n, slot, pendant=0.45, closed=0.3)
    return _finish(adj, "mixed_sign", slot)


def forbidden_graph(n: int, slot: Slot, plant: str | None = None) -> Graph:
    """Planted `plant`, or one drawn (by the shape) among those that fit n."""
    if plant is None:
        plant = slot.shape.choice(sorted(p for p in PLANTS if PLANTS[p][0] <= n))
    k, plant_edges = PLANTS[plant]
    adj = _base([(u, v, slot.weight()) for u, v in plant_edges], k)
    _grow(adj, n, slot, pendant=0.45, closed=0.3)
    return _finish(adj, "forbidden", slot)


def weighted_c4_graph(n: int, slot: Slot) -> Graph:
    while True:
        a, b, c, d = (slot.weight() for _ in range(4))
        if a * c != b * d:
            break
    adj = _base([(0, 1, a), (1, 2, b), (2, 3, c), (0, 3, d)], 4)
    _grow(adj, n, slot, pendant=0.45, closed=0.3)
    return _finish(adj, "weighted_c4", slot)


def _with_edges(make, n: int, slot: Slot) -> Graph:
    """Redraw `make(n, slot)` until the graph has SMALL_EDGES[n] edges."""
    while True:
        g = make(n, slot)
        if len(g.edges) == SMALL_EDGES[n]:
            return g


# -- workloads -----------------------------------------------------------------


def _ladder(lo: int, hi: int, k: int, power: float = 1.0) -> list[int]:
    """k sizes from lo to hi, geometric in (i/(k-1))**power."""
    return [round(lo * (hi / lo) ** ((i / (k - 1)) ** power)) for i in range(k)]


def _median_edges(make, draws: int = 5) -> Graph:
    """Of `draws` graphs, the one with the median edge count: a typical
    shape for the slot rather than an unusually sparse or dense one."""
    graphs = sorted((make() for _ in range(draws)), key=lambda g: len(g.edges))
    return graphs[draws // 2]


def _accept_large(slot) -> list[tuple[Graph, list[tuple[str, ...]]]]:
    graphs = []
    for i, n in enumerate(_ladder(40, 150, LARGE_SPARSE, 4)):
        s = slot(f"sparse{i:02d}_n{n}")
        graphs.append(_median_edges(lambda: accepted_graph(n, s)))
    for i, n in enumerate(LARGE_DENSE_N):
        s = slot(f"dense{i:02d}_n{n}")
        graphs.append(_median_edges(lambda: accepted_graph(n, s, dense=True)))
    return [(g, [("recognize",), ("factor",), ("rankdec",)]) for g in graphs]


def _certify_small(slot, seed: int) -> list[tuple[Graph, list[tuple[str, ...]]]]:
    out = []
    for i, n in enumerate(SMALL_ACCEPTED_N):
        g = _with_edges(accepted_graph, n, slot(f"acc{i:02d}_n{n}"))
        commands = [("factor", "--verify"), ("poly", "--check")]
        if n <= SMALL_ORACLE_MAX_N:
            commands.append(("rankdec", "--oracle"))
        out.append((g, commands))
    falsify = ("falsify", "--trials", str(FALSIFY_TRIALS), "--seed", str(seed))
    for i, n in enumerate(SMALL_REJECTED_N):
        family = (forbidden_graph, weighted_c4_graph, mixed_sign_graph)[(i // 3) % 3]
        g = _with_edges(family, n, slot(f"rej{i:02d}_n{n}"))
        out.append((g, [falsify, ("poly", "--check")]))
    return out


def _reject_mixed(slot) -> list[tuple[Graph, list[tuple[str, ...]]]]:
    out = []
    plants = sorted(PLANTS)
    for i, n in enumerate(_ladder(8, 80, MIXED_GRAPHS)):
        if i % 2 == 0:
            g = mixed_sign_graph(n, slot(f"mixed{i:03d}_n{n}"))
        else:
            plant = plants[(i // 2) % 4]
            g = forbidden_graph(n, slot(f"{plant}{i:03d}_n{n}"), plant)
        commands = [("recognize",)]
        if n <= ORACLE_MAX_N:
            commands.append(("oracle",))
        out.append((g, commands))
    return out


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Request], str]:
    """Write the workload's graph files under `workdir`; return one pass of
    requests (in a fixed, seeded order) and a digest of the written files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    value = random.Random(f"{workload}:{seed}")

    def slot(name: str) -> Slot:
        return Slot(workload, name, value)

    if workload == "accept-large":
        plan = _accept_large(slot)
    elif workload == "certify-small":
        plan = _certify_small(slot, seed)
    else:
        plan = _reject_mixed(slot)
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    requests = []
    for g, commands in plan:
        path = workdir / f"{g.name}.graph"
        text = g.text()
        path.write_text(text, encoding="utf-8")
        digest.update(f"{g.name}\0{text}\0".encode())
        for command in commands:
            requests.append(Request((command[0], str(path), "--json", *command[1:]), g))
    value.shuffle(requests)
    return requests, digest.hexdigest()
