"""Text and JSON formats: graph files, traces, certificates, trees.

Graph file grammar (UTF-8, line oriented, '#' starts a comment):

    n <vertex count>
    <u> <v> <weight>     # one line per edge

Vertex names match [A-Za-z0-9_]+ and weights are rationals like 3/2 or -1.
Names map to indices deterministically: numerically when every name is a
decimal integer, lexicographically otherwise; the names are kept as labels.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedTrace, ParseError, ZeroWeightEdge
from .graphs import WeightedGraph
from .polynomials import GaussianRational
from .probe import RealRootednessViolation, ZeroCertificate
from .rankwidth import CutRankResult, DecompositionTree
from .recognition import (
    ReductionTrace,
    RemovePendant,
    RemoveTwin,
    ScaleVertex,
    SignFlipBlock,
)

TRACE_SCHEMA_VERSION = 1
CERTIFICATE_SCHEMA_VERSION = 1
TREE_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def format_rational(x: Fraction) -> str:
    return str(x)


# Largest decimal exponent accepted in a rational such as "2.5e-3": Fraction
# builds 10^|exponent| exactly, so "1e999999999" alone would take minutes and
# hundreds of MB.
MAX_DECIMAL_EXPONENT = 1000

_EXPONENT_RE = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    try:
        if isinstance(text, str) and ("e" in text or "E" in text):
            exponent = _EXPONENT_RE.search(text)
            if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
                raise ParseError(f"bad rational {text!r}: decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


# -- graph files --------------------------------------------------------------


def parse_graph_text(text: str, drop_zero_edges: bool = False) -> WeightedGraph:
    n: int | None = None
    raw_edges: list[tuple[str, str, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(f"line {lineno}: expected 'n <count>' first, got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from exc
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be at least 1")
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v weight', got {raw!r}")
        u, v, w_text = parts
        for name in (u, v):
            if not _NAME_RE.match(name):
                raise ParseError(f"line {lineno}: bad vertex name {name!r}")
        w = parse_rational(w_text)
        if w == 0:
            if drop_zero_edges:
                continue
            raise ZeroWeightEdge(
                f"line {lineno}: edge {u} {v} has weight 0 (use --drop-zero-edges to remove)"
            )
        raw_edges.append((u, v, w))
    if n is None:
        raise ParseError("missing 'n <count>' header line")

    names = sorted({name for u, v, _ in raw_edges for name in (u, v)})
    if len(names) > n:
        raise ParseError(f"{len(names)} distinct vertex names but n={n}")
    if raw_edges and len(names) < n:
        raise ParseError(f"only {len(names)} of {n} vertices appear on edge lines")
    if all(name.isdigit() for name in names):
        names.sort(key=int)
    index = {name: i for i, name in enumerate(names)}
    edges: dict[tuple[int, int], Fraction] = {}
    for u, v, w in raw_edges:
        if u == v:
            raise ParseError(f"self-loop at {u!r}")
        key = (min(index[u], index[v]), max(index[u], index[v]))
        if key in edges:
            raise ParseError(f"duplicate edge {u} {v}")
        edges[key] = w
    return WeightedGraph(n, edges, tuple(names) if names else None)


def format_graph_text(g: WeightedGraph) -> str:
    lines = [f"n {g.n}"]
    for (u, v), w in sorted(g.edges.items()):
        lines.append(f"{g.vertex_name(u)} {g.vertex_name(v)} {format_rational(w)}")
    return "\n".join(lines) + "\n"


def load_graph_file(path: str, drop_zero_edges: bool = False) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read(), drop_zero_edges)


# -- traces -------------------------------------------------------------------


def trace_to_dict(trace: ReductionTrace) -> dict:
    steps = []
    for step in trace.steps:
        if isinstance(step, SignFlipBlock):
            steps.append({"op": "sign_flip_block", "block": sorted(step.block)})
        elif isinstance(step, ScaleVertex):
            steps.append({"op": "scale_vertex", "v": step.v, "c": format_rational(step.c)})
        elif isinstance(step, RemovePendant):
            steps.append(
                {
                    "op": "remove_pendant",
                    "u": step.u,
                    "attach": step.attach,
                    "weight": format_rational(step.weight),
                }
            )
        elif isinstance(step, RemoveTwin):
            steps.append(
                {
                    "op": "remove_twin",
                    "removed": step.removed,
                    "kept": step.kept,
                    "ratio": "1",
                    "bridge": format_rational(step.bridge),
                }
            )
        else:
            raise MalformedTrace(f"unknown step {step!r}")
    return {
        "version": TRACE_SCHEMA_VERSION,
        "final_vertex": trace.final_vertex,
        "steps": steps,
    }


def _vertex_id(value) -> int:
    if type(value) is not int:
        raise MalformedTrace(f"trace vertex id {value!r} is not an integer")
    return value


def trace_from_dict(data: dict) -> ReductionTrace:
    """Read a v1 trace.  A `remove_twin` record with ratio r != 1 and bridge p
    becomes `scale_vertex(removed, 1/r)` followed by a ratio-1 twin with
    bridge p/r, which replays to the same graph."""
    steps: list = []
    try:
        if data.get("version") != TRACE_SCHEMA_VERSION:
            raise MalformedTrace(f"unsupported trace version {data.get('version')!r}")
        for record in data["steps"]:
            op = record.get("op")
            if op == "sign_flip_block":
                steps.append(SignFlipBlock(frozenset(_vertex_id(v) for v in record["block"])))
            elif op == "scale_vertex":
                steps.append(ScaleVertex(_vertex_id(record["v"]), parse_rational(record["c"])))
            elif op == "remove_pendant":
                u, attach = _vertex_id(record["u"]), _vertex_id(record["attach"])
                steps.append(RemovePendant(u, attach, parse_rational(record["weight"])))
            elif op == "remove_twin":
                removed, kept = _vertex_id(record["removed"]), _vertex_id(record["kept"])
                ratio = parse_rational(record["ratio"])
                if ratio <= 0:
                    raise MalformedTrace("twin ratio must be positive")
                if ratio != 1:
                    steps.append(ScaleVertex(removed, 1 / ratio))
                steps.append(RemoveTwin(removed, kept, parse_rational(record["bridge"]) / ratio))
            else:
                raise MalformedTrace(f"unknown trace op {op!r}")
        return ReductionTrace(tuple(steps), _vertex_id(data["final_vertex"]))
    except KeyError as exc:
        raise MalformedTrace(f"trace is missing field {exc.args[0]!r}") from exc
    except (AttributeError, TypeError) as exc:
        raise MalformedTrace(f"malformed trace: {exc}") from exc


# -- certificates -------------------------------------------------------------


def _var_name(v: int) -> str:
    return f"x{v + 1}"


def _var_index(name: str) -> int:
    if not name.startswith("x") or not name[1:].isdigit() or int(name[1:]) < 1:
        raise ParseError(f"bad variable name {name!r}")
    return int(name[1:]) - 1


def certificate_to_dict(cert: ZeroCertificate) -> dict:
    return {
        "version": CERTIFICATE_SCHEMA_VERSION,
        "kind": "zero_certificate",
        "substitutions": {
            _var_name(v): format_rational(val)
            for v, val in sorted(cert.real_substitutions.items())
        },
        "hpoint": {
            _var_name(v): {"re": format_rational(z.re), "im": format_rational(z.im)}
            for v, z in sorted(cert.hpoint.items())
        },
    }


def certificate_from_dict(data: dict) -> ZeroCertificate:
    try:
        if data.get("version") != CERTIFICATE_SCHEMA_VERSION:
            raise ParseError(f"unsupported certificate version {data.get('version')!r}")
        return ZeroCertificate(
            real_substitutions={
                _var_index(name): parse_rational(val) for name, val in data["substitutions"].items()
            },
            hpoint={
                _var_index(name): GaussianRational(parse_rational(z["re"]), parse_rational(z["im"]))
                for name, z in data["hpoint"].items()
            },
        )
    except KeyError as exc:
        raise ParseError(f"certificate is missing field {exc.args[0]!r}") from exc
    except (AttributeError, TypeError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc


def violation_to_dict(witness: RealRootednessViolation) -> dict:
    return {
        "version": CERTIFICATE_SCHEMA_VERSION,
        "kind": "real_rootedness_violation",
        "substitutions": {
            _var_name(v): format_rational(val)
            for v, val in sorted(witness.real_substitutions.items())
        },
        "free": _var_name(witness.free),
        "coefficients": [format_rational(c) for c in witness.coefficients],
    }


# -- decomposition trees --------------------------------------------------------


def tree_to_dict(tree: DecompositionTree, ranks: list[CutRankResult] | None = None) -> dict:
    data = {
        "version": TREE_SCHEMA_VERSION,
        "leaves": {str(node): vertex for node, vertex in sorted(tree.leaves.items())},
        "edges": [list(e) for e in tree.edges],
    }
    if ranks is not None:
        data["ranks"] = {
            f"{r.edge[0]}-{r.edge[1]}": {"side": sorted(r.side), "rank": r.rank} for r in ranks
        }
    return data


def tree_to_text(tree: DecompositionTree) -> str:
    """Parenthesized leaf notation, rooted at the highest-id internal node.

    A tree without internal nodes (one or two vertices) lists its leaves.
    """
    adj = tree.neighbors()
    internal = [v for v in adj if v not in tree.leaves]
    if not internal:
        return "(" + ",".join(str(v) for v in sorted(tree.leaves.values())) + ")"
    root = max(internal)

    def render(node: int, parent: int | None) -> str:
        if node in tree.leaves:
            return str(tree.leaves[node])
        children = [render(u, node) for u in sorted(adj[node]) if u != parent]
        return "(" + ",".join(children) + ")"

    return render(root, None)
