"""Network definition: parsing, structural validation, topological order.

File format (line oriented, ``#`` starts a comment):

    net NAME
    var X1 : a b
    edge X1 -> X2
    table X2 | X1 kind=m
      {a} | {a} : 0.166667
    end

Root tables are declared as ``table X1 | kind=m`` with rows ``{a} : 0.4``.
Missing table rows default to zero mass.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import NetworkParseError
from .tables import CondTable, Frame, ValidationReport, subset_index


@dataclass
class Node:
    """One variable with its frame, ordered parents/successors, and table."""

    name: str
    frame: Frame
    parents: tuple[str, ...] = ()
    successors: tuple[str, ...] = ()
    table: CondTable | None = None


@dataclass
class Network:
    """A directed acyclic model over frames, one conditional table per node."""

    name: str
    nodes: dict[str, Node] = field(default_factory=dict)
    edges: tuple[tuple[str, str], ...] = ()

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def frame(self, name: str) -> Frame:
        return self.nodes[name].frame


def parse_network(text: str, name_hint: str = "net") -> Network:
    """Parse a network definition; raises NetworkParseError with a line number."""
    net = Network(name_hint)
    edges: list[tuple[str, str]] = []
    pending: dict[str, int] = {}  # line of each table header
    cur: dict | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if cur is not None:
            if line == "end":
                _finish_table(net, cur)
                cur = None
            else:
                _parse_table_row(net, cur, line, lineno)
            continue
        if line.startswith("net "):
            net.name = line[4:].strip()
        elif line.startswith("var "):
            _parse_var(net, line, lineno)
        elif line.startswith("edge "):
            edge = _parse_edge(net, line, lineno)
            if edge in edges:
                raise NetworkParseError(f"duplicate edge {edge[0]} -> {edge[1]}", lineno)
            edges.append(edge)
        elif line.startswith("table "):
            cur = _parse_table_header(net, pending, line, lineno)
        else:
            raise NetworkParseError(f"unrecognized directive {line.split()[0]!r}", lineno)
    if cur is not None:
        raise NetworkParseError(f"table {cur['child']!r} not closed with 'end'", cur["line"])
    if not net.nodes:
        raise NetworkParseError("no variables")

    net.edges = tuple(edges)
    for child, node in net.nodes.items():
        node.parents = tuple(p for p, c in edges if c == child)
        node.successors = tuple(c for p, c in edges if p == child)
    topological_order(net)  # rejects cycles
    for name, node in net.nodes.items():
        if node.table is None:
            raise NetworkParseError(f"no table declared for variable {name!r}")
        declared = tuple(f.name for f in node.table.parent_frames)
        if set(declared) != set(node.parents):
            raise NetworkParseError(
                f"table for {name!r} conditions on ({', '.join(declared) or 'nothing'}) "
                f"but its incoming edges are ({', '.join(node.parents) or 'none'})",
                pending[name],
            )
        # the table's declared parent order is authoritative
        node.parents = declared
    return net


def load_network(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_network(text, name_hint=stem)


def _parse_var(net: Network, line: str, lineno: int) -> None:
    body = line[4:]
    if ":" not in body:
        raise NetworkParseError("var line needs ': value value ...'", lineno)
    name, values = body.split(":", 1)
    name = name.strip()
    labels = tuple(values.split())
    if not name:
        raise NetworkParseError("missing variable name", lineno)
    if any(ch.isspace() for ch in name) or "|" in name or "->" in name:
        # a table header or an edge line could not name it
        raise NetworkParseError(f"variable name {name!r} holds whitespace, '|' or '->'", lineno)
    if name in net.nodes:
        raise NetworkParseError(f"duplicate variable {name!r}", lineno)
    if len(labels) < 2:
        raise NetworkParseError(f"variable {name!r} needs at least two values", lineno)
    for label in labels:
        if any(ch in label for ch in "{},|;[]:"):
            raise NetworkParseError(f"value label {label!r} contains one of {{}},|;[]:", lineno)
    try:
        frame = Frame(name, labels)
    except ValueError as exc:
        raise NetworkParseError(str(exc), lineno) from None
    net.nodes[name] = Node(name, frame)


def _parse_edge(net: Network, line: str, lineno: int) -> tuple[str, str]:
    body = line[5:]
    if "->" not in body:
        raise NetworkParseError("edge line needs 'A -> B'", lineno)
    a, b = (p.strip() for p in body.split("->", 1))
    for v in (a, b):
        if v not in net.nodes:
            raise NetworkParseError(f"undeclared variable {v!r}", lineno)
    if a == b:
        raise NetworkParseError(f"cycle: self-edge on {a!r}", lineno)
    return a, b


def _parse_table_header(net: Network, pending: dict, line: str, lineno: int) -> dict:
    body, found, kind = line[5:].strip().rpartition("kind=")
    if not found:
        raise NetworkParseError("table header needs kind=m or kind=k", lineno)
    kind = kind.strip()
    if kind not in ("m", "k"):
        raise NetworkParseError(f"kind must be 'm' or 'k', got {kind!r}", lineno)
    if "|" in body:
        childpart, parentpart = body.split("|", 1)
        parents = tuple(parentpart.split())
    else:
        childpart, parents = body, ()
    child = childpart.strip()
    if not child:
        raise NetworkParseError("missing table variable", lineno)
    if child not in net.nodes:
        raise NetworkParseError(f"undeclared variable {child!r}", lineno)
    for i, p in enumerate(parents):
        if p not in net.nodes:
            raise NetworkParseError(f"undeclared variable {p!r}", lineno)
        if p in parents[:i]:
            raise NetworkParseError(f"parent {p!r} listed twice for {child!r}", lineno)
    if child in pending:
        raise NetworkParseError(f"duplicate table for {child!r}", lineno)
    frames = tuple(net.nodes[p].frame for p in parents)
    cur = {
        "child": child,
        "frame": net.nodes[child].frame,
        "frames": frames,
        "dims": tuple((1 << len(f)) - 1 for f in frames),
        "kind": kind,
        "line": lineno,
        "entries": {},
    }
    pending[child] = lineno
    return cur


def _parse_table_row(net: Network, cur: dict, line: str, lineno: int) -> None:
    if ":" not in line:
        raise NetworkParseError("table row needs ': value'", lineno)
    left, valuepart = line.rsplit(":", 1)
    try:
        value = float(valuepart)
    except ValueError:
        raise NetworkParseError(f"bad numeric value {valuepart.strip()!r}", lineno) from None
    if not math.isfinite(value):
        raise NetworkParseError(f"non-finite value {valuepart.strip()!r}", lineno)
    if "|" in left:
        childpart, parentpart = left.split("|", 1)
        # a literal may hold whitespace inside its braces, as on the child side
        plits = re.findall(r"(?:\{[^{}]*\}|\S)+", parentpart)
    else:
        childpart, plits = left, []
    if len(plits) != len(cur["frames"]):
        raise NetworkParseError(
            f"row has {len(plits)} conditioning subsets, table declares {len(cur['frames'])}",
            lineno,
        )
    try:
        col = subset_index(childpart.strip(), cur["frame"])
        row = 0
        for lit, frame, dim in zip(plits, cur["frames"], cur["dims"]):
            row = row * dim + subset_index(lit, frame)
    except Exception as exc:
        raise NetworkParseError(str(exc), lineno) from None
    key = (row, col)  # the cell, parent configurations in mixed radix as in the table
    if key in cur["entries"]:
        raise NetworkParseError(f"duplicate row for ({left.strip()})", lineno)
    cur["entries"][key] = value


def _finish_table(net: Network, cur: dict) -> None:
    values = np.zeros((math.prod(cur["dims"]), (1 << len(cur["frame"])) - 1))
    if cur["entries"]:
        values[tuple(np.array(list(cur["entries"])).T)] = list(cur["entries"].values())
    net.nodes[cur["child"]].table = CondTable(cur["frame"], cur["frames"], values, cur["kind"])


def topological_order(net: Network) -> tuple[str, ...]:
    """Parents-first node order that takes, at each step, the earliest-declared
    node whose parents are all placed; raises NetworkParseError on a cycle."""
    names = list(net.nodes)
    index = {n: i for i, n in enumerate(names)}
    indeg = [0] * len(names)
    children: list[list[int]] = [[] for _ in names]
    for p, c in net.edges:
        indeg[index[c]] += 1
        children[index[p]].append(index[c])
    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so a heap
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(names[i])
        for c in children[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(names):
        stuck = [n for n in names if n not in order]
        raise NetworkParseError(f"cycle involving {', '.join(sorted(stuck))}")
    return tuple(order)


def edge_index(net: Network, parent: str, child: str) -> int:
    """1-based position of child among parent's successors (declaration order)."""
    try:
        return net.nodes[parent].successors.index(child) + 1
    except ValueError:
        raise ValueError(f"no edge {parent} -> {child}") from None


def validate_structure(net: Network) -> ValidationReport:
    """Report directly-connected parent pairs (the parser rejects cycles)."""
    report = ValidationReport()
    edge_set = set(net.edges)
    for name, node in net.nodes.items():
        for u, v in itertools.combinations(node.parents, 2):
            if (u, v) in edge_set or (v, u) in edge_set:
                report.errors.append(f"parents {u!r} and {v!r} of {name!r} are directly connected")
    return report
