"""Checks of the program's outputs against the independent reference.

Each check returns a list of problems; an empty list means the output passed.
Nothing here imports belnet.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from collections import Counter

from reference import Joint, Model, bits_literal, literal_bits

# Deviation allowed between a cell count and its expectation, in binomial
# standard deviations.  With at most a few thousand cells per check, a correct
# sampler trips it with probability below 1e-5 per run.
Z_BOUND = 6.0
JOINT_TOL = 1e-8
# cpt and joint dumps print 9 decimals, so each cell carries up to 5e-10 of
# rounding error
PRINT_TOL = 5e-10


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _parse_row(line: bytes, model: Model) -> tuple[int, ...]:
    cells = next(csv.reader([line.decode("utf-8")]))
    if len(cells) != len(model.frames):
        raise ValueError(f"row has {len(cells)} cells: {line!r}")
    key = []
    for cell, labels in zip(cells, model.frames.values()):
        bits = literal_bits(cell, labels)
        if bits_literal(bits, labels) != cell:
            raise ValueError(f"non-canonical literal {cell!r}")
        key.append(bits)
    return tuple(key)


def read_sample_counts(path: str, model: Model) -> tuple[list[str], Counter, int]:
    """Problems found while reading, the collapsed-cell counts, and the row count."""
    problems: list[str] = []
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    if lines[-1] != b"":
        problems.append("sample CSV is not newline-terminated")
    header = lines[0].decode("utf-8")
    if header != ",".join(model.variables):
        problems.append(f"sample CSV header {header!r} != {','.join(model.variables)!r}")
    rows = lines[1:-1] if lines[-1] == b"" else lines[1:]
    counts: Counter = Counter()
    for line, c in Counter(rows).items():
        try:
            counts[_parse_row(line, model)] += c
        except ValueError as exc:
            problems.append(f"invalid sample row: {exc}")
    return problems, counts, len(rows)


def binomial_problems(counts: Counter, probs: dict, n: int, what: str) -> list[str]:
    """Cells whose count lies outside Z_BOUND binomial deviations of n*p."""
    problems = []
    for key in set(counts) | set(probs):
        p = probs.get(key, 0.0)
        c = counts.get(key, 0)
        if p < -1e-12:
            problems.append(f"{what}: reference probability {p:.3g} < 0 at {key}")
            continue
        p = min(max(p, 0.0), 1.0)
        # one record of slack on cells that are possible at all
        allowed = Z_BOUND * math.sqrt(n * p * (1.0 - p)) + (1.0 if p > 0.0 else 0.0)
        if abs(c - n * p) > allowed:
            problems.append(
                f"{what}: cell {key} has {c} records, expected {n * p:.1f} +- {allowed:.1f}"
            )
    return problems


def check_sample(path: str, model: Model, joint: Joint, n: int) -> list[str]:
    """A chain or single-successor collider sample against the combination joint."""
    problems, counts, rows = read_sample_counts(path, model)
    if rows != n:
        problems.append(f"sample CSV has {rows} records, expected {n}")
    if not problems:
        problems += binomial_problems(counts, joint.entries(1e-12), rows, model.name)
    return problems


def marginal(counts: Counter, j: int) -> Counter:
    """Counts of the subsets of variable j."""
    out: Counter = Counter()
    for key, c in counts.items():
        out[(key[j],)] += c
    return out


_VERIFY_FIELDS = {
    "records": re.compile(r"^records: (\d+)$", re.M),
    "cells": re.compile(r"^cells \(exact support\): (\d+)$", re.M),
    "result": re.compile(r"^result: (\w+)$", re.M),
}


def check_verify(text: str, n: int, cells: int | None) -> list[str]:
    """`belnet verify` output: PASS, the record count, and the support size."""
    found = {}
    for key, pattern in _VERIFY_FIELDS.items():
        m = pattern.search(text)
        if m is None:
            return [f"verify output lacks a {key!r} line"]
        found[key] = m.group(1)
    problems = []
    if found["result"] != "PASS":
        problems.append(f"verify result {found['result']}")
    if int(found["records"]) != n:
        problems.append(f"verify reports {found['records']} records, expected {n}")
    if cells is not None and int(found["cells"]) != cells:
        problems.append(f"verify reports {found['cells']} cells, reference support has {cells}")
    return problems


def check_joint_csv(path: str, model: Model, joint: Joint) -> list[str]:
    """Every row within JOINT_TOL of the reference; no reference entry above
    JOINT_TOL missing."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != list(model.variables) + ["mass"]:
        return [f"joint CSV header {rows[:1]!r}"]
    want = joint.entries(0.0)
    seen = set()
    problems = []
    for row in rows[1:]:
        try:
            key = tuple(literal_bits(c, f) for c, f in zip(row[:-1], model.frames.values()))
            value = float(row[-1])
        except ValueError as exc:
            problems.append(f"invalid joint row {row!r}: {exc}")
            continue
        if key in seen:
            problems.append(f"duplicate joint row {row!r}")
        seen.add(key)
        if abs(value - want.get(key, 0.0)) > JOINT_TOL:
            problems.append(f"joint row {row!r}: reference {want.get(key, 0.0):.12f}")
    missing = [k for k, v in want.items() if abs(v) > JOINT_TOL and k not in seen]
    if missing:
        problems.append(f"{len(missing)} reference entries missing from the joint CSV")
    return problems


def ext_value_counts(k: int) -> list[int]:
    """Number of extended values of a k-value frame whose own set has m
    members, for m = 0..k.

    A value with own set S is plain S, or ``S o v`` / ``S @ v`` for any value
    v whose own set strictly contains S.
    """
    per_set = [0] * (k + 1)  # values with one given own set of size m
    for m in range(k, 0, -1):
        per_set[m] = 1 + 2 * sum(math.comb(k - m, j - m) * per_set[j] for j in range(m + 1, k + 1))
    return [math.comb(k, m) * per_set[m] if m else 0 for m in range(k + 1)]


def cpt_shape(model: Model, node: str) -> tuple[int, int]:
    """Rows and columns the extended CPT of ``node`` must have."""
    rows = 1
    for p in model.tables[node].parents:
        rows *= sum(ext_value_counts(len(model.frames[p])))
    k = len(model.frames[node])
    n = len(model.successors(node))
    cols = (1 << k) - 1
    if n:
        by_size = ext_value_counts(k)
        cols += sum(c * ((1 << m) - 2) for m, c in enumerate(by_size) if m) * ((1 << n) - 1)
    return rows, cols


_OWN = re.compile(r"\{[^}]*\}")


def check_cpt_dump(text: str, model: Model) -> list[str]:
    """`belnet cpt` output: shapes, nonnegative rows summing to one, and on
    plain parent configurations class sums equal to the commonality table."""
    problems = []
    blocks = {}
    for chunk in text.split("# node ")[1:]:
        name, _, body = chunk.partition("\n")
        blocks[name.strip()] = list(csv.reader(io.StringIO(body)))
    if list(blocks) != list(model.variables):
        return [f"cpt dump covers nodes {list(blocks)}, expected {list(model.variables)}"]
    for node, rows in blocks.items():
        table = model.tables[node]
        if table.kind != "k":
            raise ValueError("the cpt check needs commonality tables")
        header, body = rows[0], rows[1:]
        if header != list(table.parents) + [node, "p"]:
            problems.append(f"{node}: cpt header {header}")
            continue
        groups: dict[tuple[str, ...], list[tuple[str, float]]] = {}
        for row in body:
            groups.setdefault(tuple(row[:-2]), []).append((row[-2], float(row[-1])))
        want_rows, want_cols = cpt_shape(model, node)
        if len(groups) != want_rows or any(len(g) != want_cols for g in groups.values()):
            problems.append(f"{node}: cpt has {len(groups)} rows, expected {want_rows}x{want_cols}")
        tol = PRINT_TOL * want_cols + 1e-12
        labels = model.frames[node]
        for cfg, cells in groups.items():
            if min(p for _, p in cells) < 0.0 or abs(sum(p for _, p in cells) - 1.0) > tol:
                problems.append(f"{node}: row {cfg} is negative or does not sum to 1")
            if not all(_OWN.fullmatch(v) for v in cfg):
                continue
            key = tuple(literal_bits(v, model.frames[p]) for v, p in zip(cfg, table.parents))
            classes: Counter = Counter()
            for child, p in cells:
                classes[literal_bits(_OWN.search(child).group(0), labels)] += p
            for bits in range(1, 1 << len(labels)):
                want = table.entries.get(key + (bits,), 0.0)
                if abs(classes[bits] - want) > tol:
                    problems.append(
                        f"{node}: class {bits_literal(bits, labels)} of row {cfg} sums to "
                        f"{classes[bits]:.9f}, table says {want:.9f}"
                    )
    return problems
