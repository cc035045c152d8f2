"""Command-line driver.

Exit codes: 0 success, 1 parse/size/I-O/out-of-memory error, 2 model infeasibility
(negative commonality or probability), 3 validation or verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from typing import IO, Iterator

import numpy as np

from .cpt import build_network_cpts, check_feasibility
from .errors import BelnetError, InfeasibleModelError, StructureError
from .fusion import network_joint, write_joint_csv
from .network import Network, load_network, validate_structure
from .sampler import generate, write_csv
from .tables import (
    ValidationReport,
    commonality_to_mass,
    csv_cells,
    mass_to_commonality,
    validate_table,
)
from .verify import compare_empirical, exact_collapsed_joint


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleModelError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(exc, file=sys.stderr)
        return 3
    except (BelnetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belnet",
        description="Sampling from belief-function networks via extended-domain CPTs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structure and tables")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("transform", help="convert node tables between mass and commonality form")
    p.add_argument("path")
    p.add_argument("--to", choices=("m", "k"), required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("joint", help="exact joint mass function by conjunctive combination")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("cpt", help="build and dump the extended-domain CPTs")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_cpt)

    p = sub.add_parser("sample", help="draw records and write them as CSV")
    p.add_argument("path")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="compare a drawn sample against the exact distribution")
    p.add_argument("path")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--linf", type=float, default=0.01)
    p.set_defaults(func=_cmd_verify)

    return parser


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """The file at ``path``, closed on exit, or stdout, left open."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream


def _cmd_validate(args) -> int:
    net = load_network(args.path)
    report = ValidationReport()
    report.extend(validate_structure(net))
    for name in net.variables:
        report.extend(validate_table(net.node(name).table))
    if report.ok:  # then the construction, as `cpt` runs it, refusals and all
        cpts = build_network_cpts(net)
        for name in net.variables:
            report.extend(check_feasibility(cpts[name]))
    print(report)
    return 0 if report.ok else 3


def _cmd_transform(args) -> int:
    net = load_network(args.path)
    with _output(args.output) as stream:
        _emit_network(net, args.to, stream)
    return 0


def _emit_network(net: Network, to_kind: str, stream: IO[str]) -> None:
    print(f"net {net.name}", file=stream)
    print("# all table rows written explicitly; absent rows default to 0", file=stream)
    for name in net.variables:
        print(f"var {name} : {' '.join(net.frame(name).values)}", file=stream)
    for a, b in net.edges:
        print(f"edge {a} -> {b}", file=stream)
    for name in net.variables:
        node = net.node(name)
        table = node.table
        if table.kind != to_kind:
            table = mass_to_commonality(table) if to_kind == "k" else commonality_to_mass(table)
        header = f"table {name} | {' '.join(node.parents)} kind={to_kind}".replace("  ", " ")
        print(header, file=stream)
        for cfg, child, v in table.items():
            left = str(child) if not cfg else f"{child} | {' '.join(str(c) for c in cfg)}"
            print(f"  {left} : {v!r}", file=stream)
        print("end", file=stream)


def _cmd_joint(args) -> int:
    net = load_network(args.path)
    joint, report = network_joint(net)
    with _output(args.output) as stream:
        write_joint_csv(joint, stream)
    print(report, file=sys.stderr)
    return 0


def _cmd_cpt(args) -> int:
    net = load_network(args.path)
    cpts = build_network_cpts(net)
    failures = ValidationReport()
    for name in net.variables:
        failures.extend(check_feasibility(cpts[name]))
    with _output(args.output) as stream:
        for name in net.variables:
            _emit_cpt(cpts[name], stream)
    if not failures.ok:
        print(failures, file=sys.stderr)
        return 3
    return 0


def _emit_cpt(cpt, stream: IO[str]) -> None:
    print(f"# node {cpt.node}", file=stream)
    csv.writer(stream, lineterminator="\n").writerow(list(cpt.parent_names) + [cpt.node, "p"])
    # one line per cell, "parent,...,child,p": its pieces as padded byte rows
    prefix = np.zeros((1, 0), dtype=np.uint8)
    for domain in cpt.parent_domains:
        cells = _padded([c + "," for c in csv_cells(domain)])
        prefix = np.hstack(
            [np.repeat(prefix, len(cells), axis=0), np.tile(cells, (len(prefix), 1))]
        )
    child = _padded([c + "," for c in csv_cells(cpt.child_domain)])
    step = max(1, _EMIT_CELLS // len(child))
    for lo in range(0, len(prefix), step):
        p = cpt.probs[lo : lo + step]
        lines = np.concatenate(
            [
                np.broadcast_to(prefix[lo : lo + step, None], p.shape + prefix.shape[1:]),
                np.broadcast_to(child, p.shape + child.shape[1:]),
                _fixed9(p),
                np.full(p.shape + (1,), ord("\n"), dtype=np.uint8),
            ],
            axis=-1,
        )
        stream.write(lines[lines != _PAD].tobytes().decode())


_EMIT_CELLS = 1 << 14  # CPT cells formatted at a time
_PAD = 0xFF  # never a byte of UTF-8 text


def _padded(texts: list[str], width: int = 0) -> np.ndarray:
    """Each text's UTF-8 bytes as a row of a uint8 matrix at least ``width``
    wide, padded with _PAD."""
    raw = [t.encode() for t in texts]
    lengths = np.array([len(b) for b in raw], dtype=np.int64)
    out = np.full((len(raw), max(width, lengths.max(initial=0))), _PAD, dtype=np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(raw), dtype=np.uint8)
    return out


def _fixed9(p: np.ndarray) -> np.ndarray:
    """``f"{x:.9f}"`` of every ``x`` in ``p``, as padded bytes along a new last axis.

    A cell in [0, 10) is written from ``rint(x * 1e9)``: the product is off by
    less than 1e-6, so its nearest integer is the correctly rounded one unless
    it lies within 1e-6 of a half.  Those cells, and negative or larger ones,
    are formatted by Python.
    """
    scaled = p * 1e9
    q = np.rint(scaled)
    fast = (q < 1e10) & ~np.signbit(p) & (np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6)
    slow = [f"{x:.9f}" for x in p[~fast].tolist()]
    out = np.full(p.shape + (max([11, *map(len, slow)]),), _PAD, dtype=np.uint8)
    out[..., 1] = ord(".")
    q = np.where(fast, q, 0).astype(np.int64)
    for at in (10, 9, 8, 7, 6, 5, 4, 3, 2, 0):  # the digits of q, last first
        out[..., at] = q % 10 + ord("0")
        q //= 10
    out[~fast] = _padded(slow, out.shape[-1])
    return out


def _cmd_sample(args) -> int:
    net = load_network(args.path)
    sample = generate(net, args.count, seed=args.seed)
    if args.output is None:
        write_csv(sample, sys.stdout)
    else:
        write_csv(sample, args.output)
    return 0


def _cmd_verify(args) -> int:
    net = load_network(args.path)
    cpts = build_network_cpts(net)
    # the oracle's size guard refuses an oversized model before any draw
    exact = exact_collapsed_joint(net, cpts)
    sample = generate(net, args.count, seed=args.seed, cpts=cpts)
    report = compare_empirical(sample, exact, linf_threshold=args.linf)
    print(report)
    return 0 if report.passed else 3


if __name__ == "__main__":
    sys.exit(main())
