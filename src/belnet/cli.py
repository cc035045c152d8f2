"""Command-line driver.

Exit codes: 0 success, 1 usage/parse/size/I-O/out-of-memory error, 2 model infeasibility
(negative commonality or probability), 3 validation or verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import IO, Iterator

from .cpt import build_network_cpts, check_feasibility, value_rows
from .errors import BelnetError, InfeasibleModelError, StructureError
from .fusion import network_joint, write_joint_csv
from .network import Network, load_network, validate_structure
from .sampler import generate, write_csv
from .tables import (
    ValidationReport,
    commonality_to_mass,
    mass_to_commonality,
    validate_table,
    write_cells,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, with the usage line: 2 means infeasible
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(kind, low=0):
    """An argument type: ``kind`` of the text, refused if below ``low``, NaN or infinite."""
    bound = "nonnegative" if low == 0 else f">= {low}"

    def parse(text: str):
        if not (value := kind(text)) >= low:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        if value == float("inf"):  # an infinite --linf would pass every sample
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("-n", "--count", type=_at_least(int, 1), required=True)
    p.add_argument("--seed", type=_at_least(int), default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="compare a drawn sample against the exact distribution")
    p.add_argument("path")
    p.add_argument("-n", "--count", type=_at_least(int, 1), required=True)
    p.add_argument("--seed", type=_at_least(int), default=0)
    p.add_argument("--linf", type=_at_least(float), default=0.01)
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
    # every table converts before the output opens, so a refused one leaves no file
    convert = mass_to_commonality if args.to == "k" else commonality_to_mass
    tables = [net.node(name).table for name in net.variables]
    tables = [table if table.kind == args.to else convert(table) for table in tables]
    with _output(args.output) as stream:
        _emit_network(net, tables, args.to, stream)
    return 0


def _emit_network(net: Network, tables: list, to_kind: str, stream: IO[str]) -> None:
    print(f"net {net.name}", file=stream)
    print("# all table rows written explicitly; absent rows default to 0", file=stream)
    for name in net.variables:
        print(f"var {name} : {' '.join(net.frame(name).values)}", file=stream)
    for a, b in net.edges:
        print(f"edge {a} -> {b}", file=stream)
    for name, table in zip(net.variables, tables):
        header = f"table {name} | {' '.join(net.node(name).parents)} kind={to_kind}"
        print(header.replace("  ", " "), file=stream)
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
    if not failures.ok:  # refused before the output opens, so no file is created
        print(failures, file=sys.stderr)
        return 3
    rows = {name: value_rows(cpt) for name, cpt in cpts.items()}
    with _output(args.output) as stream:
        for cpt in map(cpts.get, net.variables):
            print(f"# node {cpt.node}", file=stream)
            domains = [*cpt.parent_domains, cpt.child_domain]
            write_cells(stream, [*cpt.parent_names, cpt.node, "p"], domains, rows[cpt.node])
    return 0


def _cmd_sample(args) -> int:
    net = load_network(args.path)
    sample = generate(net, args.count, seed=args.seed)
    write_csv(sample, sys.stdout if args.output is None else args.output)
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
