"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 clibench/child.py setup NET.dsn...
        Time ``import belnet`` followed by ``load_network`` and
        ``build_network_cpts`` on every network; print {"setup_s": ...}.

    python3 clibench/child.py replay MODE SPANS.json -- COMMAND ARGS...
        Run ``belnet.cli.main([COMMAND, ARGS...])``, the code path of
        ``python -m belnet.cli``, with a span (name, start, end, parent)
        around every public library call it makes, and write the spans to
        SPANS.json at the end.  MODE ``time`` records times; MODE ``malloc``
        also records the tracemalloc peak inside ``generate`` and
        ``write_csv``.

    python3 clibench/child.py replay MODE SPANS.json -- probe NET -n N --seed S -o PREFIX
        Call every layer once on one network at N records, for the layers a
        workload's own commands never reach.

The spans are put in place from outside: the names the CLI module imported
(and the two calls the library makes internally, ``build_network_cpts`` from
``generate`` and ``Sample.collapsed_counts`` from ``compare_empirical``) are
replaced by wrappers in this process only.  Nothing in the package changes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory and written out once the replay ends."""

    def __init__(self, malloc: bool):
        self.malloc = malloc
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, peak: bool = False):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        traced = peak and self.malloc
        if traced:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if traced:
                rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                tracemalloc.stop()
            self._stack.pop()


def _cells(cpts) -> int:
    return sum(c.probs.size for c in cpts.values())


def _state_space(cpts) -> int:
    return math.prod(len(c.child_domain) for c in cpts.values())


def _csv_bytes(dest) -> int:
    return os.path.getsize(dest) if isinstance(dest, str) else 0


# span name -> (where the callable lives, whether its memory peak is measured,
# count recorded from (result, args))
WRAPPED = {
    "network.parse": (["belnet.cli:load_network"], False, None),
    "tables.m2k": (["belnet.cpt:mass_to_commonality"], False, None),
    "cpt.build": (["belnet.cli:build_network_cpts", "belnet.sampler:build_network_cpts"],
                  False, ("cells", lambda res, args: _cells(res))),
    "cpt.check": (["belnet.cli:check_feasibility"], False, None),
    "sampler.generate": (["belnet.cli:generate"], True,
                         ("records", lambda res, args: len(res))),
    "sampler.write_csv": (["belnet.cli:write_csv"], True,
                          ("bytes", lambda res, args: _csv_bytes(args[1]))),
    "sampler.collapsed_counts": (["belnet.sampler:Sample.collapsed_counts"], False, None),
    "verify.exact_joint": (["belnet.cli:exact_collapsed_joint"], False,
                           ("state_space", lambda res, args: _state_space(args[1]))),
    "verify.compare": (["belnet.cli:compare_empirical"], False, None),
    "fusion.network_joint": (["belnet.cli:network_joint"], False,
                             ("focal_elements", lambda res, args: len(res[0].entries))),
    "fusion.write_joint_csv": (["belnet.cli:write_joint_csv"], False, None),
}


def install(tracer: Tracer) -> None:
    import importlib

    for name, (targets, peak, count) in WRAPPED.items():
        for target in targets:
            module_name, _, attr = target.partition(":")
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, _wrap(tracer, name, peak, count, getattr(owner, leaf)))


def _wrap(tracer: Tracer, name: str, peak: bool, count, inner):
    def traced(*args, **kwargs):
        with tracer.span(name, peak) as rec:
            result = inner(*args, **kwargs)
        if count is not None:
            rec[count[0]] = count[1](result, args)
        return result

    return traced


def run_cli(tracer: Tracer, argv: list[str]) -> int:
    import belnet.cli

    install(tracer)
    with tracer.span("command." + argv[0]):
        return belnet.cli.main(argv)


def probe(tracer: Tracer, argv: list[str]) -> int:
    """Every layer once on one network, called directly."""
    import belnet as bn

    p = argparse.ArgumentParser(prog="probe")
    p.add_argument("path")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", required=True)
    args = p.parse_args(argv[1:])
    with tracer.span("command.probe"):
        with tracer.span("network.parse"):
            net = bn.load_network(args.path)
        for node in net.nodes.values():
            # a commonality table is put in mass form first, outside the span
            table = node.table if node.table.kind == "m" else bn.commonality_to_mass(node.table)
            with tracer.span("tables.m2k"):
                bn.mass_to_commonality(table)
        with tracer.span("cpt.build") as rec:
            cpts = bn.build_network_cpts(net)
        rec["cells"] = _cells(cpts)
        with tracer.span("sampler.generate", True) as rec:
            sample = bn.generate(net, args.n, seed=args.seed, cpts=cpts)
        rec["records"] = len(sample)
        with tracer.span("sampler.write_csv", True) as rec:
            bn.write_csv(sample, args.o + ".csv")
        rec["bytes"] = _csv_bytes(args.o + ".csv")
        if tracer.malloc:
            return 0
        with tracer.span("cpt.check"):
            for name in net.variables:
                bn.check_feasibility(cpts[name])
        with tracer.span("sampler.collapsed_counts"):
            counts = sample.collapsed_counts()
        with tracer.span("verify.exact_joint") as rec:
            exact = bn.exact_collapsed_joint(net, cpts)
        rec["state_space"] = _state_space(cpts)
        with tracer.span("verify.compare"):
            bn.compare_empirical(counts, exact)
        with tracer.span("fusion.network_joint") as rec:
            joint, _ = bn.network_joint(net)
        rec["focal_elements"] = len(joint.entries)
        with tracer.span("fusion.write_joint_csv"):
            with open(args.o + ".joint.csv", "w", encoding="utf-8", newline="") as fh:
                bn.write_joint_csv(joint, fh)
    return 0


def setup(paths: list[str]) -> dict:
    t0 = time.perf_counter()
    import belnet

    for path in paths:
        belnet.build_network_cpts(belnet.load_network(path))
    return {"setup_s": time.perf_counter() - t0}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps(setup(argv[1:])))
        return 0
    if argv[:1] != ["replay"] or len(argv) < 5 or argv[3] != "--" or argv[1] not in ("time", "malloc"):
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer(malloc=argv[1] == "malloc")
    command = argv[4:]
    rc = probe(tracer, command) if command[0] == "probe" else run_cli(tracer, command)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
