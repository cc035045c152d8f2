"""Checks of the benchmark's own checks.

    python3 clibench/selfcheck.py

1. The reference joint of a two-node network equals the joint computed by
   hand, with the conditional table given both as masses and as
   commonalities.
2. Each output check rejects the output of a copy of its input with one table
   row perturbed (probability moved between two cells of one row), while the
   program itself runs fine on that copy.  The check is fed the perturbed
   run's output and the unperturbed input's reference, as a wrong program
   would produce it.

Prints one line per case and exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import os
import re
import shutil
import sys

import run
from checks import check_cpt_dump, check_joint_csv, check_sample
from reference import bits_literal, combination_joint, read_model

TWO_NODE = """
net two
var X : a b
var Y : a b
edge X -> Y
table X | kind=m
  {a} : 0.6
  {a,b} : 0.4
end
table Y | X kind=%s
%s
end
"""
# Y | X as masses, and the same table cumulated over coarser parent subsets
Y_MASS = """  {a} | {a} : -0.2
  {b} | {a} : 0.2
  {a} | {b} : 0.1
  {b} | {b} : -0.05
  {a} | {a,b} : 0.5
  {a,b} | {a,b} : 0.5"""
Y_COMMONALITY = """  {a} | {a} : 0.3
  {b} | {a} : 0.2
  {a,b} | {a} : 0.5
  {a} | {b} : 0.6
  {b} | {b} : -0.05
  {a,b} | {b} : 0.5
  {a} | {a,b} : 0.5
  {a,b} | {a,b} : 0.5"""
# Worked out pair by pair: the root's focal elements ({a},*) 0.6 and ({a,b},*)
# 0.4 meet each row of Y | X; ({a},*) meets X={b} rows in the empty set.
HAND = {
    ("{a}", "{a}"): 0.6 * 0.5 + 0.6 * -0.2 + 0.4 * -0.2,
    ("{a}", "{b}"): 0.6 * 0.2 + 0.4 * 0.2,
    ("{a}", "{a,b}"): 0.6 * 0.5,
    ("{b}", "{a}"): 0.4 * 0.1,
    ("{b}", "{b}"): 0.4 * -0.05,
    ("{a,b}", "{a}"): 0.4 * 0.5,
    ("{a,b}", "{a,b}"): 0.4 * 0.5,
}
HAND_EMPTY = 0.6 * 0.1 + 0.6 * -0.05


def hand_example() -> list[str]:
    lines = []
    for kind, rows in (("m", Y_MASS), ("k", Y_COMMONALITY)):
        model = read_model(TWO_NODE % (kind, rows))
        joint = combination_joint(model)
        got = {tuple(bits_literal(b, labels) for b, labels in zip(key, model.frames.values())): v
               for key, v in joint.entries(1e-15).items()}
        err = max(abs(got.get(k, 0.0) - v) for k, v in (HAND | got).items())
        err = max(err, abs(joint.empty_mass - HAND_EMPTY))
        ok = err < 1e-12 and set(got) == set(HAND)
        lines.append(f"{'ok  ' if ok else 'FAIL'} two-node hand example, Y|X kind={kind}: "
                     f"max error {err:.1e}")
    return lines


def perturbed(src: str, dst: str, table: str, row_a: str, row_b: str, delta: float) -> None:
    """Copy a network, moving ``delta`` from row ``row_b`` to row ``row_a`` of one table."""
    text = open(src, encoding="utf-8").read()
    head, _, rest = text.partition(f"table {table} |")
    body, _, tail = rest.partition("end")
    for row, d in ((row_a, delta), (row_b, -delta)):
        pattern = re.compile(r"^(\s*" + re.escape(row) + r"\s*:\s*)(\S+)$", re.M)
        body, n = pattern.subn(lambda m: f"{m.group(1)}{float(m.group(2)) + d!r}", body)
        if n != 1:
            raise ValueError(f"row {row!r} not found once in table {table}")
    open(dst, "w", encoding="utf-8").write(head + f"table {table} |" + body + "end" + tail)


def mutation_cases(work):
    """(workload, command, perturbation, check) for every command whose output
    is checked against the reference; `verify` judges itself."""
    cases = []
    for name in run.WORKLOADS:
        (work / name).mkdir(parents=True)
        w = run.build_workload(name, 1, work / name)
        for cmd in w.commands:
            if cmd.name == "verify":
                continue
            model, joint = w.model(cmd.net), w.joint(cmd.net)
            if cmd.name == "sample" and name == "sample-verify":
                spec = ("X3", "{a} | {a,b}", "{b} | {a,b}", 0.03)
                check = lambda out, c=cmd, m=model, j=joint: check_sample(str(out), m, j, c.records)
            elif cmd.name == "sample":
                spec = ("C", "{a} | {a} {a}", "{b} | {a} {a}", 0.02)
                check = lambda out, c=cmd, m=model, j=joint: check_sample(str(out), m, j, c.records)
            elif cmd.name == "joint":
                spec = ("X4", "{a} | {a}", "{b} | {a}", 0.03)
                check = lambda out, m=model, j=joint: check_joint_csv(str(out), m, j)
            else:
                spec = ("C", "{a} | {a} {a}", "{b} | {a} {a}", 0.02)
                check = lambda out, m=model: check_cpt_dump(out.read_text(encoding="utf-8"), m)
            cases.append((name, cmd, spec, check))
    return cases


def main() -> int:
    lines = hand_example()
    work = run.WORK_ROOT / f"selfcheck-{os.getpid()}"
    try:
        for name, cmd, (table, row_a, row_b, delta), check in mutation_cases(work):
            copy = cmd.output.parent / "perturbed.dsn"
            perturbed(str(cmd.net), str(copy), table, row_a, row_b, delta)
            what = f"{table} row {row_a} +{delta}, {row_b} -{delta}"
            for label, net in (("original", cmd.net), ("perturbed", copy)):
                argv = [str(net) if a == str(cmd.net) else a for a in cmd.argv]
                inv = run.cli(run.Command(argv, net), cmd.output.parent, "selfcheck")
                problems = check(cmd.output) if inv.returncode == 0 else ["program failed"]
                ok = inv.returncode == 0 and (not problems) == (label == "original")
                detail = "passes" if not problems else (
                    f"rejected, {len(problems)} problem(s), first: {problems[0][:90]}")
                lines.append(f"{'ok  ' if ok else 'FAIL'} {name} {cmd.name} {label}"
                             + (f" ({what})" if label == "perturbed" else "") + f": {detail}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    return 0 if all(line.startswith("ok") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
