"""End-to-end benchmark of the belnet command line, with a traced per-layer pass.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 clibench/run.py --digests 1-5     # sha256 of the sample CSVs per seed

Run from the root of a source checkout.  Every workload is a fixed list of
``python -m belnet.cli`` invocations (``src`` on the path), run one at a time
in fresh processes, the way a user runs the tool.  With ``--trace 0`` the
benchmark repeats whole passes over that list for about ``--seconds`` seconds
and reports the median pass; with ``--trace 1`` it makes one untraced pass,
then replays each invocation's library calls with spans (``child.py``), then
once more under tracemalloc, and reports per-layer figures.  Every output is
checked against the independent reference in ``reference.py`` or against a
property the method must have.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from reference import Joint, Model, bits_literal, combination_joint, load_model  # noqa: E402

ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
WORK_ROOT = ROOT / ".clibench_work"
TRACE_DIR = ROOT / ".clibench_out"
SETUP_REPEATS = 9
PROBE_RECORDS = 100_000
GEN_ATTEMPTS = 8

WORKLOADS = ("sample-verify", "oracles-collider")

END_TO_END_UNITS = {"wall_s": "s", "records_per_s": "records/s", "peak_rss_mb": "MiB", "setup_s": "s"}
LAYER_TIMES = (
    "network.parse", "tables.m2k", "cpt.build", "cpt.check", "sampler.generate",
    "sampler.write_csv", "sampler.collapsed_counts", "verify.exact_joint", "verify.compare",
    "fusion.network_joint", "fusion.write_joint_csv",
)
# per-layer counts: metric name -> (span name, span attribute)
LAYER_COUNTS = {
    "cpt.cells": ("cpt.build", "cells"),
    "sampler.records": ("sampler.generate", "records"),
    "sampler.csv_bytes": ("sampler.write_csv", "bytes"),
    "verify.state_space": ("verify.exact_joint", "state_space"),
    "fusion.focal_elements": ("fusion.network_joint", "focal_elements"),
}
LAYER_PEAKS = {
    "sampler.generate_peak_mb": "sampler.generate",
    "sampler.write_csv_peak_mb": "sampler.write_csv",
}


class BenchError(Exception):
    """The benchmark cannot run (missing sources, a failed replay, no feasible input)."""


@dataclass
class Command:
    """One CLI invocation and what its output is checked against."""

    argv: list[str]
    net: Path
    records: int = 0
    output: Path | None = None
    verify_cells: int | None = None  # support size verify must report

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Invocation:
    command: Command
    wall_s: float
    rss_mb: float
    cpu_s: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Workload:
    name: str
    work: Path
    seed: int
    commands: list[Command]
    networks: list[Path]
    models: dict[Path, Model] = field(default_factory=dict)
    joints: dict[Path, Joint] = field(default_factory=dict)

    def model(self, path: Path) -> Model:
        if path not in self.models:
            self.models[path] = load_model(str(path))
            self.joints[path] = combination_joint(self.models[path])
        return self.models[path]

    def joint(self, path: Path) -> Joint:
        self.model(path)
        return self.joints[path]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one process at a time, each single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], work: Path, tag: str) -> tuple[float, float, float, int, str, str]:
    """Run one child; wall time, its own peak RSS and CPU from wait4, exit code, output.

    RUSAGE_CHILDREN would give the largest RSS of every child reaped so far,
    so each child's own rusage is read from wait4.
    """
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def cli(cmd: Command, work: Path, tag: str) -> Invocation:
    wall, rss, cpu, rc, out, err = spawn(
        [sys.executable, "-m", "belnet.cli"] + cmd.argv, work, tag)
    return Invocation(cmd, wall, rss, cpu, rc, out, err)


# ---------------------------------------------------------------- inputs


def generated(work: Path, filename: str, make) -> Path:
    """Write the first generated model that ``belnet cpt`` accepts."""
    path = work / filename
    for attempt in range(GEN_ATTEMPTS):
        path.write_text(make(attempt), encoding="utf-8")
        cmd = Command(["cpt", str(path), "-o", str(work / "validate.csv")], path)
        if cli(cmd, work, "validate").returncode == 0:
            return path
        log(f"{filename}: generated model {attempt} rejected by `belnet cpt`, trying the next")
    raise BenchError(f"no feasible {filename} in {GEN_ATTEMPTS} attempts")


def build_workload(name: str, seed: int, work: Path) -> Workload:
    s = str(seed)
    if name == "sample-verify":
        net = FIXTURES / "chain4_sampling.dsn"
        chain, star = FIXTURES / "chain3_ternary.dsn", FIXTURES / "star4_proper.dsn"
        cmds = [Command(["sample", str(net), "-n", "1000000", "--seed", s, "-o",
                         str(work / "chain4.csv")], net, 1_000_000, work / "chain4.csv"),
                Command(["verify", str(chain), "-n", "500000", "--seed", s], chain, 500_000),
                Command(["verify", str(star), "-n", "250000", "--seed", s], star, 250_000)]
    elif name == "oracles-collider":
        c4 = generated(work, "ternary_chain4.dsn", lambda a: gen.ternary_chain(4, seed, a))
        c5 = generated(work, "ternary_chain5.dsn", lambda a: gen.ternary_chain(5, seed, a))
        col = generated(work, "wide_collider.dsn", lambda a: gen.wide_collider(seed, a))
        cmds = [Command(["verify", str(c4), "-n", "100000", "--seed", s], c4, 100_000),
                Command(["joint", str(c5), "-o", str(work / "joint5.csv")], c5,
                        output=work / "joint5.csv"),
                Command(["cpt", str(col), "-o", str(work / "collider_cpt.csv")], col,
                        output=work / "collider_cpt.csv"),
                Command(["sample", str(col), "-n", "300000", "--seed", s, "-o",
                         str(work / "collider.csv")], col, 300_000, work / "collider.csv")]
    else:
        raise BenchError(f"unknown workload {name!r}")
    nets = list(dict.fromkeys(c.net for c in cmds))
    wl = Workload(name, work, seed, cmds, nets)
    for cmd in cmds:
        if cmd.name == "verify" and cmd.net != FIXTURES / "star4_proper.dsn":
            # on chains the collapsed support is the combination joint's support
            cmd.verify_cells = len(wl.joint(cmd.net).entries(1e-12))
    return wl


# ---------------------------------------------------------------- checks


def check_invocation(wl: Workload, inv: Invocation) -> tuple[list[str], str | None]:
    """Problems with one invocation's output, and the sha256 of its sample CSV."""
    cmd = inv.command
    if inv.returncode != 0:
        return [f"{cmd.argv}: exit {inv.returncode}: {inv.stderr.strip()[-300:]}"], None
    model, joint = wl.model(cmd.net), wl.joint(cmd.net)
    try:
        if cmd.name == "sample":
            return (checks.check_sample(str(cmd.output), model, joint, cmd.records),
                    checks.sha256_file(str(cmd.output)))
        if cmd.name == "verify":
            return checks.check_verify(inv.stdout, cmd.records, cmd.verify_cells), None
        if cmd.name == "joint":
            return checks.check_joint_csv(str(cmd.output), model, joint), None
        return checks.check_cpt_dump(cmd.output.read_text(encoding="utf-8"), model), None
    except (OSError, ValueError, IndexError) as exc:
        return [f"{cmd.argv[:2]}: unreadable output: {exc}"], None


def check_star(wl: Workload) -> list[str]:
    """If the workload verifies star4_proper, draw the same records with
    `sample` once per run: their root marginal must equal the root table.
    A leaf marginal is logged against the combination joint, which
    multi-successor splitting does not reproduce."""
    cmd = next((c for c in wl.commands if c.net == FIXTURES / "star4_proper.dsn"), None)
    if cmd is None:
        return []
    out = wl.work / "star4.csv"
    sample = Command(["sample", str(cmd.net), "-n", str(cmd.records), "--seed", str(wl.seed),
                      "-o", str(out)], cmd.net, cmd.records, out)
    inv = cli(sample, wl.work, "star4-sample")
    if inv.returncode != 0:
        return [f"star4 sample: exit {inv.returncode}"]
    model = wl.model(cmd.net)
    try:
        problems, counts, rows = checks.read_sample_counts(str(out), model)
    except (OSError, ValueError) as exc:
        return [f"star4 sample: unreadable output: {exc}"]
    if rows != cmd.records:
        problems.append(f"star4 sample has {rows} records, expected {cmd.records}")
    root = {k: v for k, v in model.tables["X1"].entries.items() if v}
    problems += checks.binomial_problems(checks.marginal(counts, 0), root, rows, "star4 root X1")
    labels = model.frames["X2"]
    full = (1 << len(labels)) - 1
    log(f"star4_proper X2 {bits_literal(full, labels)}: sampled "
        f"{checks.marginal(counts, 1)[(full,)] / rows:.4f}, "
        f"combination joint {wl.joint(cmd.net).marginal('X2')[full]:.4f}")
    return problems


def listed_digests() -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def compare_digests(wl: Workload, digests: dict[str, str]) -> None:
    """Report (never fail on) a difference from the digests listed for this seed."""
    listed = listed_digests().get(wl.name, {}).get(str(wl.seed), {})
    for key, digest in digests.items():
        want = listed.get(key)
        if want is None:
            log(f"digest {key} seed {wl.seed}: {digest} (none listed)")
        elif want != digest:
            log(f"digest {key} seed {wl.seed}: {digest} differs from listed {want}")


# ---------------------------------------------------------------- untraced


@dataclass
class Pass:
    invocations: list[Invocation]

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)

    @property
    def records_per_s(self) -> float:
        drawing = [i for i in self.invocations if i.command.records]
        return sum(i.command.records for i in drawing) / sum(i.wall_s for i in drawing)

    @property
    def peak_rss_mb(self) -> float:
        return max(i.rss_mb for i in self.invocations)


def run_pass(wl: Workload, k: int) -> Pass:
    return Pass([cli(cmd, wl.work, f"p{k}-{j}") for j, cmd in enumerate(wl.commands)])


def fingerprint(inv: Invocation) -> str:
    """sha256 of everything an invocation produced: its standard output and its file."""
    out = checks.sha256_file(str(inv.command.output)) if inv.command.output else ""
    return hashlib.sha256((inv.stdout + "\0" + out).encode()).hexdigest()


def check_pass(wl: Workload, p: Pass, digests: dict[str, str], seen: dict[int, str]) -> list[str]:
    """Check every output of a pass.  An invocation's output is checked in full
    the first time; a repeat of it must reproduce those checked bytes exactly."""
    problems = []
    for j, inv in enumerate(p.invocations):
        if j in seen and inv.returncode == 0:
            if fingerprint(inv) != seen[j]:
                problems.append(f"{inv.command.argv[:2]}: output changed between repeats")
            continue
        found, digest = check_invocation(wl, inv)
        problems += found
        if not found:
            seen[j] = fingerprint(inv)
        if digest is not None:
            digests[inv.command.net.stem] = digest
    return problems


def setup_once(wl: Workload, k: int) -> float:
    argv = [sys.executable, str(HERE / "child.py"), "setup"] + [str(n) for n in wl.networks]
    _, _, _, rc, out, err = spawn(argv, wl.work, f"setup{k}")
    if rc != 0:
        raise BenchError(f"setup child failed: {err.strip()[-300:]}")
    return json.loads(out)["setup_s"]


def run_untraced(wl: Workload, seconds: float) -> tuple[dict, list[str], int, int]:
    # The machine's speed drifts over tens of seconds, so the set-up repeats
    # are spread over the run, one before each pass and the rest after the
    # last, rather than timed back to back.
    setups, passes, problems, digests, seen = [], [], [], {}, {}
    timed = 0.0
    while True:
        setups.append(setup_once(wl, len(setups)))
        p = run_pass(wl, len(passes))
        passes.append(p)
        timed += p.wall_s
        problems += check_pass(wl, p, digests, seen)
        if timed + timed / len(passes) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(wl, len(setups)))
    problems += check_star(wl)
    compare_digests(wl, digests)
    for k, p in enumerate(passes):
        log(f"{wl.name} pass {k}: {p.wall_s:.3f} s (" + ", ".join(
            f"{i.command.name} {i.wall_s:.3f} s" for i in p.invocations) + ")")
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "records_per_s": statistics.median(p.records_per_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setups),
    }
    invs = [i for p in passes for i in p.invocations]
    return metrics, problems, len(invs), sum(i.returncode != 0 for i in invs)


# ---------------------------------------------------------------- traced


def replay(wl: Workload, argv: list[str], mode: str, tag: str) -> tuple[float, list[dict]]:
    spans_path = wl.work / f"{tag}.spans.json"
    cmd = [sys.executable, str(HERE / "child.py"), "replay", mode, str(spans_path), "--"] + argv
    wall, _, _, rc, _, err = spawn(cmd, wl.work, tag)
    if rc != 0:
        raise BenchError(f"replay {argv[:2]} ({mode}) failed: {err.strip()[-400:]}")
    return wall, json.loads(spans_path.read_text())


def replay_argv(cmd: Command, suffix: str) -> list[str]:
    """The command's arguments with its output redirected to a file of its own."""
    argv = list(cmd.argv)
    if cmd.output is not None:
        argv[argv.index("-o") + 1] = f"{cmd.output}.{suffix}"
    return argv


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Each span with its self time: its duration less that of its children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return list(zip(spans, own))


def run_traced(wl: Workload) -> tuple[dict, list[str], int, int, dict]:
    """One checked untraced pass, then each invocation traced in a fresh
    process, then the drawing ones again under tracemalloc, then the probe
    where layers are left uncovered."""
    base = run_pass(wl, 0)
    digests: dict[str, str] = {}
    problems = check_pass(wl, base, digests, {}) + check_star(wl)

    traces, peak_traces = [], []  # (label, child wall, spans)
    for j, cmd in enumerate(wl.commands):
        label = f"{cmd.name} {cmd.net.name}"
        wall, spans = replay(wl, replay_argv(cmd, "replay"), "time", f"t{j}")
        traces.append((label, wall, spans))
        if cmd.name == "sample" and (
                checks.sha256_file(f"{cmd.output}.replay") != digests.get(cmd.net.stem)):
            problems.append(f"{cmd.net.stem}: traced run wrote other bytes than the CLI")
        if cmd.name in ("sample", "verify"):
            wall, spans = replay(wl, replay_argv(cmd, "malloc"), "malloc", f"m{j}")
            peak_traces.append((label + " (tracemalloc)", wall, spans))
    spans = [st for _, _, sp in traces for st in self_times(sp)]
    peak_spans = [s for _, _, sp in peak_traces for s in sp if "peak_mb" in s]
    covered = {s["name"] for s, _ in spans}
    covered_peaks = {s["name"] for s in peak_spans}
    probe_argv = ["probe", str(wl.networks[0]), "-n", str(PROBE_RECORDS), "--seed",
                  str(wl.seed), "-o", str(wl.work / "probe")]
    probe_spans: list[tuple[dict, float]] = []
    if not covered.issuperset(LAYER_TIMES):
        wall, sp = replay(wl, probe_argv, "time", "probe")
        traces.append(("probe " + wl.networks[0].name, wall, sp))
        probe_spans = self_times(sp)
    probe_peaks: list[dict] = []
    if not covered_peaks.issuperset(LAYER_PEAKS.values()):
        wall, sp = replay(wl, probe_argv, "malloc", "probe-malloc")
        peak_traces.append(("probe (tracemalloc)", wall, sp))
        probe_peaks = [s for s in sp if "peak_mb" in s]

    metrics = {}
    for layer in LAYER_TIMES:
        found = spans if layer in covered else probe_spans
        metrics[layer + "_s"] = sum(t for s, t in found if s["name"] == layer)
    for metric, (layer, attr) in LAYER_COUNTS.items():
        found = spans if layer in covered else probe_spans
        metrics[metric] = sum(s.get(attr, 0) for s, _ in found if s["name"] == layer)
    for metric, layer in LAYER_PEAKS.items():
        found = peak_spans if layer in covered_peaks else probe_peaks
        metrics[metric] = max(s["peak_mb"] for s in found if s["name"] == layer)
    # time each traced CLI process spent outside the layers: interpreter start,
    # imports, structure checks and CLI-only output such as the cpt dump
    other = 0.0
    for _, wall, sp in traces[: len(wl.commands)]:
        other += wall - sum(s["end"] - s["start"] for s in sp
                            if s["parent"] is not None and sp[s["parent"]]["parent"] is None)
    metrics["cli.other_s"] = other
    metrics["cli.cpu_s"] = sum(i.cpu_s for i in base.invocations)

    traced_wall = sum(wall for _, wall, _ in traces[: len(wl.commands)])
    overhead = traced_wall - base.wall_s
    log(f"{wl.name}: untraced pass {base.wall_s:.3f} s, traced pass {traced_wall:.3f} s, "
        f"tracing overhead {overhead:+.3f} s ({overhead / base.wall_s:+.1%})")
    record = {
        "workload": wl.name, "seed": wl.seed,
        "untraced_wall_s": base.wall_s, "traced_wall_s": traced_wall,
        "tracing_overhead_s": overhead,
        "probe_layers": sorted((set(LAYER_TIMES) - covered)
                               | (set(LAYER_PEAKS.values()) - covered_peaks)),
        "traces": [{"trace": label, "process_wall_s": wall, "spans": sp}
                   for label, wall, sp in traces + peak_traces],
    }
    compare_digests(wl, digests)
    invs = base.invocations
    return metrics, problems, len(invs), sum(i.returncode != 0 for i in invs), record


# ---------------------------------------------------------------- main


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    return "bytes" if metric == "sampler.csv_bytes" else "count"


def require_sources() -> None:
    needed = [ROOT / "src" / "belnet" / "cli.py", FIXTURES / "chain4_sampling.dsn",
              FIXTURES / "chain3_ternary.dsn", FIXTURES / "star4_proper.dsn"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError("run from the root of a belnet checkout; missing " + ", ".join(missing))


def run(args: argparse.Namespace) -> dict:
    require_sources()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = build_workload(args.workload, args.seed, work)
        if args.trace:
            metrics, problems, attempted, failed, record = run_traced(wl)
            TRACE_DIR.mkdir(exist_ok=True)
            out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps(record, indent=1))
            log(f"spans written to {out.relative_to(ROOT)}")
        else:
            metrics, problems, attempted, failed = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        log("CHECK FAILED: " + p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def print_digests(seeds: list[int]) -> None:
    """sha256 of every sample CSV the workloads write, per seed."""
    require_sources()
    out: dict = {}
    for name in WORKLOADS:
        for seed in seeds:
            work = WORK_ROOT / f"digests-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                wl = build_workload(name, seed, work)
                for cmd in wl.commands:
                    if cmd.name == "sample":
                        inv = cli(cmd, work, "digest")
                        if inv.returncode != 0:
                            raise BenchError(f"{cmd.argv}: exit {inv.returncode}")
                        out.setdefault(name, {}).setdefault(str(seed), {})[cmd.net.stem] = (
                            checks.sha256_file(str(cmd.output)))
            finally:
                shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out, indent=1, sort_keys=True))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", metavar="SEEDS", help="e.g. 1-5: print sample CSV digests")
    args = ap.parse_args(argv)
    try:
        if args.digests:
            print_digests(seed_list(args.digests))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must be >= 0")
        result = run(args)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
