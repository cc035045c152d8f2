"""Seeded generator of the benchmark's generated networks (`.dsn` text).

* ``ternary_chain(k, seed)``: k ternary nodes in a chain.  Every conditional
  table is the one of ``tests/fixtures/chain3_ternary.dsn``; the root row is
  that fixture's root row with a seeded relative perturbation of at most 1%,
  renormalized.
* ``wide_collider(seed)``: a quaternary root A and a ternary root B feed a
  ternary leaf C.  Every commonality row is a base row heavy on singletons,
  perturbed by at most 1% (relative, per cell) and renormalized.

Everything is drawn from ``numpy.random.default_rng``, seeded with the seed
and the attempt number, so the same seed gives the same text.  Whether a
generated model is feasible is decided by the program (``belnet cpt`` exiting
0), not here: ``run.py`` moves on to the next attempt when it is not.
"""

from __future__ import annotations

import itertools

import numpy as np

PERTURBATION = 0.01
ROOT_DECAY = 0.1
LEAF_DECAY = 0.3
TERNARY = ("a", "b", "c")
QUATERNARY = ("a", "b", "c", "d")

# chain3_ternary's conditional table, rows keyed by the parent subset
_CHAIN_ROWS = {
    "{a}": (0.26, 0.28, 0.24, 0.06, 0.06, 0.06, 0.04),
    "{b}": (0.28, 0.24, 0.26, 0.06, 0.06, 0.06, 0.04),
    "{c}": (0.26, 0.28, 0.24, 0.06, 0.06, 0.06, 0.04),
    "{a,b}": (0.26, 0.28, 0.24, 0.06, 0.06, 0.06, 0.04),
    "{a,c}": (0.24, 0.26, 0.28, 0.06, 0.06, 0.06, 0.04),
    "{b,c}": (0.26, 0.28, 0.24, 0.06, 0.06, 0.06, 0.04),
    "{a,b,c}": (0.24, 0.26, 0.28, 0.06, 0.06, 0.06, 0.04),
}
_CHAIN_ROOT = (0.28, 0.24, 0.26, 0.06, 0.06, 0.06, 0.04)


def subsets(labels: tuple[str, ...]) -> list[str]:
    """Nonempty subset literals in belnet's canonical order (size, then bits)."""
    masks = sorted(range(1, 1 << len(labels)), key=lambda b: (bin(b).count("1"), b))
    return ["{" + ",".join(v for i, v in enumerate(labels) if b >> i & 1) + "}" for b in masks]


def _perturb(rng: np.random.Generator, row) -> np.ndarray:
    row = np.asarray(row, dtype=float) * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION, len(row)))
    return row / row.sum()


def _table(child: str, parents: tuple[str, ...], rows: dict[tuple[str, ...], np.ndarray],
           child_subsets: list[str]) -> list[str]:
    lines = [" ".join(["table", child, "|", *parents, "kind=k"])]
    for cfg, row in rows.items():
        for lit, v in zip(child_subsets, row):
            left = lit if not cfg else f"{lit} | {' '.join(cfg)}"
            lines.append(f"  {left} : {float(v)!r}")
    lines.append("end")
    return lines


def ternary_chain(k: int, seed: int, attempt: int = 0) -> str:
    rng = np.random.default_rng([seed, k, attempt])
    names = [f"X{i}" for i in range(1, k + 1)]
    subs = subsets(TERNARY)
    lines = [f"net ternary_chain{k}"]
    lines += [f"var {n} : {' '.join(TERNARY)}" for n in names]
    lines += [f"edge {a} -> {b}" for a, b in zip(names, names[1:])]
    lines += _table(names[0], (), {(): _perturb(rng, _CHAIN_ROOT)}, subs)
    for parent, child in zip(names, names[1:]):
        rows = {(cfg,): np.asarray(_CHAIN_ROWS[cfg]) for cfg in subs}
        lines += _table(child, (parent,), rows, subs)
    return "\n".join(lines) + "\n"


def _singleton_heavy(labels: tuple[str, ...], decay: float) -> np.ndarray:
    """A commonality row whose cells shrink by ``decay`` per extra member.

    A root with a successor needs a steep decay: the split of its row over
    extended vectors subtracts every coarser value's share from each subset.
    """
    sizes = np.array([lit.count(",") + 1 for lit in subsets(labels)])
    row = decay ** (sizes - 1.0)
    return row / row.sum()


def wide_collider(seed: int, attempt: int = 0) -> str:
    rng = np.random.default_rng([seed, 0xC011, attempt])
    sub4, sub3 = subsets(QUATERNARY), subsets(TERNARY)
    lines = ["net wide_collider", f"var A : {' '.join(QUATERNARY)}",
             f"var B : {' '.join(TERNARY)}", f"var C : {' '.join(TERNARY)}",
             "edge A -> C", "edge B -> C"]
    lines += _table("A", (), {(): _perturb(rng, _singleton_heavy(QUATERNARY, ROOT_DECAY))}, sub4)
    lines += _table("B", (), {(): _perturb(rng, _singleton_heavy(TERNARY, ROOT_DECAY))}, sub3)
    base = _singleton_heavy(TERNARY, LEAF_DECAY)
    rows = {cfg: _perturb(rng, base) for cfg in itertools.product(sub4, sub3)}
    lines += _table("C", ("A", "B"), rows, sub3)
    return "\n".join(lines) + "\n"
