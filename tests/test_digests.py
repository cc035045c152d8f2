"""Output bytes pinned by sha256: any change to the draw, the collapse or the
sample CSV writer, to the combination joint or its CSV writer, or to the CPT
dump that moves a single byte fails here."""

import hashlib
import io
import re
from pathlib import Path

import pytest

import belnet.sampler as sampler_mod
from belnet import generate, parse_network, write_csv
from belnet.cli import main

from conftest import fixture_path, load

FIXTURE_DIGESTS = {
    "chain4_sampling": "48efc2a1329de557232c99cb38d06b3ce6654f9fc65174d529fe8b57cbf181b9",
    "chain3_ternary": "5f2ab986dddea6a5eb4cf415e6806d2b1b85473e438185d961dec0864b754feb",
    "star4_proper": "ce7f5909c7abb00fd1b4794affd81dc712490c8ddd83dc26910900d41995eba5",
    "collider3": "1fc879d645ad41d63adf98662afadc3266a47eb435b6c387221af5fc3e14c8ca",
}
# 3^45 collapsed classes exceed int64: a mixed-radix class code would overflow.
LONG_CHAIN_DIGEST = "2d5741c170416e10436c176a2012f9807a9d8251e1ba4eb3f9aea03bb52603e1"
LONG_CHAIN_NODES = 45
# a ternary root's nested splits, each family feeding three edges
TERNARY_STAR_DIGEST = "b61a79087c923a4328b40f1fbc0621fc426a915a07a564d65d4ee49df2b90e87"
# `belnet joint` and `belnet cpt` output files
COMMAND_DIGESTS = {
    ("joint", "star5_negjoint"): "6709851de17fd0b22eeeb823d1aff7d9818db5a6b1e588abf660d662ba6f99e8",
    ("joint", "chain3_ternary"): "5f2db9e9bd352775c844be5ab7194345a207db69de4a5c0c670cdf08b60595dd",
    ("cpt", "collider3"): "1258dd2c506b70f752930de430428512c3c6a2f495fecf1b2953a9b812a9839a",
    ("cpt", "chain4_sampling"): "873d8d58dff3bc7685c7c3b2e4a357ad4c1f2ecbac830a366f551c8356443881",
}


def _digest(sample) -> str:
    buf = io.StringIO()
    write_csv(sample, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def long_chain(nodes: int):
    """A binary chain with chain4_sampling's root table and its X2|X1 table on
    every edge."""
    fixture = Path(fixture_path("chain4_sampling.dsn")).read_text(encoding="utf-8")
    root = fixture[fixture.index("table X1") : fixture.index("table X2")]
    cond = fixture[fixture.index("table X2") : fixture.index("table X3")]
    lines = [f"net chain{nodes}"]
    lines += [f"var X{i} : a b" for i in range(1, nodes + 1)]
    lines += [f"edge X{i} -> X{i + 1}" for i in range(1, nodes)]
    text = "\n".join(lines) + "\n" + root
    for i in range(2, nodes + 1):
        names = {"X1": f"X{i - 1}", "X2": f"X{i}"}
        text += re.sub(r"\bX[12]\b", lambda m: names[m.group()], cond)
    return parse_network(text)


def ternary_star():
    """A singleton-heavy ternary root feeding three binary leaves.  Each leaf's
    rows differ by parent subset and by leaf, so every edge's row map shows."""
    subsets = ["{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}"]
    root = (0.3, 0.3, 0.3, 0.03, 0.03, 0.03, 0.01)
    lines = ["net ternary_star", "var R : a b c"]
    lines += [f"var L{j} : a b" for j in (1, 2, 3)] + [f"edge R -> L{j}" for j in (1, 2, 3)]
    lines += ["table R | kind=k", *(f"  {s} : {w}" for s, w in zip(subsets, root)), "end"]
    for j in (1, 2, 3):
        lines.append(f"table L{j} | R kind=k")
        for i, s in enumerate(subsets):
            d = 0.01 * ((i + j) % 7 - 3)
            lines += [f"  {{a}} | {s} : {0.45 + d!r}", f"  {{b}} | {s} : {0.45 - d!r}"]
            lines.append(f"  {{a,b}} | {s} : 0.1")
        lines.append("end")
    return parse_network("\n".join(lines) + "\n")


def _cases():
    for fixture, digest in sorted(FIXTURE_DIGESTS.items()):
        yield pytest.param(lambda f=fixture: load(f"{f}.dsn"), 20000, 7, digest, id=fixture)
    yield pytest.param(
        lambda: long_chain(LONG_CHAIN_NODES), 20000, 3, LONG_CHAIN_DIGEST, id="chain45"
    )
    yield pytest.param(ternary_star, 20000, 7, TERNARY_STAR_DIGEST, id="ternary_star")


@pytest.mark.parametrize("make_net, n, seed, digest", _cases())
def test_sample_digest(make_net, n, seed, digest, monkeypatch):
    sample = generate(make_net(), n, seed=seed)
    assert _digest(sample) == digest
    # the writer works chunk by chunk; chunk boundaries must not show
    monkeypatch.setattr(sampler_mod, "_CHUNK", 7)
    assert _digest(sample) == digest


@pytest.mark.parametrize("command, fixture", sorted(COMMAND_DIGESTS))
def test_command_output_digest(command, fixture, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    assert main([command, fixture_path(f"{fixture}.dsn"), "-o", str(dest)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(dest.read_bytes()).hexdigest()
    assert digest == COMMAND_DIGESTS[command, fixture]
