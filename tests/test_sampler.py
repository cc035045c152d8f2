"""Forward sampling: determinism, support, collapse, CSV output."""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belnet.sampler as sampler_mod
from belnet import (
    ExtValue,
    ExtVector,
    Frame,
    SizeGuardError,
    SubsetMask,
    build_network_cpts,
    component,
    edge_index,
    generate,
    load_network,
    parse_network,
    subsets_of,
    write_csv,
)

from conftest import bframe, cpt_row, load, mask


class TestDeterminism:
    def test_same_seed_same_bytes(self, sampling_net):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv(generate(sampling_net, 500, seed=11), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_passes_are_equal(self, sampling_net):
        s = generate(sampling_net, 500, seed=11)
        assert np.array_equal(s.collapsed_counts(), s.collapsed_counts())
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv(s, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_chunking_does_not_change_records(self, sampling_net, monkeypatch):
        s = generate(sampling_net, 300, seed=9)
        whole = codes_of(s)
        # each pass reads the chunk size afresh
        monkeypatch.setattr(sampler_mod, "_CHUNK", 7)
        assert max(map(len, s.chunks())) == 7
        assert np.array_equal(whole, codes_of(s))

    def test_codes_are_narrow_contiguous_columns(self, sampling_net, tmp_path):
        assert codes_of(generate(sampling_net, 10, seed=0)).dtype == np.uint8
        # a quaternary parent has 281 extended values; weight 0.1^(|s|-1) on each
        # subset s keeps its split over them nonnegative
        subsets = [",".join(c) for n in range(1, 5) for c in itertools.combinations("abcd", n)]
        weights = [0.1 ** s.count(",") for s in subsets]
        root = "".join(f"  {{{s}}} : {w / sum(weights)!r}\n" for s, w in zip(subsets, weights))
        wide = tmp_path / "wide.dsn"
        wide.write_text(
            f"var A : a b c d\nvar B : a b\nedge A -> B\ntable A | kind=k\n{root}end\n"
            "table B | A kind=m\n  {a,b} | {a,b,c,d} : 1\nend\n"
        )
        (codes,) = generate(load_network(str(wide)), 10, seed=0).chunks()
        assert codes.dtype == np.uint16 and codes.flags.f_contiguous

    def test_different_seeds_differ(self, sampling_net):
        cpts = build_network_cpts(sampling_net)
        a = generate(sampling_net, 200, seed=0, cpts=cpts)
        b = generate(sampling_net, 200, seed=1, cpts=cpts)
        assert not np.array_equal(codes_of(a), codes_of(b))


def codes_of(sample):
    """Every record's child-domain indices, from one pass over ``chunks()``."""
    return np.concatenate(list(sample.chunks()))


def domains_of(net):
    """Per variable in declaration order, its child domain: the axis its codes index."""
    cpts = build_network_cpts(net)
    return [cpts[name].child_domain for name in net.variables]


def records(sample, domains):
    """Per record, in order, its extended value of each variable."""
    for row in codes_of(sample).tolist():
        yield tuple(domain[c] for domain, c in zip(domains, row))


def collapse(record):
    return tuple(v if isinstance(v, SubsetMask) else v.own for v in record)


def _reference_draw(probs, cdf, r, u):
    """The draw rule, one record at a time: the number of CDF cells <= u,
    clamped to the last cell with positive probability."""
    count = sum(1 for x in cdf[r] if x <= u)
    return min(count, max(c for c, p in enumerate(probs[r]) if p > 0.0))


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@st.composite
def _cpt_rows(draw, max_width=12):
    """Random CPT rows and records, in the cases the guide table must get
    right: runs of zero cells at either end (the ``top`` clip), rows of dyadic
    cells whose CDF entries sit exactly on bucket edges, rows summing to
    1 +- 1e-12 or short of one, and variates on CDF entries, just below them,
    on bucket edges and just below one."""
    width = draw(st.integers(1, max_width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        weights = rng.integers(0, 6, width)
        lead = draw(st.integers(0, width - 1))
        trail = draw(st.integers(0, width - 1 - lead))
        weights[:lead] = 0
        weights[width - trail :] = 0
        if not weights.any():
            weights[lead] = 1
        kind = draw(st.sampled_from(["plain", "dyadic", "over", "under", "short"]))
        total = int(weights.sum())
        if kind == "dyadic":
            # a power-of-two total, so every CDF entry is an exact bucket edge
            weights[np.flatnonzero(weights)[0]] += (1 << (total - 1).bit_length()) - total
            total = int(weights.sum())
        scale = {"over": 1 + 1e-12, "under": 1 - 1e-12, "short": 0.9}.get(kind, 1.0)
        rows.append(weights / total * scale)
    probs = np.array(rows)
    cdf = np.cumsum(probs, axis=1)
    n = draw(st.integers(1, 40))
    recs = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    us = []
    for r in recs:
        entry = cdf[r, rng.integers(width)]
        e = int(rng.integers(13))
        u = [
            rng.random(),
            entry,
            np.nextafter(entry, 0.0),
            rng.integers(1 << e) / (1 << e),  # a bucket edge for every k >= 2^e
            _BELOW_ONE,
        ][draw(st.integers(0, 4))]
        us.append(min(float(u), _BELOW_ONE))
    return probs, np.asarray(recs, dtype=np.int64), np.asarray(us)


def _node_draw(probs):
    """A node whose one parent column holds the CPT row of each record."""
    return sampler_mod._NodeDraw(probs, [(0, np.arange(len(probs), dtype=np.int64))])


class TestDrawRule:
    @given(_cpt_rows())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        probs, rows, u = case
        cdf = np.cumsum(probs, axis=1)
        top = np.where(probs > 0.0, np.arange(probs.shape[1]), -1).max(axis=1)
        got = sampler_mod._draw_cells(cdf, top, rows, u)
        want = [_reference_draw(probs, cdf, r, x) for r, x in zip(rows, u)]
        assert got.tolist() == want

    @given(_cpt_rows(max_width=300))
    @settings(max_examples=200, deadline=None)
    def test_guide_and_fallback_match_reference(self, case):
        probs, rows, u = case
        node = _node_draw(probs)
        got = node.draw(rows[:, None], u)
        want = [_reference_draw(probs, node.cdf, r, x) for r, x in zip(rows, u)]
        assert got.tolist() == want

    def _counted_fallback(self, monkeypatch):
        calls = []
        exact = sampler_mod._draw_cells

        def counted(cdf, top, rows, u):
            calls.append(len(u))
            return exact(cdf, top, rows, u)

        monkeypatch.setattr(sampler_mod, "_draw_cells", counted)
        return calls

    def test_fallback_fires_inside_a_bucket_holding_a_cdf_entry(self, monkeypatch):
        calls = self._counted_fallback(monkeypatch)
        probs = np.array([[0.3, 0.7]])
        node = _node_draw(probs)
        u = np.array([float(np.nextafter(0.3, 0.0)), 0.3, 0.0, 0.5, _BELOW_ONE])
        got = node.draw(np.zeros((len(u), 1), dtype=np.uint8), u)
        assert got.tolist() == [0, 1, 0, 1, 1]
        assert calls == [2]

    def test_fallback_never_fires_on_bucket_edges(self, monkeypatch):
        calls = self._counted_fallback(monkeypatch)
        probs = np.array([[0.25, 0.25, 0.5, 0.0], [0.0, 0.5, 0.375, 0.125]])
        node = _node_draw(probs)
        assert node.guide.min() >= 0
        u = np.array([0.0, 0.25, float(np.nextafter(0.25, 0.0)), 0.5, 0.875, _BELOW_ONE] * 2)
        rows = np.repeat([0, 1], 6)
        got = node.draw(rows[:, None], u)
        assert got.tolist() == [_reference_draw(probs, node.cdf, r, x) for r, x in zip(rows, u)]
        assert calls == []

    def test_cell_budget_shrinks_buckets(self, monkeypatch):
        monkeypatch.setattr(sampler_mod, "_GUIDE_CELLS", 1)
        probs = np.array([[0.3, 0.7], [0.5, 0.5]])
        node = _node_draw(probs)
        assert node.k == 1 and node.guide.tolist() == [-1, -1]
        u = np.array([0.0, 0.3, 0.5, 0.7, _BELOW_ONE])
        rows = np.array([0, 0, 1, 1, 1])
        got = node.draw(rows[:, None], u)
        assert got.tolist() == [_reference_draw(probs, node.cdf, r, x) for r, x in zip(rows, u)]


class TestRecords:
    def test_count_contract(self, sampling_net):
        s = generate(sampling_net, 17, seed=0)
        assert len(s) == 17
        with pytest.raises(ValueError):
            generate(sampling_net, 0)

    def test_generate_allocates_nothing_per_record(self, sampling_net):
        assert len(generate(sampling_net, 10**12, seed=0)) == 10**12

    def test_degenerate_network(self):
        net = load("vacuous1.dsn")
        s = generate(net, 25, seed=5)
        assert all(str(rec[0]) == "{a,b}" for rec in map(collapse, records(s, domains_of(net))))

    def test_support_has_positive_probability(self, sampling_net):
        cpts = build_network_cpts(sampling_net)
        s = generate(sampling_net, 1500, seed=2, cpts=cpts)
        order = sampling_net.variables
        domains = [cpts[name].child_domain for name in order]
        for rec in itertools.islice(records(s, domains), 0, None, 97):
            byname = dict(zip(order, rec))
            for name in order:
                cpt = cpts[name]
                cfg = tuple(
                    component(byname[p], edge_index(sampling_net, p, name))
                    for p in cpt.parent_names
                )
                assert cpt_row(cpt, cfg)[cpt.child_domain.index(byname[name])] > 0.0

    def test_collapse_is_coordinatewise_own(self, sampling_net):
        s = generate(sampling_net, 50, seed=1)
        buf = io.StringIO()
        write_csv(s, buf)
        rec = list(records(s, domains_of(sampling_net)))[9]
        row = list(csv.reader(io.StringIO(buf.getvalue())))[10]
        assert row == [str(v.own if isinstance(v, ExtVector) else v) for v in rec]

    def test_root_marginal_tracks_mass(self, sampling_net):
        n = 20000
        s = generate(sampling_net, n, seed=13)
        counts = s.collapsed_counts()
        # X1's marginal over {a}, {b}, {a,b}
        freqs = counts.sum(axis=tuple(range(1, counts.ndim))) / n
        assert freqs == pytest.approx([0.4, 0.4, 0.2], abs=0.02)

    @pytest.mark.parametrize(
        "fixture", ["chain4_sampling.dsn", "chain3_ternary.dsn", "star4_proper.dsn"]
    )
    def test_collapsed_counts_match_records(self, fixture, monkeypatch):
        # counts merged over several chunks equal a count of every record's collapse
        monkeypatch.setattr(sampler_mod, "_CHUNK", 700)
        net = load(fixture)
        s = generate(net, 3000, seed=8)
        subsets = [subsets_of(net.frame(v)) for v in s.variables]
        want = np.zeros([len(subs) for subs in subsets], dtype=np.int64)
        for rec in map(collapse, records(s, domains_of(net))):
            want[tuple(subs.index(m) for subs, m in zip(subsets, rec))] += 1
        counts = s.collapsed_counts()
        assert counts.dtype == np.int64 and np.array_equal(counts, want)


def write_records(sample, domains, stream):
    """Reference CSV writer: one csv row per record, in record order."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(sample.variables)
    for rec in map(collapse, records(sample, domains)):
        writer.writerow([str(m) for m in rec])


class TestCsv:
    def test_single_record_two_lines(self, sampling_net):
        buf = io.StringIO()
        write_csv(generate(sampling_net, 1, seed=0), buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "X1,X2,X3,X4"
        assert len(lines) == 3 and lines[2] == ""

    def test_cells_are_canonical_literals(self, sampling_net):
        buf = io.StringIO()
        write_csv(generate(sampling_net, 200, seed=4), buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        cells = {c for row in rows[1:] for c in row}
        assert cells == {"{a}", "{b}", "{a,b}"}
        assert all(len(row) == 4 for row in rows)

    def test_record_iterable_path_matches_fast_path(self, sampling_net, monkeypatch):
        # a one-node network whose 8191 subsets are more classes than one CSV run holds
        frame = Frame("X", tuple("abcdefghijklm"))
        rows = "".join(f"  {m} : {1 / 8191!r}\n" for m in subsets_of(frame))
        wide = parse_network(f"var X : {' '.join(frame.values)}\ntable X | kind=m\n{rows}end\n")
        nets = [(sampling_net, 40), (load("chain3_ternary.dsn"), 500),
                (load("star4_proper.dsn"), 500), (wide, 3000)]
        samples = [(generate(net, n, seed=6), domains_of(net)) for net, n in nets]
        # runs of one variable each and of the default cap; chunks of 7 and the default
        for runs, chunk in itertools.product(
            [1, sampler_mod._CSV_CLASSES], [7, sampler_mod._CHUNK]
        ):
            monkeypatch.setattr(sampler_mod, "_CSV_CLASSES", runs)
            monkeypatch.setattr(sampler_mod, "_CHUNK", chunk)
            for s, domains in samples:
                fast, slow = io.StringIO(), io.StringIO()
                write_csv(s, fast)
                write_records(s, domains, slow)
                assert fast.getvalue() == slow.getvalue()

    def test_classes_beyond_int64_stay_distinct(self):
        # two collapsed classes of 45 binary leaves whose mixed-radix codes
        # differ by exactly 2^64: all {a}, and the base-3 digits of 2^64
        frames = [Frame(f"X{i}", ("a", "b")) for i in range(45)]
        digits, rest = [], 1 << 64
        while rest:
            rest, d = divmod(rest, 3)
            digits.append(d)
        far = [0] * (45 - len(digits)) + digits[::-1]
        codes = np.array([[0] * 45, far, [0] * 45], dtype=np.int64)
        domains = [subsets_of(f) for f in frames]
        sample = sampler_mod.Sample(tuple(f.name for f in frames), domains, 3, lambda: [codes])
        fast, slow = io.StringIO(), io.StringIO()
        write_csv(sample, fast)
        write_records(sample, domains, slow)
        assert fast.getvalue() == slow.getvalue()
        # 3^45 collapsed cells: too many to count densely
        with pytest.raises(SizeGuardError, match="collapsed state space"):
            sample.collapsed_counts()

    def test_write_to_path(self, sampling_net, tmp_path):
        dest = tmp_path / "out.csv"
        write_csv(generate(sampling_net, 10, seed=0), str(dest))
        assert dest.read_text().count("\n") == 11
