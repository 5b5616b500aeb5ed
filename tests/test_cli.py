"""CLI surface: edge-list format, reports, exit codes, revalidation."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import Cancellative, Hypergraph, complete, extremal, turan
from shadowlab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    parse,
    run,
    serialize,
)
from shadowlab.errors import EdgeListParseError, ParameterError

from conftest import reference_build
from shadowlab.extremal import random_free_graph


SRC = Path(__file__).resolve().parent.parent / "src"


def write_turan(path):
    path.write_text(serialize(turan(6, 3, 3)[0]))
    return str(path)


def load_report(path):
    return json.loads(path.read_text())


def reference_parse(data: bytes) -> Hypergraph:
    """The line-at-a-time reader that `parse` used before it read whole
    documents, kept with its edge walk (`reference_build`) as the oracle of
    the differential test. It takes valid UTF-8 without a byte-order mark."""
    lineno = 0

    def rows():
        nonlocal lineno
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)
        for lineno, raw in enumerate(text, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                yield tuple(int(tok) for tok in line.split())
            except ValueError:
                raise EdgeListParseError(lineno, f"non-integer token in {line!r}")

    lines = rows()
    header = next(lines, None)
    if header is None:
        raise EdgeListParseError(1, "missing 'r n' header")
    if len(header) != 2:
        raise EdgeListParseError(lineno, "header must be exactly 'r n'")
    try:
        return reference_build(header[0], header[1], lines)
    except ParameterError as exc:
        raise EdgeListParseError(lineno, str(exc)) from None


# In-line whitespace: `str.split` breaks at all of it, line reading at none.
# A plain space is listed twice so that it is drawn more often.
_IN_LINE_SPACES = [" ", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_SKIPPED_LINES = ["# note", "  # indented", "#", "", "   ", "\x0c", "\x85 ", "\u2028"]


@st.composite
def edge_list_documents(draw):
    """A document of mostly valid edges, sorted or not, with up to two
    faults, comment and blank lines, unusual integer spellings and
    in-line whitespace, and LF, CRLF or CR line ends."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))

    def line(tokens):
        spaces = [draw(st.sampled_from(_IN_LINE_SPACES)) for _ in range(len(tokens) + 1)]
        lead = spaces[0] if draw(st.booleans()) else ""
        body = "".join(tok + gap for tok, gap in zip(tokens, spaces[1:]))
        return lead + (body if draw(st.booleans()) else body.rstrip(spaces[-1]))

    def token(v):
        spelling = draw(st.sampled_from(["plain", "plain", "plus", "underscore"]))
        if spelling == "plus" and v >= 0:
            return f"+{v}"
        if spelling == "underscore" and v >= 10:
            return f"{v // 10}_{v % 10}"
        return str(v)

    candidates = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=16)
                 if candidates else st.just([]))
    rows = [(draw(st.permutations(e)) if draw(st.booleans()) else e, None) for e in edges]
    vertex = st.integers(0, max(n - 1, 0))
    for fault in draw(st.lists(st.sampled_from(
            ["duplicate", "repeated", "range", "arity", "word", "hash"]), max_size=2)):
        row = draw(st.lists(vertex, min_size=r, max_size=r))
        if fault == "duplicate" and edges:
            row = draw(st.permutations(draw(st.sampled_from(edges))))
        elif fault == "repeated" and r > 1:
            row[-1] = row[0]
        elif fault == "range":
            row[-1] = draw(st.sampled_from([-1, n, n + 7]))
        elif fault == "arity":
            row.append(draw(vertex))
        rows.insert(draw(st.integers(0, len(rows))), (row, fault))
    texts = []
    for row, fault in rows:
        tokens = [token(v) for v in row]
        if fault == "word":
            tokens[-1] = "x"
        elif fault == "hash":
            tokens[-1] = "#" + tokens[-1]
        texts.append(line(tokens))
    header = draw(st.sampled_from([line([str(r), str(n)])] * 20 + [
        f"{r}", f"{r} {n} 1", f"x {n}", f"0 {n}", f"{r} -1"]))
    lines = [*draw(st.lists(st.sampled_from(_SKIPPED_LINES), max_size=2)), header]
    for text in texts:
        lines += draw(st.lists(st.sampled_from(_SKIPPED_LINES), max_size=1))
        lines.append(text)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)).encode()


def parse_outcome(parse_document, data):
    try:
        return parse_document(data)
    except EdgeListParseError as exc:
        return exc.line, str(exc)


class TestEdgeListFormat:
    def test_round_trip(self):
        text = "3 4\n0 1 2\n0 1 3\n"
        h = parse(text.encode())
        assert len(h) == 2
        assert serialize(h) == text

    def test_comments_and_blanks_ignored(self):
        h = parse(b"# header next\n\n3 4\n# an edge\n0 1 2\n")
        assert h.edges == ((0, 1, 2),)

    def test_repeated_vertex(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse(b"3 4\n0 1 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse(b"3 4\n0 1 5\n")

    def test_duplicate_edge(self):
        with pytest.raises(EdgeListParseError, match="duplicate"):
            parse(b"3 4\n0 1 2\n2 1 0\n")

    def test_bad_arity(self):
        with pytest.raises(EdgeListParseError, match="expected 3"):
            parse(b"3 4\n0 1\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListParseError, match="non-integer"):
            parse(b"3 4\n0 one 2\n")

    def test_missing_header(self):
        with pytest.raises(EdgeListParseError, match="header"):
            parse(b"# nothing but comments\n")

    def test_duplicate_named_at_second_occurrence(self):
        with pytest.raises(EdgeListParseError, match="line 4: duplicate"):
            parse(b"3 4\n0 1 2\n# a comment\n2 1 0\n0 1 3\n")

    @pytest.mark.parametrize("prefix", ["", "# comment\n\n", "\n# one\n# two\n"])
    @pytest.mark.parametrize("header", ["0 4", "3 -1"])
    def test_bad_header_at_its_line(self, header, prefix):
        line = prefix.count("\n") + 1
        with pytest.raises(EdgeListParseError, match=f"line {line}:") as info:
            parse(f"{prefix}{header}\n0 1 2\n".encode())
        assert info.value.line == line

    @pytest.mark.parametrize("bad, words", [
        ("0 1", "expected 3"),
        ("0 1 2 3", "expected 3"),
        ("0 1 1", "repeated vertex"),
        ("0 1 4", "outside"),
        ("-1 1 2", "outside"),
    ])
    def test_bad_edge_after_blanks_and_comments(self, bad, words):
        doc = f"# edges\n3 4\n\n0 1 2\n# next\n   \n{bad}\n1 2 3\n"
        with pytest.raises(EdgeListParseError, match=f"line 7: .*{words}"):
            parse(doc.encode())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bad_line_named_anywhere(self, data):
        """One bad line among valid edges, comments and blank lines is
        reported at its own line."""
        good = data.draw(st.lists(st.sampled_from(
            ["0 1 2", "1 2 3", "0 2 4", "4 3 1", "# note", "", "   ", "#"]), max_size=8))
        good = [line for i, line in enumerate(good)
                if line.strip() in ("", "#", "# note") or line not in good[:i]]
        bad = data.draw(st.sampled_from(
            ["0 1", "0 0 1", "0 1 5", "-2 0 1", "0 1 2 3", "0 x 1"]))
        at = data.draw(st.integers(0, len(good)))
        lines = ["# shape", "3 5", *good[:at], bad, *good[at:]]
        with pytest.raises(EdgeListParseError) as info:
            parse(("\n".join(lines) + "\n").encode())
        assert info.value.line == at + 3

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, newline):
        lf = "# shape\n3 5\n\n0 1 2\n   \n1 3 4\n"
        assert parse(lf.replace("\n", newline).encode()) == parse(lf.encode())
        with pytest.raises(EdgeListParseError, match="line 4: .*repeated vertex"):
            parse(newline.join(["3 5", "0 1 2", "# note", "0 1 1", "1 2 3"]).encode())

    @settings(max_examples=300, deadline=None)
    @given(edge_list_documents())
    def test_parse_agrees_with_the_line_reader(self, data):
        """The whole-document reader returns the graph, or raises the error
        at the line, that the line-at-a-time reader does."""
        assert parse_outcome(parse, data) == parse_outcome(reference_parse, data)

    def test_byte_order_mark_and_crlf(self):
        lf = "# shape\n3 5\n0 1 2\n1 3 4\n"
        bom_crlf = b"\xef\xbb\xbf" + lf.replace("\n", "\r\n").encode()
        assert parse(bom_crlf) == parse(lf.encode())
        assert parse(bom_crlf).edges == ((0, 1, 2), (1, 3, 4))

    def test_bad_byte_after_byte_order_mark_named_at_its_file_offset(self):
        with pytest.raises(UnicodeDecodeError) as info:
            parse(b"\xef\xbb\xbf3 4\n0 1 \xff\n")
        assert info.value.start == 11

    def test_first_bad_line_named_before_a_later_non_integer(self):
        with pytest.raises(EdgeListParseError, match="line 3: repeated vertex") as info:
            parse(b"3 5\n0 1 2\n0 1 1\n1 2 3\n0 x 2\n")
        assert info.value.line == 3

    def test_serialize_parse_identity_on_constructions(self, t6, k4):
        for h in (t6, k4):
            assert parse(serialize(h).encode()) == h

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_shuffled_lines_parse_like_build(self, data):
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 8), label="n")
        candidates = list(itertools.combinations(range(n), r))
        edges = data.draw(
            st.lists(st.sampled_from(candidates), unique=True) if candidates else st.just([]),
            label="edges",
        )
        lines = [" ".join(map(str, data.draw(st.permutations(e)))) for e in edges]
        lines = data.draw(st.permutations(lines), label="lines")
        h = parse("".join(f"{line}\n" for line in [f"{r} {n}", *lines]).encode())
        assert h == Hypergraph.build(r, n, edges)


class TestCommands:
    def test_construct_then_bound(self, tmp_path):
        hg = tmp_path / "t.hg"
        out = tmp_path / "report.json"
        assert run(
            ["construct", "--family", "turan", "--n", "6", "--l", "3",
             "--r", "3", "--out", str(hg)]
        ) == EXIT_OK
        assert run(
            ["bound", "--input", str(hg), "--family", "cancellative",
             "--out", str(out)]
        ) == EXIT_OK
        report = load_report(out)
        result = report["results"][0]
        assert result["tight"] is True
        assert abs(result["slack"]) <= 1e-9
        assert report["input_digest"]

    def test_check_free_and_not_free(self, tmp_path):
        hg = write_turan(tmp_path / "t.hg")
        out = tmp_path / "r.json"
        assert run(["check", "--input", hg, "--family", "expansion",
                    "--l", "3", "--out", str(out)]) == EXIT_OK
        assert load_report(out)["results"][0]["free"] is True

        k4 = tmp_path / "k4.hg"
        k4.write_text("3 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
        assert run(["check", "--input", str(k4), "--family", "cancellative",
                    "--out", str(out)]) == EXIT_CHECK_FAILED
        result = load_report(out)["results"][0]
        assert result["free"] is False and result["witness"] is not None

    def test_shadow(self, tmp_path):
        hg = write_turan(tmp_path / "t.hg")
        out = tmp_path / "r.json"
        assert run(["shadow", "--input", hg, "--out", str(out)]) == EXIT_OK
        assert load_report(out)["results"][0]["size"] == 12

    def test_lemmas(self, tmp_path):
        hg = write_turan(tmp_path / "t.hg")
        out = tmp_path / "r.json"
        assert run(["lemmas", "--input", hg, "--family", "cancellative",
                    "--out", str(out)]) == EXIT_OK
        result = load_report(out)["results"][0]
        assert result["all_hold"] is True
        assert len(result["items"]) == 4

    def test_enumerate_with_bound_sweep(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["enumerate", "--n", "5", "--r", "3", "--family",
                    "expansion", "--l", "3", "--verify-bound", "thm6",
                    "--out", str(out)])
        assert code == EXIT_OK
        results = load_report(out)["results"]
        assert results[0]["max_edges"] == 4
        assert results[1]["violations"] == []

    @pytest.mark.parametrize("engine, visited", [("naive", 141), ("orderly", 7)])
    def test_verify_bound_walks_the_labelled_graphs_once(
            self, engine, visited, tmp_path, monkeypatch):
        walks = []
        labelled_walk = extremal._iter_free_edge_sets

        def counted(*args, **kwargs):
            walks.append(args)
            return labelled_walk(*args, **kwargs)

        monkeypatch.setattr(extremal, "_iter_free_edge_sets", counted)
        out = tmp_path / "r.json"
        assert run(["enumerate", "--n", "5", "--r", "3", "--family", "expansion",
                    "--l", "3", "--engine", engine, "--verify-bound", "thm6",
                    "--out", str(out)]) == EXIT_OK
        assert len(walks) == 1
        enum, swept = load_report(out)["results"]
        assert (enum["engine"], enum["visited"], swept["visited"]) == (engine, visited, 141)
        assert "enumeration" not in swept

    def test_extremal(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["extremal", "--n", "5", "--r", "3", "--family",
                    "cancellative", "--out", str(out)]) == EXIT_OK
        assert load_report(out)["results"][0]["max_edges"] == 4

    def test_stability(self, tmp_path):
        hg = write_turan(tmp_path / "t.hg")
        out = tmp_path / "r.json"
        assert run(["stability", "--input", hg, "--family", "cancellative",
                    "--eps", "0.05", "--delta", "0.05",
                    "--out", str(out)]) == EXIT_OK
        result = load_report(out)["results"][0]
        assert result["passed"] is True and result["status"] == "ok"

    def test_fraction_serialization(self, tmp_path):
        hg = write_turan(tmp_path / "t.hg")
        out = tmp_path / "r.json"
        run(["stability", "--input", hg, "--family", "expansion", "--l", "3",
             "--eps", "0.05", "--delta", "0.05", "--out", str(out)])
        text = out.read_text()
        assert json.loads(text)  # valid JSON: z is reported as a float


class TestExitCodes:
    def test_usage_error_on_bad_flags(self):
        assert run(["bound", "--family", "cancellative"]) == EXIT_USAGE
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_usage_error_on_missing_file(self, tmp_path):
        assert run(["bound", "--input", str(tmp_path / "nope.hg"),
                    "--family", "kk"]) == EXIT_USAGE

    def test_usage_error_on_parse_error(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("3 4\n0 1 1\n")
        assert run(["shadow", "--input", str(bad)]) == EXIT_USAGE

    def test_budget_exceeded(self):
        assert run(["enumerate", "--n", "8", "--r", "3",
                    "--family", "cancellative"]) == EXIT_BUDGET

    @pytest.mark.parametrize("command", ["check", "bound", "lemmas"])
    def test_expansion_requires_l(self, command, tmp_path, capsys):
        hg = write_turan(tmp_path / "t.hg")
        assert run([command, "--input", hg, "--family", "expansion"]) == EXIT_USAGE
        assert "requires --l" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        "not json",
        "[1,2]",
        '{"command": ["check", "--bogus"]}',
        '{"results": []}',
        '{"command": []}',
        '{"command": "bound"}',
        '{"command": ["bound", 3]}',
        '{"command": ["revalidate", "--report", "r.json"]}',
    ], ids=["not-json", "not-an-object", "unparsable-command", "no-command",
            "empty-command", "string-command", "non-string-argument",
            "revalidate-command"])
    def test_revalidate_malformed_report(self, document, tmp_path):
        report = tmp_path / "r.json"
        report.write_text(document)
        assert run(["revalidate", "--report", str(report)]) == EXIT_USAGE

    def test_usage_error_on_directory_input(self, tmp_path):
        assert run(["check", "--input", str(tmp_path),
                    "--family", "cancellative"]) == EXIT_USAGE

    def test_usage_error_on_non_utf8_input(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_bytes(b"3 4\n0 1 \xff\n")
        assert run(["check", "--input", str(bad),
                    "--family", "cancellative"]) == EXIT_USAGE

    def test_non_utf8_byte_named_at_its_file_offset(self, tmp_path, capsys):
        # Past the first 8 KiB, where the line decoder starts a new chunk.
        good = serialize(complete(30, 3)).encode()
        bad = tmp_path / "bad.hg"
        bad.write_bytes(good[:9000] + b"\xff" + good[9000:])
        assert run(["check", "--input", str(bad),
                    "--family", "cancellative"]) == EXIT_USAGE
        assert "position 9000" in capsys.readouterr().err

    def test_document_decoded_before_any_line(self, tmp_path, capsys):
        # A bad edge on line 2 and a bad byte past the first 8 KiB: the
        # whole document is decoded first, so the byte is reported.
        lines = serialize(complete(30, 3)).encode().split(b"\n")
        lines[1] = b"0 0 1"
        good = b"\n".join(lines)
        bad = tmp_path / "bad.hg"
        bad.write_bytes(good[:9000] + b"\xff" + good[9000:])
        assert run(["check", "--input", str(bad),
                    "--family", "cancellative"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "position 9000" in err and "line 2" not in err

    @pytest.mark.parametrize("flags", [
        ["--family", "turan", "--n", "6", "--r", "3"],
        ["--family", "complete", "--n", "6"],
        ["--family", "turan_padded", "--n", "6", "--l", "3", "--r", "3"],
        ["--family", "expansion", "--l", "3"],
    ])
    def test_construct_missing_flag(self, flags, capsys):
        assert run(["construct", *flags]) == EXIT_USAGE
        assert "requires --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "--input", "{hg}/x", "--family", "cancellative"],
        ["bound", "--input", "{hg}", "--family", "kk", "--out", "{hg}/r.json"],
        ["construct", "--family", "fano", "--out", "{hg}/f.hg"],
        ["enumerate", "--n", "-1", "--r", "3"],
        ["extremal", "--n", "-1", "--r", "3", "--family", "cancellative"],
        ["enumerate", "--n", "3", "--r", "0"],
        ["enumerate", "--n", "5", "--r", "1", "--family", "cancellative",
         "--verify-bound", "thm3"],
        ["enumerate", "--n", "5", "--r", "1", "--family", "cancellative",
         "--verify-bound", "thm6", "--l", "1"],
        ["stability", "--input", "{hg}", "--family", "cancellative",
         "--eps", "-1", "--delta", "0.05"],
        ["stability", "--input", "{hg}", "--family", "cancellative",
         "--eps", "0.05", "--delta", "nan"],
        ["stability", "--input", "{hg}", "--family", "cancellative",
         "--eps", "0.05", "--delta", "-1"],
        ["stability", "--input", "{hg}", "--family", "cancellative",
         "--eps", "nan", "--delta", "0.05"],
        ["stability", "--input", "{hg}", "--family", "cancellative",
         "--eps", "0.05", "--delta", "0.05", "--cap", "5"],
    ], ids=["input-below-a-file", "out-below-a-file", "construct-out-below-a-file",
            "enumerate-negative-n", "extremal-negative-n", "enumerate-r-0",
            "thm3-at-r-1", "thm6-at-r-1", "negative-eps", "nan-delta",
            "negative-delta", "nan-eps", "no-cap-flag"])
    def test_usage_error(self, argv, tmp_path, capsys):
        hg = write_turan(tmp_path / "t.hg")
        assert run([arg.format(hg=hg) for arg in argv]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    def test_bound_sweep_violation_fails(self, tmp_path):
        # thm3 over every 3-graph on 4 vertices: K_4^3 beats the bound.
        out = tmp_path / "r.json"
        assert run(["enumerate", "--n", "4", "--r", "3", "--verify-bound",
                    "thm3", "--out", str(out)]) == EXIT_CHECK_FAILED
        assert len(load_report(out)["results"][1]["violations"]) == 5

    def test_certificate_failure_fails(self, tmp_path):
        # 15 cancellative edges on 8 vertices: the fit removes 3 edges
        # against a cap of 0.001 x^3 = 0.465.
        hg = tmp_path / "h.hg"
        hg.write_text(serialize(random_free_graph(8, 3, Cancellative(), 2)))
        out = tmp_path / "r.json"
        assert run(["stability", "--input", str(hg), "--family", "cancellative",
                    "--eps", "0.2", "--delta", "0.001",
                    "--out", str(out)]) == EXIT_CHECK_FAILED
        result = load_report(out)["results"][0]
        assert result["status"] == "removed-exceeds-cap"
        assert result["fit"]["removed"] == 3


# Inputs for the argv fuzz: a free 3-graph, a non-free one, r = 1, 2 and 4,
# and an edgeless graph.
FUZZ_INPUTS = {
    "t6": serialize(turan(6, 3, 3)[0]),
    "k4": serialize(complete(4, 3)),
    "r1": "1 3\n0\n2\n",
    "r2": "2 4\n0 1\n1 2\n2 3\n",
    "r4": serialize(turan(8, 4, 4)[0]),
    "empty": "3 5\n",
}

_small = st.integers(-1, 5).map(str)
_real = st.sampled_from(["-1", "0", "0.05", "0.5", "1", "2", "nan", "inf"])


def _flags(**strategies):
    """Each flag absent or given a drawn value."""
    return st.fixed_dictionaries({}, optional=strategies)


_input = st.sampled_from(sorted(FUZZ_INPUTS))
_fuzz_argv = st.one_of(
    st.tuples(st.just("construct"), _flags(
        family=st.sampled_from(["complete", "turan", "turan_padded", "expansion", "fano"]),
        n=_small, m=_small, l=_small, r=_small)),
    st.tuples(st.just("shadow"), _flags(input=_input, i=_small)),
    *(
        st.tuples(st.just(command), _flags(
            input=_input, family=st.sampled_from(families), l=_small))
        for command, families in [
            ("check", ["cancellative", "expansion"]),
            ("bound", ["kk", "cancellative", "expansion"]),
            ("lemmas", ["cancellative", "expansion"]),
        ]
    ),
    st.tuples(st.just("enumerate"), _flags(
        n=_small, r=_small, l=_small,
        family=st.sampled_from(["cancellative", "expansion", "none"]),
        engine=st.sampled_from(["naive", "orderly"]),
        **{"verify-bound": st.sampled_from(["thm1", "thm3", "thm6"])})),
    st.tuples(st.just("extremal"), _flags(
        n=_small, r=_small, l=_small,
        family=st.sampled_from(["cancellative", "expansion"]))),
    st.tuples(st.just("stability"), _flags(
        input=_input, family=st.sampled_from(["cancellative", "expansion"]),
        l=_small, eps=_real, delta=_real,
        mode=st.sampled_from(["exact", "heuristic"]))),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_INPUTS.items():
        (root / f"{name}.hg").write_text(text)
    return root


@settings(max_examples=400, deadline=None)
@given(_fuzz_argv)
def test_argv_fuzz_keeps_the_exit_code_contract(fuzz_dir, case):
    """Every subcommand, on small flag values and inputs, returns a code of
    the contract without raising, and exit 1 comes with a written report."""
    command, flags = case
    out = fuzz_dir / "out"
    out.unlink(missing_ok=True)
    argv = [command]
    for name, value in flags.items():
        if name == "input":
            value = str(fuzz_dir / f"{value}.hg")
        argv += [f"--{name}", value]
    argv += ["--out", str(out)]
    code = run(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_BUDGET), argv
    if code == EXIT_CHECK_FAILED:
        assert json.loads(out.read_text())["results"], argv


@pytest.mark.parametrize("argv, code", [
    (["bound", "--input", "{t6}", "--family", "cancellative"], EXIT_OK),
    (["check", "--input", "{k4}", "--family", "cancellative"], EXIT_CHECK_FAILED),
    (["check", "--input", "{missing}", "--family", "cancellative"], EXIT_USAGE),
    (["enumerate", "--n", "9", "--r", "3", "--engine", "orderly"], EXIT_BUDGET),
], ids=["tight-turan-bound", "k4-not-cancellative", "missing-input", "orderly-budget"])
def test_module_entry_point_exit_codes(argv, code, tmp_path):
    """`python -m shadowlab.cli` passes the exit code of `run` to the shell."""
    paths = {"t6": tmp_path / "t6.hg", "k4": tmp_path / "k4.hg",
             "missing": tmp_path / "missing.hg"}
    paths["t6"].write_text(FUZZ_INPUTS["t6"])
    paths["k4"].write_text(FUZZ_INPUTS["k4"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "shadowlab.cli", *(a.format(**paths) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_module_entry_point_reads_a_pipe():
    """An edge list on a pipe is read once: parsed and hashed from the same
    bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    text = FUZZ_INPUTS["t6"]
    proc = subprocess.run(
        [sys.executable, "-m", "shadowlab.cli", "check", "--input", "/dev/stdin",
         "--family", "cancellative"],
        input=text, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["input_digest"] == hashlib.sha256(text.encode()).hexdigest()
    assert report["results"][0]["free"]


class TestDeterminismAndRevalidate:
    def test_reports_identical_modulo_runtime(self, tmp_path):
        hg = write_turan(tmp_path / "t.hg")
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(["bound", "--input", hg, "--family", "cancellative",
                 "--out", str(out)])
            report = load_report(out)
            report.pop("runtime_ms")
            report["command"].remove(str(out))  # only the report path differs
            reports.append(report)
        assert reports[0] == reports[1]

    def test_revalidate_identical(self, tmp_path, capsys):
        hg = write_turan(tmp_path / "t.hg")
        out = tmp_path / "r.json"
        run(["bound", "--input", hg, "--family", "cancellative",
             "--out", str(out)])
        assert run(["revalidate", "--report", str(out)]) == EXIT_OK
        assert "identical" in capsys.readouterr().out

    def test_revalidate_detects_tampering(self, tmp_path, capsys):
        hg = write_turan(tmp_path / "t.hg")
        out = tmp_path / "r.json"
        run(["bound", "--input", hg, "--family", "cancellative",
             "--out", str(out)])
        report = load_report(out)
        report["results"][0]["actual"] = 99
        out.write_text(json.dumps(report))
        assert run(["revalidate", "--report", str(out)]) == EXIT_CHECK_FAILED
