"""CLI surface: edge-list format, reports, exit codes, revalidation."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import Hypergraph, turan
from shadowlab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    parse,
    run,
    serialize,
)
from shadowlab.errors import EdgeListParseError


def write_turan(path):
    path.write_text(serialize(turan(6, 3, 3)[0]))
    return str(path)


def load_report(path):
    return json.loads(path.read_text())


class TestEdgeListFormat:
    def test_round_trip(self):
        text = "3 4\n0 1 2\n0 1 3\n"
        h = parse(text)
        assert len(h) == 2
        assert serialize(h) == text

    def test_comments_and_blanks_ignored(self):
        h = parse("# header next\n\n3 4\n# an edge\n0 1 2\n")
        assert h.edges == ((0, 1, 2),)

    def test_repeated_vertex(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse("3 4\n0 1 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse("3 4\n0 1 5\n")

    def test_duplicate_edge(self):
        with pytest.raises(EdgeListParseError, match="duplicate"):
            parse("3 4\n0 1 2\n2 1 0\n")

    def test_bad_arity(self):
        with pytest.raises(EdgeListParseError, match="expected 3"):
            parse("3 4\n0 1\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListParseError, match="non-integer"):
            parse("3 4\n0 one 2\n")

    def test_missing_header(self):
        with pytest.raises(EdgeListParseError, match="header"):
            parse("# nothing but comments\n")

    def test_serialize_parse_identity_on_constructions(self, t6, k4):
        for h in (t6, k4):
            assert parse(serialize(h)) == h

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
        h = parse("".join(f"{line}\n" for line in [f"{r} {n}", *lines]))
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
        assert json.loads(text)  # valid JSON despite rationals inside


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

    @pytest.mark.parametrize("flags", [
        ["--family", "turan", "--n", "6", "--r", "3"],
        ["--family", "complete", "--n", "6"],
        ["--family", "turan_padded", "--n", "6", "--l", "3", "--r", "3"],
        ["--family", "expansion", "--l", "3"],
    ])
    def test_construct_missing_flag(self, flags, capsys):
        assert run(["construct", *flags]) == EXIT_USAGE
        assert "requires --" in capsys.readouterr().err


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
