"""Command-line surface: edge-list parsing, JSON reports, exit codes.

Exit code contract (stable API): 0 all checks passed, 1 a verified
inequality or certificate failed, 2 usage or parse error, 3 resource budget
exceeded. A report is written on exits 0 and 1.

Edge-list files are 0-based even though the literature writes [n] 1-based;
conversion is the parser's job.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from itertools import islice, repeat
from operator import contains
from typing import Any, Optional

from . import __version__
from .bounds import bound_report_for, lemma14_check, lemma9_check
from .constructions import clique_expansion_graph, complete, fano, turan, turan_padded
from .errors import (
    EdgeError,
    EdgeListParseError,
    ParameterError,
    ResourceBudgetError,
    ShadowlabError,
)
from .extremal import enumerate_free, extremal_search, verify_bound_over_enumeration
from .forbidden import Cancellative, Expansion, violation
from .hypercore import Hypergraph, shadow_i
from .stability import stability_certificate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def parse(data: bytes) -> Hypergraph:
    """Parse a UTF-8 edge-list document: header 'r n', one edge per line.

    The whole document is decoded first, so a bad byte anywhere is named at
    its file offset before any line is read; a leading byte-order mark is
    dropped. Lines end at LF, CRLF or CR and nowhere else: form feeds and
    the other Unicode breaks are whitespace inside a line. Blank lines and
    lines starting with '#' are skipped.

    Every other line becomes a tuple of its tokens' values, each token read
    once through a memo of `int` (`_IntOf`) that maps a non-integer token
    to None. `Hypergraph.build` gets the edge lines before the first line
    with a non-integer token, all at once, and names its first bad edge by
    index; if it accepts them, that line is the error. So the error is
    always the first bad line's, as a line-by-line reader would find it,
    and line numbers are counted only once an error is raised."""
    text = data.decode("utf-8").removeprefix("\ufeff")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if "#" in text:
        lines = ["" if line.lstrip().startswith("#") else line for line in lines]
    value = _IntOf()
    rows = map(map, repeat(value.__getitem__), map(str.split, lines))
    rows = list(filter(None, map(tuple, rows)))
    if not rows:
        raise EdgeListParseError(1, "missing 'r n' header")
    # rows[word] is the first row with a non-integer token, if any is.
    word = len(rows)
    if None in value.values():
        word = bytes(map(contains, rows, repeat(None))).find(1)
    header = rows[0]
    if word == 0:
        bad, message = 0, None
    elif len(header) != 2:
        bad, message = 0, "header must be exactly 'r n'"
    else:
        try:
            h = Hypergraph.build(header[0], header[1], rows[1:word])
        except EdgeError as exc:
            bad, message = exc.index + 1, str(exc)
        except ParameterError as exc:
            bad, message = 0, str(exc)
        else:
            if word == len(rows):
                return h
            bad, message = word, None
    at, line = next(islice(
        ((at, line.strip()) for at, line in enumerate(lines, 1) if line.split()), bad, None))
    raise EdgeListParseError(at, message or f"non-integer token in {line!r}")


class _IntOf(dict):
    """int(token), or None for a non-integer token, memoized: an edge list
    repeats a few distinct tokens."""

    def __missing__(self, token: str) -> Optional[int]:
        try:
            value = int(token)
        except ValueError:
            value = None
        self[token] = value
        return value


def serialize(h: Hypergraph) -> str:
    edge = " ".join(["%d"] * h.r) + "\n"
    return f"{h.r} {h.n}\n" + "".join(map(edge.__mod__, h.edges))


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, bytes):
        return value.decode("ascii")
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _family(name: str, ell: Optional[int], r: int):
    """The family a --family flag names; `kk` (a bound over every r-graph)
    and `none` (enumerate every r-graph) name no forbidden family."""
    if name in ("kk", "none"):
        return None
    if name == "cancellative":
        return Cancellative()
    if name == "expansion":
        if ell is None:
            raise ParameterError("--family expansion requires --l")
        if ell < r:
            raise ParameterError(f"--l must be >= r={r}, got {ell}")
        return Expansion(ell)
    raise ParameterError(f"unknown family {name!r}")


def _read_input(path: str) -> tuple[Hypergraph, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse(data), hashlib.sha256(data).hexdigest()


def _write_report(args, command: list[str], digest: Optional[str], results: list, t0: float) -> None:
    report = {
        "tool_version": __version__,
        "command": command,
        "input_digest": digest,
        "results": _jsonable(results),
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each construct family: the flags it requires, and its builder, which
# takes their values in that order.
_CONSTRUCTIONS = {
    "complete": (("n", "r"), complete),
    "turan": (("n", "l", "r"), lambda n, ell, r: turan(n, ell, r)[0]),
    "turan_padded": (("n", "m", "l", "r"), turan_padded),
    "expansion": (("l", "r"), clique_expansion_graph),
    "fano": ((), fano),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shadowlab")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="report output path (default: stdout)")

    p = sub.add_parser("construct", help="write a named hypergraph as an edge list")
    p.add_argument("--family", required=True, choices=list(_CONSTRUCTIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--out", help="edge-list output path (default: stdout)")

    p = sub.add_parser("shadow", help="compute the i-th shadow")
    p.add_argument("--input", required=True)
    p.add_argument("--i", type=int, default=1)
    common(p)

    p = sub.add_parser("check", help="freeness check with witness")
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True, choices=["cancellative", "expansion"])
    p.add_argument("--l", type=int)
    common(p)

    p = sub.add_parser("bound", help="evaluate a shadow bound")
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True, choices=["kk", "cancellative", "expansion"])
    p.add_argument("--l", type=int)
    common(p)

    p = sub.add_parser("lemmas", help="run the inequality batteries")
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True, choices=["cancellative", "expansion"])
    p.add_argument("--l", type=int)
    common(p)

    p = sub.add_parser("enumerate", help="enumerate free graphs, optionally verifying a bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--family", default="none", choices=["cancellative", "expansion", "none"])
    p.add_argument("--l", type=int)
    p.add_argument("--engine", default="naive", choices=["naive", "orderly"])
    p.add_argument("--verify-bound", choices=["thm1", "thm3", "thm6"])
    common(p)

    p = sub.add_parser("extremal", help="exact extremal number with extremal classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--family", required=True, choices=["cancellative", "expansion"])
    p.add_argument("--l", type=int)
    common(p)

    p = sub.add_parser("stability", help="per-instance stability certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True, choices=["cancellative", "expansion"])
    p.add_argument("--l", type=int)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", default="exact", choices=["exact", "heuristic"])
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("revalidate", help="recompute a report's payloads and diff")
    p.add_argument("--report", required=True)
    common(p)

    return parser


def _cmd_construct(args) -> tuple[int, Optional[str], list]:
    flags, builder = _CONSTRUCTIONS[args.family]
    missing = [f"--{k}" for k in flags if getattr(args, k) is None]
    if missing:
        raise ParameterError(f"--family {args.family} requires {' '.join(missing)}")
    h = builder(*(getattr(args, k) for k in flags))
    text = serialize(h)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK, None, []


def _cmd_shadow(args) -> tuple[int, Optional[str], list]:
    h, digest = _read_input(args.input)
    sh = shadow_i(h, args.i)
    payload = {
        "type": "shadow", "i": args.i, "r": sh.r, "n": sh.n,
        "size": len(sh), "edges": [list(e) for e in sh.edges],
    }
    return EXIT_OK, digest, [payload]


def _cmd_check(args) -> tuple[int, Optional[str], list]:
    h, digest = _read_input(args.input)
    fam = _family(args.family, args.l, h.r)
    w = violation(h, fam)
    payload = {"type": "freeness", "family": str(fam), "free": w is None,
               "witness": _jsonable(w) if w is not None else None}
    return (EXIT_OK if w is None else EXIT_CHECK_FAILED), digest, [payload]


def _cmd_bound(args) -> tuple[int, Optional[str], list]:
    h, digest = _read_input(args.input)
    report = bound_report_for(h, _family(args.family, args.l, h.r))
    payload = {"type": "bound", "kind": args.family, **_jsonable(report)}
    return (EXIT_OK if report.holds else EXIT_CHECK_FAILED), digest, [payload]


def _cmd_lemmas(args) -> tuple[int, Optional[str], list]:
    h, digest = _read_input(args.input)
    fam = _family(args.family, args.l, h.r)
    report = lemma9_check(h) if isinstance(fam, Cancellative) else lemma14_check(h, fam.ell)
    payload = {"type": "inequalities", "family": args.family,
               "all_hold": report.all_hold, **_jsonable(report)}
    return (EXIT_OK if report.all_hold else EXIT_CHECK_FAILED), digest, [payload]


def _cmd_enumerate(args) -> tuple[int, Optional[str], list]:
    """The sweep runs first, so a bad bound or the naive budget fails before
    any enumeration; its walk is the naive engine's, so its stats stand in
    for a second walk."""
    fam = _family(args.family, args.l, args.r)
    if not args.verify_bound:
        stats = enumerate_free(args.n, args.r, fam, engine=args.engine)
        return EXIT_OK, None, [{"type": "enumeration", **_jsonable(stats)}]
    sweep = verify_bound_over_enumeration(
        args.n, args.r, fam, args.verify_bound, args.l
    )
    swept = _jsonable(sweep)
    stats = swept.pop("enumeration")
    if args.engine != "naive":
        stats = _jsonable(enumerate_free(args.n, args.r, fam, engine=args.engine))
    code = EXIT_CHECK_FAILED if sweep.violations else EXIT_OK
    return code, None, [{"type": "enumeration", **stats}, {"type": "bound-sweep", **swept}]


def _cmd_extremal(args) -> tuple[int, Optional[str], list]:
    fam = _family(args.family, args.l, args.r)
    result = extremal_search(args.n, args.r, fam)
    payload = _jsonable(result)
    payload.pop("example", None)
    return EXIT_OK, None, [{"type": "extremal", **payload}]


def _cmd_stability(args) -> tuple[int, Optional[str], list]:
    h, digest = _read_input(args.input)
    fam = _family(args.family, args.l, h.r)
    cert = stability_certificate(
        h, fam, args.eps, args.delta, mode=args.mode, seed=args.seed
    )
    payload = {"type": "certificate", "passed": cert.passed, **_jsonable(cert)}
    if cert.hypothesis_met and not cert.passed:
        return EXIT_CHECK_FAILED, digest, [payload]
    return EXIT_OK, digest, [payload]


_HANDLERS = {
    "construct": _cmd_construct,
    "shadow": _cmd_shadow,
    "check": _cmd_check,
    "bound": _cmd_bound,
    "lemmas": _cmd_lemmas,
    "enumerate": _cmd_enumerate,
    "extremal": _cmd_extremal,
    "stability": _cmd_stability,
}


def _cmd_revalidate(args) -> int:
    with open(args.report) as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"report {args.report} is not JSON: {exc}")
    command = report.get("command") if isinstance(report, dict) else None
    if (not isinstance(command, list) or not command
            or not all(isinstance(arg, str) for arg in command)
            or command[0] == "revalidate"):
        raise ParameterError("report does not carry a re-runnable command")
    try:
        rerun_args = _build_parser().parse_args(command)
    except SystemExit:
        raise ParameterError(f"recorded command {command} does not parse")
    rerun_args.out = None
    _, _, results = _HANDLERS[rerun_args.subcommand](rerun_args)
    fresh = _jsonable(results)
    if fresh == report.get("results"):
        sys.stdout.write(json.dumps({"revalidate": "identical"}) + "\n")
        return EXIT_OK
    sys.stdout.write(json.dumps(
        {"revalidate": "diff", "recomputed": fresh, "recorded": report.get("results")},
        sort_keys=True, indent=2) + "\n")
    return EXIT_CHECK_FAILED


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    t0 = time.monotonic()
    try:
        if args.subcommand == "revalidate":
            return _cmd_revalidate(args)
        code, digest, results = _HANDLERS[args.subcommand](args)
        if args.subcommand != "construct":
            _write_report(args, argv, digest, results, t0)
        return code
    except ResourceBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (ShadowlabError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
