"""Outside-in tracing of the shadowlab layers.

`Tracer.install` wraps the public functions of every shadowlab module by
replacing module attributes, so calls between modules (for example
`stability.violation` or `extremal.canonical_form`) pass through the
wrappers too, and it wraps `Hypergraph.build` and the methods of
`IncrementalFreeChecker`. No file of the program is changed.

Each wrapped call is a span with a parent. Self time is the span's duration
minus the time covered by its child spans; it is accumulated per span name
as the span closes, so millions of checker calls cost no memory. The first
`SPAN_CAP` spans of a pass are also kept whole (id, parent id, job, name,
start, end) for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("hypercore", "constructions", "forbidden", "bounds", "extremal", "stability", "cli")

# Bit-twiddling helper called inside the checker's inner loops; a span per
# call would cost more than the call and say nothing about a layer.
UNWRAPPED = {"hypercore.mask_to_tuple"}

SPAN_CAP = 50_000

CHECKER_METHODS = ("__init__", "would_violate", "push", "pop")

CLI_SUBCOMMANDS = (
    "construct", "shadow", "check", "bound", "lemmas",
    "enumerate", "extremal", "stability", "revalidate",
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []         # open spans: [id, child_s]
        self._next_id = 1
        self._job = -1

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[list, float]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, frame: list, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[1]
        if len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((frame[0], parent, self._job, name, start, end))

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def job(self, index: int, thunk):
        """Run one job as a root span, with recording on only inside it."""
        self._job = index
        self.active = True
        frame, start = self._open()
        try:
            return thunk()
        finally:
            self._close("bench.job", frame, start)
            self.active = False

    def wrap(self, name, fn, namer=None, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = namer(args, kwargs) if namer else name
            frame, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, frame, start)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions, everywhere they are bound."""
        package = importlib.import_module("shadowlab")
        modules = {m: importlib.import_module(f"shadowlab.{m}") for m in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                namer, observe = _SPECIAL.get(name, (None, None))
                replacements[id(fn)] = self.wrap(name, fn, namer, observe)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    setattr(module, attr, replacements[id(value)])

        hypergraph = modules["hypercore"].Hypergraph
        build = hypergraph.__dict__["build"].__func__
        hypergraph.build = staticmethod(self.wrap("hypercore.build", build))

        checker = modules["forbidden"].IncrementalFreeChecker
        for method in CHECKER_METHODS:
            observe = _observe_checker if method == "would_violate" else None
            setattr(checker, method, self.wrap(
                f"forbidden.checker.{method}", checker.__dict__[method], observe=observe
            ))

    # -- per-layer metrics ---------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass (times in seconds)."""
        prefixed = lambda prefix: [n for n in self.stats if n.startswith(prefix)]
        checker = [f"forbidden.checker.{m}" for m in CHECKER_METHODS]
        checker_calls = self.calls("forbidden.checker.would_violate")
        rejects = self.counts.get("forbidden.checker.rejects", 0)
        sweep_total = self.stats.get("extremal.verify_bound_over_enumeration", [0, 0.0, 0.0])[1]
        visited = self.counts.get("extremal.sweep.visited", 0)
        out = {
            "forbidden.find_cancellative_violation.s": self.self_s("forbidden.find_cancellative_violation"),
            "forbidden.find_cancellative_violation.calls": self.calls("forbidden.find_cancellative_violation"),
            "forbidden.find_clique_expansion.s": self.self_s("forbidden.find_clique_expansion"),
            "forbidden.checker.s": self.self_s(*checker),
            "forbidden.checker.calls": checker_calls,
            "forbidden.checker.rejects": rejects,
            "forbidden.checker.reject_ratio": rejects / checker_calls if checker_calls else 0.0,
            "stability.certificate.s": self.self_s("stability.stability_certificate"),
            "stability.core_extract.s": self.self_s(
                "stability.core_extract_cancellative", "stability.core_extract_expansion"),
            "stability.partition_fit.exact.s": self.self_s("stability.partition_fit.exact"),
            "stability.partition_fit.heuristic.s": self.self_s("stability.partition_fit.heuristic"),
            "stability.partition_fit.removed": self.counts.get("stability.partition_fit.removed", 0),
            "bounds.report.s": self.self_s(
                "bounds.kk_bound", "bounds.cancellative_report",
                "bounds.expansion_report", "bounds.bound_report_for"),
            "bounds.lemma.s": self.self_s("bounds.lemma9_check", "bounds.lemma14_check"),
            "bounds.eval.calls": self.calls(
                "bounds.falling_binomial", "bounds.solve_binomial_x",
                "bounds.cancellative_bound", "bounds.expansion_bound"),
            "extremal.sweep.s": self.self_s("extremal.verify_bound_over_enumeration"),
            "extremal.sweep.visited": visited,
            "extremal.sweep.visits_per_s": visited / sweep_total if sweep_total else 0.0,
            "extremal.extremal_search.s": self.self_s("extremal.extremal_search"),
            "extremal.random_free_graph.s": self.self_s("extremal.random_free_graph"),
            "extremal.enumerate_free_classes.s": self.self_s("extremal.enumerate_free_classes"),
            "extremal.classes": self.counts.get("extremal.classes", 0),
            "extremal.canonical_form.s": self.self_s("extremal.canonical_form"),
            "extremal.canonical_form.calls": self.calls("extremal.canonical_form"),
            "hypercore.shadow.s": self.self_s("hypercore.shadow", "hypercore.shadow_i"),
            "hypercore.z_value.s": self.self_s("hypercore.z_value"),
            "hypercore.build.s": self.self_s("hypercore.build"),
            "constructions.s": self.self_s(*prefixed("constructions.")),
        }
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.run.{sub}.s"] = self.self_s(f"cli.run.{sub}")
        out["cli.parse.s"] = self.self_s("cli.parse")
        out["cli.report_bytes"] = self.counts.get("cli.report_bytes", 0)
        return out

    def work_counts(self) -> dict[str, int]:
        """Counts that depend only on the workload and seed, never on time."""
        return {
            "calls." + name: st[0] for name, st in sorted(self.stats.items())
        } | dict(sorted(self.counts.items()))


def _observe_checker(tracer: Tracer, result) -> None:
    if result:
        tracer.count("forbidden.checker.rejects")


def _observe_fit(tracer: Tracer, fit) -> None:
    tracer.count("stability.partition_fit.removed", fit.removed)


def _observe_sweep(tracer: Tracer, report) -> None:
    tracer.count("extremal.sweep.visited", report.visited)


def _observe_classes(tracer: Tracer, reps) -> None:
    tracer.count("extremal.classes", len(reps))


def _fit_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "exact")
    return f"stability.partition_fit.{mode}"


def _cli_subcommand(args, kwargs) -> str:
    argv = kwargs.get("argv", args[0] if args else [])
    return f"cli.run.{argv[0]}" if argv else "cli.run"


_SPECIAL = {
    "stability.partition_fit": (_fit_mode, _observe_fit),
    "extremal.verify_bound_over_enumeration": (None, _observe_sweep),
    "extremal.enumerate_free_classes": (None, _observe_classes),
    "cli.run": (_cli_subcommand, None),
}
