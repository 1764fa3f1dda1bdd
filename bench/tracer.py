"""Spans and counters for the benchmark's traced run.

The library is traced from the outside: each hook replaces one callable at
the attribute its callers look up (a module global such as
`oracle.map_necklace`, or a class attribute such as
`ExtensionField.mul`), and `Hooks.uninstall` puts the original back.
Nothing under src/ changes, and an untraced run executes the original
objects, which `Hooks.assert_originals` checks.

Spans nest on a single thread, so a span's direct children never overlap
and its self time is its duration minus the sum of theirs.  Spans are
aggregated as they close, keyed by (name, parent name), which keeps memory
flat over runs with millions of calls.
"""

from __future__ import annotations

import time

from necklacemap import automorphism, bijection, cli, decomposition, dlog, fields, oracle

_MARK = "__bench_hook__"


class Tracer:
    """Aggregated span times and counts for one phase of a traced run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []  # open spans: [name, start, seconds covered by children]
        self.spans = {}  # (name, parent name or None) -> [calls, total s, self s]
        self.counts = {}
        self.supports = set()

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        rec = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - covered

    def add(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _sum(self, name, parent, field):
        return sum(
            rec[field]
            for (span, par), rec in self.spans.items()
            if span == name and (parent is None or par == parent)
        )

    def calls(self, name: str, parent: str | None = None) -> int:
        """Calls of `name`; only those made directly from `parent` if given."""
        return self._sum(name, parent, 0)

    def total_s(self, name: str, parent: str | None = None) -> float:
        """Inclusive seconds of `name`; only calls made from `parent` if given."""
        return self._sum(name, parent, 1)

    def self_s(self, name: str) -> float:
        """Seconds inside `name` not covered by any of its child spans."""
        return self._sum(name, None, 2)


def _span_hook(tracer: Tracer, name: str, fn, note=None):
    def hook(*args, **kwargs):
        tracer.enter(name)
        try:
            if note is not None:
                note(tracer, args)
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    setattr(hook, _MARK, name)
    return hook


def _count_hook(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    counts.setdefault(name, 0)

    def hook(*args):
        counts[name] += 1
        return fn(*args)

    setattr(hook, _MARK, name)
    return hook


def _note_support(tracer: Tracer, args) -> None:
    table, support = args[0], args[1]
    tracer.supports.add((table, tuple(tuple(sorted(set(s))) for s in support)))


def _note_words(tracer: Tracer, args) -> None:
    n, q = args[0], args[1]
    tracer.add("oracle.words_enumerated", q**n)


# (owner, attribute, span name, traced during set-up).  One callable gets one
# entry per lookup site that the workloads reach.
SPANS = [
    (decomposition, "build_tables", "decomposition.build_tables", True),
    (oracle, "build_tables", "decomposition.build_tables", True),
    (cli, "build_tables", "decomposition.build_tables", True),
    (decomposition, "build_field", "fields.build_field", True),
    (decomposition, "cyclotomic_cosets", "decomposition.cyclotomic_cosets", True),
    (decomposition, "factor_xn_minus_1", "decomposition.factor_xn_minus_1", True),
    (fields.QuotientFieldCtx, "__init__", "fields.QuotientFieldCtx", True),
    (fields.QuotientFieldCtx, "dlog", "fields.dlog", False),
    (fields.ExtensionField, "pow", "fields.pow", False),
    (dlog, "crt_split", "decomposition.crt_split", False),
    (bijection, "crt_combine", "decomposition.crt_combine", False),
    (bijection, "orbit_canonical", "decomposition.orbit_canonical", False),
    (oracle, "orbit_canonical", "decomposition.orbit_canonical", False),
    (bijection, "profile", "dlog.profile", False),
    (oracle, "profile", "dlog.profile", False),
    (automorphism.AutomorphismTable, "for_support", "automorphism.for_support", False),
    (bijection, "map_necklace", "bijection.map_necklace", False),
    (oracle, "map_necklace", "bijection.map_necklace", False),
    (bijection, "encode_word", "bijection.encode_word", False),
    (bijection, "unmap_function", "bijection.unmap_function", False),
    (oracle, "unmap_function", "bijection.unmap_function", False),
    (oracle, "function_support", "bijection.function_support", False),
    (oracle, "enum_necklaces", "oracle.enum_necklaces", False),
    (oracle, "enum_functions", "oracle.enum_functions", False),
    (oracle, "_shift_lemma_holds", "oracle.shift_lemma", False),
    (oracle, "stratum_count", "counting.stratum_count", False),
    (cli, "verify_bijection", "oracle.verify_bijection", False),
    (cli, "main", "cli.main", False),
]
COUNTS = [(fields.ExtensionField, "mul", "fields.mul")]
NOTES = {
    "automorphism.for_support": _note_support,
    "oracle.enum_necklaces": _note_words,
    "oracle.enum_functions": _note_words,
}


class Hooks:
    """Installs and removes the tracing hooks; remembers the originals."""

    def __init__(self):
        self.originals = {
            (owner, attr): vars(owner)[attr]
            for owner, attr, *_ in SPANS + COUNTS
        }
        for (owner, attr), fn in self.originals.items():
            if hasattr(fn, _MARK):
                raise RuntimeError(f"{owner.__name__}.{attr} is already hooked")

    def install(self, tracer: Tracer, setup_only: bool = False) -> None:
        for owner, attr, name, in_setup in SPANS:
            if in_setup or not setup_only:
                fn = self.originals[(owner, attr)]
                setattr(owner, attr, _span_hook(tracer, name, fn, NOTES.get(name)))
        if not setup_only:
            for owner, attr, name in COUNTS:
                setattr(owner, attr, _count_hook(tracer, name, self.originals[(owner, attr)]))

    def uninstall(self) -> None:
        for (owner, attr), fn in self.originals.items():
            setattr(owner, attr, fn)

    def assert_originals(self) -> None:
        """Raise unless every hooked attribute holds its original object."""
        for (owner, attr), fn in self.originals.items():
            if vars(owner)[attr] is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is still hooked")
