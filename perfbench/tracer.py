"""Span tracer for the traced run, installed from the benchmark's own files.

``Tracer.install`` wraps each target function at every dp4 module attribute
that binds it: ``families.spectral_form`` and the ``squarefree_profile`` that
``from .binforms import ...`` copied into ``families`` are separate bindings
and get separate wrappers.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, item, binding, attrs]``: ``parent`` is
the index of the enclosing span (or None), ``item`` the id of the benchmark
item it belongs to.  Spans stay in memory and are written once, when the run
ends.  The analysis helpers at the bottom are plain Python, so the
orchestrator can use them without importing dp4.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

from workloads import COLD_COMMANDS, MODEL_NAMES, WORKLOADS

F, Q, C = WORKLOADS

# Functions whose calls become spans ("<module>.<function>" in dp4), each with
# the bindings ("<module>.<attribute>") that must record calls on a workload;
# the self-test reports a binding that records none.  Targets no per-layer
# metric names only add spans, so that an item's top-level calls are covered.
TARGETS = {
    "families.spectral_form": {F: ("families.spectral_form",)},
    "families.discriminant_family": {
        F: ("families.discriminant_family", "models.discriminant_family"),
    },
    "families.genericity_check": {
        F: ("families.genericity_check", "models.genericity_check"),
    },
    "families.family_report": {F: ("families.family_report",), C: ("cli.family_report",)},
    "linalg.det_minors": {F: ("linalg.det_minors",)},
    "linalg.det": {Q: ("linalg.det",)},
    "linalg.kernel_basis": {Q: ("linalg.kernel_basis",)},
    "linalg.rank_over_field": {Q: ("linalg.rank_over_field",)},
    "binforms.squarefree_profile": {
        F: ("families.squarefree_profile",),
        Q: ("binforms.squarefree_profile", "quintic.squarefree_profile"),
    },
    "binforms.resultant": {Q: ("binforms.resultant", "quintic.resultant")},
    "binforms.discriminant": {Q: ("binforms.discriminant",), C: ("cli.discriminant",)},
    "factor_search.twisted_factor_search": {F: ("families.twisted_factor_search",)},
    "factor_search.uni_irreducible_factors": {
        F: ("families.uni_irreducible_factors",),
        Q: ("pencils.uni_irreducible_factors",),
    },
    "quintic.invariants": {Q: ("quintic.invariants",), C: ("cli.invariants",)},
    "quintic.syzygy_coefficients": {Q: ("quintic.syzygy_coefficients",)},
    "quintic.stability_classify": {
        Q: ("quintic.stability_classify", "pencils.stability_classify"),
        C: ("cli.stability_classify",),
    },
    "quintic.normalize_weighted": {
        Q: ("quintic.normalize_weighted",), C: ("cli.normalize_weighted",),
    },
    "pencils.spectral_quintic": {
        Q: ("pencils.spectral_quintic",), C: ("cli.spectral_quintic",),
    },
    "pencils.degeneracy_profile": {Q: ("pencils.degeneracy_profile",)},
    "pencils.blowup_from_quintic": {Q: ("pencils.blowup_from_quintic",)},
    "pencils.roundtrip_check": {Q: ("pencils.roundtrip_check",)},
    "models.build_example": {F: ("models.build_example",), C: ("models.build_example",)},
    "lines.report": {C: ("lines.report",)},
    "plane_quintic.theta_quadratic_form": {C: ("cli.theta_quadratic_form",)},
    "serialize.dumps_canonical": {C: ("serialize.dumps_canonical",)},
    "serialize.decode_family": {C: ("serialize.decode_family",)},
    # span-only
    "pencils.classify_surface": {
        Q: ("pencils.classify_surface",), C: ("cli.classify_surface",),
    },
    "models.verify_example": {F: ("models.verify_example",)},
    "models.squared_discriminant_example": {F: ("models.squared_discriminant_example",)},
    "models.split_diagonal_example": {F: ("models.split_diagonal_example",)},
    "plane_quintic.is_principal": {C: ("cli.is_principal",)},
}

# The per-layer metrics: (name, traced target, stat, scope, unit).  The
# scope names the spans a metric is taken from: a workload's items, "warm"
# for the items of both warm workloads, "setup" for the traced set-up of
# quintic_pencil.  Rows without a target are filled in by the orchestrator
# (import times, untraced cold command times, coverage and overhead).
LAYER_METRICS = (
    ("families.spectral_form.calls_per_item", "families.spectral_form", "calls_per_item", F, "calls/item"),
    ("families.discriminant_family.calls_per_item", "families.discriminant_family", "calls_per_item", F, "calls/item"),
    ("families.spectral_form.self_s", "families.spectral_form", "self_s", F, "s"),
    ("families.discriminant_family.self_s", "families.discriminant_family", "self_s", F, "s"),
    ("families.genericity_check.self_s", "families.genericity_check", "self_s", F, "s"),
    ("families.family_report.total_s", "families.family_report", "total_s", F, "s"),
    ("linalg.det_minors.calls", "linalg.det_minors", "calls", F, "count"),
    ("linalg.det_minors.self_s", "linalg.det_minors", "self_s", F, "s"),
    ("binforms.squarefree_profile.calls", "binforms.squarefree_profile", "calls", F, "count"),
    ("binforms.squarefree_profile.self_s", "binforms.squarefree_profile", "self_s", F, "s"),
    ("families.delta_degree_max", "families.discriminant_family", "delta_degree_max", F, "degree"),
    ("families.delta_bits_max", "families.discriminant_family", "delta_bits_max", F, "bits"),
    ("families.genericity_check.inconclusive", "families.genericity_check", "inconclusive", F, "count"),
    ("models.build_example.attempts_per_build", "models.build_example", "attempts_per_build", F, "ratio"),
    ("factor_search.twisted_factor_search.calls", "factor_search.twisted_factor_search", "calls", F, "count"),
    ("factor_search.twisted_factor_search.self_s", "factor_search.twisted_factor_search", "self_s", F, "s"),
    ("factor_search.twisted_factor_search.found", "factor_search.twisted_factor_search", "found", F, "count"),
    ("factor_search.uni_irreducible_factors.calls", "factor_search.uni_irreducible_factors", "calls", "warm", "count"),
    ("factor_search.uni_irreducible_factors.self_s", "factor_search.uni_irreducible_factors", "self_s", "warm", "s"),
    ("quintic.invariants.calls", "quintic.invariants", "calls", Q, "count"),
    ("quintic.invariants.self_s", "quintic.invariants", "self_s", Q, "s"),
    ("binforms.resultant.self_s", "binforms.resultant", "self_s", Q, "s"),
    ("binforms.discriminant.self_s", "binforms.discriminant", "self_s", Q, "s"),
    ("quintic.stability_classify.self_s", "quintic.stability_classify", "self_s", Q, "s"),
    ("quintic.normalize_weighted.self_s", "quintic.normalize_weighted", "self_s", Q, "s"),
    ("pencils.spectral_quintic.self_s", "pencils.spectral_quintic", "self_s", Q, "s"),
    ("pencils.degeneracy_profile.self_s", "pencils.degeneracy_profile", "self_s", Q, "s"),
    ("pencils.blowup_from_quintic.self_s", "pencils.blowup_from_quintic", "self_s", Q, "s"),
    ("linalg.det.self_s", "linalg.det", "self_s", Q, "s"),
    ("linalg.kernel_basis.self_s", "linalg.kernel_basis", "self_s", Q, "s"),
    ("linalg.rank_over_field.self_s", "linalg.rank_over_field", "self_s", Q, "s"),
    ("pencils.roundtrip_check.total_s", "pencils.roundtrip_check", "total_s", Q, "s"),
    ("quintic.syzygy_coefficients.total_s", "quintic.syzygy_coefficients", "total_s", "setup", "s"),
    ("import.sympy_s", None, None, None, "s"),
    ("import.dp4_s", None, None, None, "s"),
    ("lines.report.total_s", "lines.report", "total_s", C, "s"),
    ("plane_quintic.theta_quadratic_form.total_s", "plane_quintic.theta_quadratic_form", "total_s", C, "s"),
    ("serialize.dumps_canonical.self_s", "serialize.dumps_canonical", "self_s", C, "s"),
    ("serialize.decode_family.self_s", "serialize.decode_family", "self_s", C, "s"),
    *((f"cli.{name}.s", None, None, None, "s") for name in COLD_COMMANDS),
    ("trace.coverage", None, None, None, "ratio"),
    ("trace.overhead", None, None, None, "ratio"),
)
UNITS = {row[0]: row[4] for row in LAYER_METRICS}
# stats that count rather than time; they must repeat exactly
COUNT_STATS = (
    "calls", "calls_per_item", "found", "inconclusive",
    "delta_degree_max", "delta_bits_max", "attempts_per_build",
)


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _observe_discriminant(rep) -> dict:
    return {"deg": rep.degree, "bits": max(_bits(c) for c in rep.delta.coeffs)}


# Result summaries kept on a span, for counts that depend on return values.
OBSERVERS = {
    "families.discriminant_family": _observe_discriminant,
    "families.genericity_check": lambda rep: {"g2": rep.g2_prime},
    "factor_search.twisted_factor_search": lambda res: {"found": res is not None},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _open(self, name, binding=None, attrs=None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.item, binding, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, attrs=None):
        span = self._open(name, attrs=attrs)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def item_span(self, item_id, kind):
        self.item = item_id
        try:
            with self.span("item", {"kind": kind}) as span:
                yield span
        finally:
            self.item = None

    def _wrapper(self, fn, name, binding):
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, binding)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span[6] = observe(result)
                return result
            finally:
                tracer._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded dp4 modules."""
        self.missing = []
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "dp4" or n.startswith("dp4.")) and m is not None
        ]
        for name in TARGETS:
            mod_name, fn_name = name.split(".")
            try:
                fn = getattr(importlib.import_module(f"dp4.{mod_name}"), fn_name, None)
            except ImportError:
                fn = None
            if fn is None:
                self.missing.append(name)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        binding = f"{mod.__name__[4:]}.{attr}"
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, self._wrapper(fn, name, binding))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


# ---------------------------------------------------------------------------
# analysis (plain Python over span lists)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_stats(spans, keep=lambda span: True) -> dict:
    """Per span name: calls, self seconds and total seconds over the spans
    ``keep`` accepts; total only counts outermost spans of a name, so
    recursion is not counted twice."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if not keep(s):
            continue
        st = stats.setdefault(s[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        p = s[3]
        while p is not None and spans[p][0] != s[0]:
            p = spans[p][3]
        if p is None:
            st["total_s"] += s[2] - s[1]
    return stats


def coverage(spans) -> float:
    """Share of item time covered by the items' direct child spans."""
    item_time = covered = 0.0
    for s in spans:
        if s[0] == "item":
            item_time += s[2] - s[1]
        elif s[3] is not None and spans[s[3]][0] == "item":
            covered += s[2] - s[1]
    return covered / item_time if item_time else 0.0


def calls_under(spans, name, ancestor) -> int:
    """Spans called ``name`` whose nearest traced ancestor is ``ancestor``."""
    return sum(
        1 for s in spans
        if s[0] == name and s[3] is not None and spans[s[3]][0] == ancestor
    )


def binding_calls(spans) -> dict:
    out: dict[str, int] = {}
    for s in spans:
        if s[5] is not None:
            out[s[5]] = out.get(s[5], 0) + 1
    return out


def _stat(spans, keep, target, stat, stats) -> float:
    """One stat of ``target`` over the spans ``keep`` accepts; ``stats`` is
    ``layer_stats`` of the same spans."""
    if stat in ("calls", "self_s", "total_s"):
        return stats.get(target, {stat: 0})[stat]
    mine = [s for s in spans if s[0] == target and keep(s)]
    attrs = [s[6] for s in mine if s[6]]  # result summaries of calls that returned
    if stat == "calls_per_item":
        models = {s[4] for s in spans if s[0] == "item" and s[6]["kind"] in MODEL_NAMES}
        return sum(1 for s in mine if s[4] in models) / len(models)
    if stat == "found":
        return sum(1 for a in attrs if a["found"])
    if stat == "inconclusive":
        return sum(1 for a in attrs if a["g2"] is None)
    if stat == "delta_degree_max":
        return max((a["deg"] for a in attrs), default=0)
    if stat == "delta_bits_max":
        return max((a["bits"] for a in attrs), default=0)
    if stat == "attempts_per_build":
        calls = calls_under(spans, "families.genericity_check", target)
        return calls / len(mine) if mine else 0.0
    raise ValueError(f"unknown stat {stat}")


def layer_metrics(sources) -> dict:
    """Every LAYER_METRICS row that has a target.  ``sources`` maps each
    scope to a list of ``(spans, keep)``; a metric sums over them (a maximum
    takes the largest)."""
    stats = {
        id(src): layer_stats(*src) for scope in sources.values() for src in scope
    }
    out = {}
    for name, target, stat, scope, _ in LAYER_METRICS:
        if target is None:
            continue
        values = [_stat(*src, target, stat, stats[id(src)]) for src in sources[scope]]
        out[name] = max(values) if stat.endswith("_max") else sum(values)
    return out
