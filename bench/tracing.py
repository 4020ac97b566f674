"""Traced run: spans around the public functions of each entroscore layer.

Nothing in the library is edited.  :class:`Tracer` replaces module attributes
(in every ``entroscore`` module that imported a function by name, such as
``scoring.pair`` and ``bregman.pair``), a few class attributes (construction
of ``Density`` and ``DualVector``, ``ConvexDomainSpec.contains``), and reaches
the entropy and rule closures through ``cli.catalog_entropy`` and
``cli.build_rule``.  :meth:`Tracer.restore` puts every original back.

Spans live in flat in-memory arrays (name, start, end, parent, request) with
integer nanosecond times, so the self times of one request sum exactly to the
duration of its root span.  :func:`layer_metrics` turns the spans of one
request into the per-layer metrics; :meth:`Tracer.save` writes all spans out.

Metric conventions: ``*_calls`` counts spans; ``*_s`` is the time inside
spans of that kind, a span nested directly in one of its own kind not counted
twice; ``<layer>.self_s`` is the layer's self time (span time minus child
spans), except ``cli.self_s``, the self time of ``cli.main`` alone, and
``bregman.fit_s``, the self time of ``symmetry_defect`` (its least-squares fit
and loop).  Times include the tracing cost of nested spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

RULE_SLUGS = ("quadratic", "spherical", "shannon", "power1.5", "power3", "pseudospherical3")
LAYERS = ("cli", "measure", "entropies", "scoring", "sampling", "bregman", "geometry")

# Metric name -> unit, in reporting order.
PER_LAYER_UNITS = {
    "cli.read_s": "s", "cli.densities_s": "s", "cli.build_rule_s": "s", "cli.write_s": "s",
    "cli.self_s": "s",
    "measure.density_calls": "count", "measure.density_s": "s", "measure.dual_calls": "count",
    "measure.dual_s": "s", "measure.pair_calls": "count", "measure.pair_s": "s",
    "measure.pair_inf_calls": "count", "measure.self_s": "s",
    "entropies.value_calls": "count", "entropies.value_s": "s",
    "entropies.subgradient_calls": "count", "entropies.subgradient_s": "s",
    "entropies.closed_form_calls": "count", "entropies.extension_value_s": "s",
    "entropies.self_s": "s",
    "scoring.score_calls": "count", "scoring.score_s": "s", "scoring.score_calls_per_item": "ratio",
    "scoring.expected_score_s": "s", "scoring.score_divergence_s": "s",
    "scoring.verify_propriety_s": "s", "scoring.verify_euler_s": "s", "scoring.self_s": "s",
    **{f"scoring.score_us_{stat}.{slug}": unit for slug in RULE_SLUGS
       for stat, unit in (("p50", "us"), ("p99", "us"), ("samples", "count"))},
    "sampling.sample_calls": "count", "sampling.sample_s": "s", "sampling.self_s": "s",
    "bregman.symmetry_defect_s": "s", "bregman.divergence_calls": "count",
    "bregman.divergence_s": "s", "bregman.fit_s": "s", "bregman.self_s": "s",
    "geometry.probe_calls": "count", "geometry.probe_s": "s", "geometry.contains_calls": "count",
    "geometry.contains_s": "s", "geometry.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}

# Module-level functions wrapped wherever they are bound: (home module, attribute, span name).
_FUNCTIONS = (
    ("measure", "pair", "measure.pair"),
    ("entropies", "canonical_extension_value", "entropies.extension_value"),
    ("scoring", "expected_score", "scoring.expected_score"),
    ("scoring", "score_divergence", "scoring.score_divergence"),
    ("scoring", "verify_propriety", "scoring.verify_propriety"),
    ("scoring", "verify_euler", "scoring.verify_euler"),
    ("sampling", "sample_density", "sampling.sample"),
    ("sampling", "sample_cone_point", "sampling.sample"),
    ("sampling", "sample_positive_box", "sampling.sample"),
    ("bregman", "symmetry_defect", "bregman.symmetry_defect"),
    ("bregman", "bregman_divergence", "bregman.divergence"),
    ("geometry", "subdifferential_probe", "geometry.probe"),
    ("cli", "read_forecasts", "cli.read"),
    ("cli", "read_outcomes", "cli.read"),
    ("cli", "build_densities", "cli.densities"),
    ("cli", "_write_text", "cli.write"),
)


def rule_slug(spec: str) -> str:
    return spec.replace("(", "").replace(")", "").strip()


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._stack = [-1]
        self._request = -1
        self.pair_inf: dict[int, int] = {}
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, span: str, fn):
        """``fn`` wrapped so that each call records one span named ``span``."""
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, starts, ends, parents, requests, stack = (
            self.name, self.start, self.end, self.parent, self.request, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer._request)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def call(self, request: int, fn, *args):
        """Run ``fn(*args)`` as request ``request``, under a root span ``cli.main``."""
        self._request = request
        try:
            return self.wrap("cli.main", fn)(*args)
        finally:
            self._request = -1

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        owned = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the entroscore modules already imported; undo with :meth:`restore`."""
        from entroscore import cli, geometry, measure

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "entroscore" or key.startswith("entroscore."))]
        home = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module_name, attr, span in _FUNCTIONS:
            original = getattr(home[module_name], attr)
            wrapped = self.wrap(span, original)
            if attr == "pair":
                wrapped = self._count_inf(wrapped)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._set(module, attr, wrapped)
        self._set(measure.Density, "__init__", self.wrap("measure.density", measure.Density.__init__))
        self._set(measure.DualVector, "__init__", self.wrap("measure.dual", measure.DualVector.__init__))
        self._set(geometry.ConvexDomainSpec, "contains",
                  self.wrap("geometry.contains", geometry.ConvexDomainSpec.contains))
        self._set(cli, "catalog_entropy", self._traced_catalog(cli.catalog_entropy))
        self._set(cli, "build_rule", self._traced_build_rule(cli.build_rule))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def _count_inf(self, pair):
        counts = self.pair_inf

        def pair_counting_inf(p, f):
            if not np.isfinite(f.values).all():
                counts[self._request] = counts.get(self._request, 0) + 1
            return pair(p, f)

        return pair_counting_inf

    def _traced_catalog(self, catalog_entropy):
        def traced_catalog_entropy(*args, **kwargs):
            entropy = catalog_entropy(*args, **kwargs)
            for attr, span in (("value", "entropies.value"), ("subgradient", "entropies.subgradient"),
                               ("closed_form_score", "entropies.closed_form")):
                if getattr(entropy, attr) is not None:
                    object.__setattr__(entropy, attr, self.wrap(span, getattr(entropy, attr)))
            return entropy

        return traced_catalog_entropy

    def _traced_build_rule(self, build_rule):
        def traced_build_rule(spec, space):
            entropy, rule = build_rule(spec, space)
            object.__setattr__(rule, "score", self.wrap(f"scoring.score:{rule_slug(spec)}", rule.score))
            return entropy, rule

        return self.wrap("cli.build_rule", traced_build_rule)

    # -- output ----------------------------------------------------------------

    def spans(self, request: int) -> dict[str, np.ndarray]:
        """The spans of one request as arrays; ``parent`` indexes into them (-1 at the root)."""
        requests = np.frombuffer(self.request, dtype=np.int64)
        index = np.flatnonzero(requests == request)
        parent = np.frombuffer(self.parent, dtype=np.int64)[index]
        local = np.full(len(self.start), -1, dtype=np.int64)
        local[index] = np.arange(index.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16)[index].astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64)[index],
            "end": np.frombuffer(self.end, dtype=np.int64)[index],
            "parent": np.where(parent >= 0, local[np.maximum(parent, 0)], -1),
        }

    def save(self, path) -> None:
        """Write every span (name table, start/end ns, parent, request, workload)."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle, names=np.array(self.names), workload=np.array(self.workload),
                name=np.frombuffer(self.name, dtype=np.uint16),
                start_ns=np.frombuffer(self.start, dtype=np.int64),
                end_ns=np.frombuffer(self.end, dtype=np.int64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                request=np.frombuffer(self.request, dtype=np.int64),
            )


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children, in ns."""
    duration = spans["end"] - spans["start"]
    children = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(children, spans["parent"][has_parent], duration[has_parent])
    return duration - children


def layer_metrics(tracer: Tracer, request: int, items: int) -> tuple[dict, dict[str, np.ndarray]]:
    """Per-layer metrics of one traced request, and its score-call durations (us) per rule."""
    spans = tracer.spans(request)
    # Integer codes per span: its kind (the name without a ":rule" tag) and its layer.
    kinds = sorted({n.split(":")[0] for n in tracer.names})
    layers = sorted({n.split(".")[0] for n in tracer.names})
    base = np.array([kinds.index(n.split(":")[0]) for n in tracer.names])[spans["name"]]
    layer = np.array([layers.index(n.split(".")[0]) for n in tracer.names])[spans["name"]]
    duration = (spans["end"] - spans["start"]) / 1e9
    own = self_times(spans) / 1e9
    parent_base = np.where(spans["parent"] >= 0, base[np.maximum(spans["parent"], 0)], -1)

    def kind(name):
        return kinds.index(name) if name in kinds else -1

    def calls(name):
        return int(np.count_nonzero(base == kind(name)))

    def busy(name):  # time inside the named spans, not counting a span nested in its own kind
        return float(duration[(base == kind(name)) & (parent_base != kind(name))].sum())

    m = {
        "cli.read_s": busy("cli.read"), "cli.densities_s": busy("cli.densities"),
        "cli.build_rule_s": busy("cli.build_rule"), "cli.write_s": busy("cli.write"),
        "cli.self_s": float(own[base == kind("cli.main")].sum()),
        "measure.density_calls": calls("measure.density"), "measure.density_s": busy("measure.density"),
        "measure.dual_calls": calls("measure.dual"), "measure.dual_s": busy("measure.dual"),
        "measure.pair_calls": calls("measure.pair"), "measure.pair_s": busy("measure.pair"),
        "measure.pair_inf_calls": tracer.pair_inf.get(request, 0),
        "entropies.value_calls": calls("entropies.value"), "entropies.value_s": busy("entropies.value"),
        "entropies.subgradient_calls": calls("entropies.subgradient"),
        "entropies.subgradient_s": busy("entropies.subgradient"),
        "entropies.closed_form_calls": calls("entropies.closed_form"),
        "entropies.extension_value_s": busy("entropies.extension_value"),
        "scoring.score_calls": calls("scoring.score"), "scoring.score_s": busy("scoring.score"),
        "scoring.score_calls_per_item": calls("scoring.score") / items,
        "scoring.expected_score_s": busy("scoring.expected_score"),
        "scoring.score_divergence_s": busy("scoring.score_divergence"),
        "scoring.verify_propriety_s": busy("scoring.verify_propriety"),
        "scoring.verify_euler_s": busy("scoring.verify_euler"),
        "sampling.sample_calls": calls("sampling.sample"),
        "sampling.sample_s": busy("sampling.sample"),
        "bregman.symmetry_defect_s": busy("bregman.symmetry_defect"),
        "bregman.divergence_calls": calls("bregman.divergence"),
        "bregman.divergence_s": busy("bregman.divergence"),
        "bregman.fit_s": float(own[base == kind("bregman.symmetry_defect")].sum()),
        "geometry.probe_calls": calls("geometry.probe"), "geometry.probe_s": busy("geometry.probe"),
        "geometry.contains_calls": calls("geometry.contains"),
        "geometry.contains_s": busy("geometry.contains"),
        "trace.spans": int(base.size),
    }
    for name in LAYERS[1:]:
        m[f"{name}.self_s"] = float(own[layer == (layers.index(name) if name in layers else -1)].sum())
    score_us = {slug: duration[spans["name"] == tracer._ids.get(f"scoring.score:{slug}", -1)] * 1e6
                for slug in RULE_SLUGS}
    return m, score_us
