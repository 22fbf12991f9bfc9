"""Traced mode: spans recorded from the benchmark's side of each layer.

:class:`Tracer` keeps spans (name, start, end, parent, attributes) in
memory.  :func:`patched` wraps the program's layer entry points for the
duration of one traced pass (the analyzer registry, ``reduce_net``,
``Gpn``, ``SymbolicNet``, ``reach``, the safety certificate, the
P-invariant basis, ``structural_verdict``) and counts the work of every
BDD manager created meanwhile; the benchmark opens the spans around the
calls it makes itself (``parse_net``, ``repro.query``,
``result_to_dict``, the result cache, and each HTTP request of the
served workload).  Nothing inside the program changes: its own spans
and tracer stay off.

:func:`layer_metrics` turns the spans of one pass into the per-layer
figures named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

#: Span-name prefix of each analyzer's entry point.
ANALYZER_LAYER = {
    "full": "analysis",
    "stubborn": "stubborn",
    "gpo": "gpo",
    "symbolic": "symbolic",
    "parallel": "search",
}


class Tracer:
    """In-memory span recorder; a no-op until ``enabled`` is set.

    The program runs some analyzers in forked worker processes (the
    planner's race).  A span that ends in such a child is appended to
    ``spill_dir/spans-<pid>.jsonl``, and :meth:`take` merges those files
    back under the span that was open when the child was forked.  Each
    thread (the served workload's clients) nests its spans on its own
    stack.
    """

    def __init__(self, spill_dir: Path | None = None) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.bdd_managers: list = []
        self._pid = os.getpid()
        self.spill_dir = spill_dir

    @property
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        stack = self._stack
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "attrs": attrs,
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if os.getpid() != self._pid and self.spill_dir is not None:
                line = json.dumps({"id": index, **record}, default=str)
                path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
                with open(path, "a") as spill:
                    spill.write(line + "\n")

    def take(self) -> list[dict]:
        """The spans recorded since the last call, forked children's
        included (and forget them)."""
        spans, self.spans = self.spans, []
        if self.spill_dir is None:
            return spans
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
            remap = {r.pop("id"): len(spans) + i for i, r in enumerate(records)}
            for record in records:
                record["parent"] = remap.get(record["parent"], record["parent"])
            spans += records
        return spans


def _wrap(tracer: Tracer, name: str, fn, annotate=None):
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            out = fn(*args, **kwargs)
            if annotate is not None:
                annotate(tracer, attrs, args, out)
            return out

    return traced


def _traced_class(tracer: Tracer, name: str, cls):
    class Traced(cls):
        def __init__(self, *args, **kwargs):
            with tracer.span(name):
                super().__init__(*args, **kwargs)

    Traced.__name__ = cls.__name__
    Traced.__qualname__ = cls.__qualname__
    return Traced


def _annotate_result(tracer, attrs, args, result) -> None:
    """Work counts of one analyzer call, and of the BDD managers it
    created (read here, so a forked child ships them in the span)."""
    attrs["states"] = result.states
    managers, tracer.bdd_managers = tracer.bdd_managers, []
    attrs["bdd_ite_calls"] = sum(m.ite_calls for m in managers)
    attrs["bdd_ite_hits"] = sum(m.ite_hits for m in managers)
    attrs["bdd_nodes"] = sum(m.num_nodes for m in managers)
    for key in (
        "stubborn_closure_iterations",
        "stubborn_set_seconds",
        "shard_exchange_volume",
        "max_scenarios",
        "iterations",
        "peak_bdd_nodes",
    ):
        if key in result.extras:
            attrs[key] = result.extras[key]


def _annotate_reduction(tracer, attrs, args, reduction) -> None:
    original = args[0]
    attrs["places_removed"] = original.num_places - reduction.net.num_places
    attrs["transitions_removed"] = (
        original.num_transitions - reduction.net.num_transitions
    )


def _annotate_basis(tracer, attrs, args, basis) -> None:
    attrs["size"] = len(basis)


@contextmanager
def patched(tracer: Tracer):
    """Install the layer wrappers and enable ``tracer`` for one pass."""
    # import_module, not "import a.b as x": some packages re-export a
    # function under their submodule's name (repro.symbolic.reach).
    bdd_manager = import_module("repro.bdd.manager")
    jobs = import_module("repro.engine.jobs")
    gpo_analysis = import_module("repro.gpo.analysis")
    decide = import_module("repro.props.decide")
    static_analysis = import_module("repro.static.analysis")
    symbolic_reach = import_module("repro.symbolic.reach")

    undo = []

    def swap(owner, attr, value):
        old = getattr(owner, attr)
        undo.append((owner, attr, old))
        setattr(owner, attr, value)

    analyzers = dict(jobs.ANALYZERS)
    for method, layer in ANALYZER_LAYER.items():
        jobs.ANALYZERS[method] = _wrap(
            tracer, f"{layer}.analyze", analyzers[method], _annotate_result
        )
    swap(jobs, "reduce_net", _wrap(
        tracer, "reduce.reduce_net", jobs.reduce_net, _annotate_reduction
    ))
    swap(gpo_analysis, "Gpn", _traced_class(
        tracer, "gpo.gpn_build", gpo_analysis.Gpn
    ))
    swap(symbolic_reach, "SymbolicNet", _traced_class(
        tracer, "symbolic.encode", symbolic_reach.SymbolicNet
    ))
    swap(symbolic_reach, "reach", _wrap(
        tracer, "symbolic.reach", symbolic_reach.reach
    ))
    swap(static_analysis, "p_invariants", _wrap(
        tracer, "static.p_invariants", static_analysis.p_invariants,
        _annotate_basis,
    ))
    swap(decide, "structural_verdict", _wrap(
        tracer, "props.structural", decide.structural_verdict
    ))

    certificate = static_analysis.StaticAnalysis.safety_certificate

    def traced_certificate(self):
        if self._certificate is not None:
            return certificate.fget(self)
        with tracer.span("static.certify"):
            return certificate.fget(self)

    swap(static_analysis.StaticAnalysis, "safety_certificate",
         property(traced_certificate))

    manager_init = bdd_manager.BddManager.__init__

    def tracked_init(self, *args, **kwargs):
        manager_init(self, *args, **kwargs)
        tracer.bdd_managers.append(self)

    swap(bdd_manager.BddManager, "__init__", tracked_init)

    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.enabled = False
        tracer.bdd_managers.clear()
        jobs.ANALYZERS.update(analyzers)
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the part its children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        own = span["end"] - span["start"] - child_time[i]
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def _total(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _outermost(spans, prefix) -> float:
    """Time inside spans named ``prefix*`` that no such span encloses."""
    total = 0.0
    for span in spans:
        if not span["name"].startswith(prefix):
            continue
        parent = span["parent"]
        while parent is not None and not spans[parent]["name"].startswith(prefix):
            parent = spans[parent]["parent"]
        if parent is None:
            total += span["end"] - span["start"]
    return total


def _attr_sum(spans, name, key) -> float:
    return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)


def _attr_max(spans, name, key) -> float:
    return max(
        (s["attrs"].get(key, 0) for s in spans if s["name"] == name),
        default=0,
    )


def _excluding(spans, name, *children) -> float:
    """Duration of ``name`` spans minus the outermost descendants whose
    names start with one of ``children``."""
    total = 0.0
    for span in spans:
        if span["name"] == name:
            total += span["end"] - span["start"]
        elif span["name"].startswith(children):
            parent = span["parent"]
            while parent is not None:
                above = spans[parent]["name"]
                if above == name:
                    total -= span["end"] - span["start"]
                    break
                if above.startswith(children):
                    break
                parent = spans[parent]["parent"]
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The in-process per-layer figures of one traced pass."""
    explicit = ("analysis.analyze", "stubborn.analyze", "search.analyze")
    kernel_states = sum(_attr_sum(spans, n, "states") for n in explicit)
    kernel_time = sum(_excluding(spans, n, "static.") for n in explicit)
    analyzers = [f"{layer}.analyze" for layer in ANALYZER_LAYER.values()]
    calls = sum(_attr_sum(spans, n, "bdd_ite_calls") for n in analyzers)
    hits = sum(_attr_sum(spans, n, "bdd_ite_hits") for n in analyzers)
    return {
        "net.parse_s": _total(spans, "net.parse"),
        "engine.serialize_s": _total(spans, "engine.serialize"),
        "net.kernel_states_per_s": (
            kernel_states / kernel_time if kernel_time else 0.0
        ),
        "analysis.search_s": _excluding(spans, "analysis.analyze", "static."),
        "analysis.states": _attr_sum(spans, "analysis.analyze", "states"),
        "stubborn.search_s": _excluding(spans, "stubborn.analyze", "static."),
        "stubborn.states": _attr_sum(spans, "stubborn.analyze", "states"),
        "stubborn.closure_iterations": _attr_sum(
            spans, "stubborn.analyze", "stubborn_closure_iterations"
        ),
        "stubborn.set_s": _attr_sum(
            spans, "stubborn.analyze", "stubborn_set_seconds"
        ),
        "search.parallel_s": _excluding(spans, "search.analyze", "static."),
        "search.exchange_volume": _attr_sum(
            spans, "search.analyze", "shard_exchange_volume"
        ),
        "gpo.gpn_build_s": _total(spans, "gpo.gpn_build"),
        "gpo.search_s": _excluding(
            spans, "gpo.analyze", "static.", "gpo.gpn_build"
        ),
        "gpo.states": _attr_sum(spans, "gpo.analyze", "states"),
        "gpo.max_scenarios": _attr_max(spans, "gpo.analyze", "max_scenarios"),
        "symbolic.encode_s": _total(spans, "symbolic.encode"),
        "symbolic.reach_s": _excluding(spans, "symbolic.reach", "symbolic.encode"),
        "symbolic.iterations": _attr_sum(spans, "symbolic.analyze", "iterations"),
        "symbolic.peak_bdd_nodes": _attr_max(
            spans, "symbolic.analyze", "peak_bdd_nodes"
        ),
        "bdd.ite_calls": calls,
        "bdd.cache_hit_ratio": hits / calls if calls else 0.0,
        "bdd.nodes": sum(_attr_sum(spans, n, "bdd_nodes") for n in analyzers),
        "static.certify_s": _outermost(spans, "static."),
        "static.p_invariants": _attr_sum(spans, "static.p_invariants", "size"),
        "reduce.reduce_s": _total(spans, "reduce.reduce_net"),
        "reduce.places_removed": _attr_sum(
            spans, "reduce.reduce_net", "places_removed"
        ),
        "reduce.transitions_removed": _attr_sum(
            spans, "reduce.reduce_net", "transitions_removed"
        ),
        "props.decide_s": _total(spans, "props.decide"),
        "props.structural_s": _total(spans, "props.structural"),
        "props.static_decided": sum(
            1
            for s in spans
            if s["name"] == "props.decide" and s["attrs"].get("static")
        ),
    }
