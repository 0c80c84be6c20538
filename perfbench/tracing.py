"""Span recording around calls into each layer's public functions.

The tracer patches, for the duration of a traced pass, the public
functions and methods listed in ``TARGETS``: every place in a loaded
``repro`` module that binds the original object gets a wrapper that
records a span (name, start, end, parent span, pass id) and calls the
original.  Nothing inside ``src/`` is edited, and with tracing disabled
the wrappers are removed again, so untraced passes run the original
objects.

Spans are kept in memory.  A layer's self time is its span duration
minus the time its child spans cover.  Calls made inside pool workers
are not recorded (a wrapper inherited by a forked worker is inert):
they are timed only at the parent-side boundary, e.g.
``parallel.batch`` or ``trials.map``.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


def _feasible(args, kwargs, result) -> dict:
    return {"feasible": bool(result.is_feasible)}


def _hit(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _context_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(json.dumps(result))}


def _vector_draws(args, kwargs, result) -> dict:
    # One uniform per node per executed round (beacon) and per node per
    # executed data slot, for every trial: the Bernoulli vector
    # sampler's draw count, computed from the timeline, not counted.
    context = args[0]
    timeline = context.timeline()
    nodes = len(context.compiled().node_names)
    return {"trials": len(result),
            "draws": len(result) * (timeline.num_rounds
                                    + timeline.num_slots) * nodes}


def _fallbacks(args, kwargs, result) -> dict:
    requested = kwargs.get("engine", "fast")
    return {"fallbacks": sum(1 for used in result.engines.values()
                             if used != requested)}


def _ilp_size(args, kwargs, result) -> dict:
    return {"vars": result.model.num_vars,
            "constraints": result.model.num_constraints}


#: ``(span name, "module:attribute" or "module:Class.method", tagger)``.
#: A method target also covers every subclass that overrides it.
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("ilp_builder.build", "repro.core.ilp_builder:build_ilp", _ilp_size),
    ("milp.solve", "repro.milp.model:Model.solve", _feasible),
    ("synthesis.extract", "repro.core.synthesis:extract_schedule", None),
    ("verify", "repro.core.verify:verify_schedule", None),
    ("cache.get", "repro.engine.cache:ScheduleCache.get", _hit),
    ("cache.put", "repro.engine.cache:ScheduleCache.put", None),
    ("parallel.batch", "repro.engine.parallel:synthesize_batch", None),
    ("trials.map", "repro.engine.trials:TrialPool.map", None),
    ("io.serialize", "repro.mc.campaign:scenario_context", _context_bytes),
    ("runtime.build_context", "repro.runtime.trial:build_context", None),
    ("vectorized.unroll", "repro.mc.vectorized:unroll_timeline", None),
    ("vectorized.sample", "repro.mc.vectorized:run_trials_vectorized",
     _vector_draws),
    ("fastpath.run", "repro.mc.fastpath:run_program", None),
    ("stats.aggregate", "repro.mc.stats:CampaignStats.aggregate", None),
    ("campaign.run", "repro.mc.campaign:run_campaigns", _fallbacks),
    ("dse.propose", "repro.dse.samplers:Sampler.select", None),
    ("dse.store_get", "repro.dse.store:ResultStore.get", None),
    ("dse.store_put", "repro.dse.store:ResultStore.put", None),
]

class Tracer:
    """In-memory span recorder with install/uninstall of the patches."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.pass_id: Optional[int] = None
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn: Callable, tagger=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "pass": tracer.pass_id, "start": time.perf_counter()}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if tagger is not None:
                span["tags"] = tagger(args, kwargs, result)
            return result

        return traced

    def event(self, name: str) -> None:
        """Record a zero-length span (a count at a layer boundary)."""
        now = time.perf_counter()
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._stack[-1] if self._stack else None,
                           "pass": self.pass_id, "start": now, "end": now})

    # -- patching --------------------------------------------------------
    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, method: str, name: str, tagger) -> None:
        raw = cls.__dict__.get(method)
        if raw is not None:
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, tagger))
            else:
                wrapped = self.wrap(name, raw, tagger)
            self._undo.append((cls, method, raw))
            setattr(cls, method, wrapped)
        for sub in cls.__subclasses__():
            self._patch_method(sub, method, name, tagger)

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` undoes it."""
        for name, target, tagger in TARGETS:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                self._patch_method(getattr(module, class_name), method,
                                   name, tagger)
            else:
                original = getattr(module, attr)
                self._rebind(original, self.wrap(name, original, tagger))
        # Every executor a repro module constructs counts as one spawn.
        tracer = self
        base = concurrent.futures.ProcessPoolExecutor

        class CountingExecutor(base):
            def __init__(self, *args, **kwargs):
                if os.getpid() == tracer._pid:
                    tracer.event("pool.spawn")
                super().__init__(*args, **kwargs)

        self._rebind(base, CountingExecutor)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def pass_spans(self, pass_id: int) -> List[dict]:
        return [span for span in self.spans if span["pass"] == pass_id]


def layer_times(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"total", "self", "calls"}}`` over ``spans``.

    Self time is a span's duration minus its children's durations;
    children of one span never overlap (one thread records them).
    """
    child_time: Dict[int, float] = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span["name"],
                               {"total": 0.0, "self": 0.0, "calls": 0})
        duration = span["end"] - span["start"]
        entry["total"] += duration
        entry["self"] += duration - child_time.get(span["id"], 0.0)
        entry["calls"] += 1
    return out


def top_level_seconds(spans: List[dict]) -> float:
    """Wall time covered by spans that have no parent span."""
    return sum(span["end"] - span["start"] for span in spans
               if span["parent"] is None)
