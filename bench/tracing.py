"""Span tracing installed from outside the program, at motifx's module boundaries.

Every public function of a traced module gets a wrapper, put in its
defining module, in every motifx module that imported the name, and in
module-level tables that hold it (``cli.COMMANDS``). A few public methods
that are module boundaries in practice (graph loading, prediction,
checkpoint I/O, the tape's gradient call) are wrapped on their class.

Exception: the tape primitives of ``nn`` (``add``, ``mul``, ``concat``, ...)
run once per array operation, millions of times per epoch, and a span
would cost more than the operation. They are not spanned, so their time
stays in the self time of the layer that called them. ``nn.matmul`` gets
a count-only wrapper for calls, FLOPs and bytes computed from operand
shapes.

A span is (name, start, end, parent). Runs are single-threaded, so a
stack gives the parent. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "motifs", "features", "layers", "nn", "basemodel", "explainer",
          "metrics", "evaluate", "cli")
NN_SPANNED = {"backward", "optimizer_step", "adam_init", "grad_check"}
METHODS = {
    "graph": {"TemporalGraph": ("from_json", "to_json")},
    "basemodel": {"InternalPredictor": ("predict", "label", "query_context")},
    "nn": {"ParameterStore": ("save", "load"), "Tape": ("gradients",)},
}


def _reachable_nodes(root) -> int:
    """Vars reachable from a loss through parent links: the tape one backward walks."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _on_sample_motifs(tr, args, kwargs, out):
    tr.counts["motifs.instances"] += len(out)
    tr.counts["motifs.kept"] += sum(1 for inst in out if len(inst) >= 2)
    # one lookup for the anchor's first candidate set, then one per event
    # drawn, plus the empty lookup that ended each truncated trajectory
    tr.counts["motifs.lookup_steps"] += 1 + sum(len(inst) + inst.truncated for inst in out)


def _on_prepare_query(tr, args, kwargs, out):
    tr.counts["explainer.prepare_query.skipped"] += out is None


def _on_checkpoint(tr, args, kwargs, out):
    tr.counts["nn.checkpoint.bytes"] += os.path.getsize(args[1])


def _before_gradients(tr, args, kwargs):
    tr.counts["nn.tape_nodes"] += _reachable_nodes(args[1])


AFTER = {"motifs.sample_motifs": _on_sample_motifs,
         "explainer.prepare_query": _on_prepare_query,
         "nn.ParameterStore.save": _on_checkpoint,
         "nn.ParameterStore.load": _on_checkpoint}
BEFORE = {"nn.Tape.gradients": _before_gradients}


class Tracer:
    """Records spans and boundary counts while ``active``; inactive wrappers pass through."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.active = False
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key, start, end, parent)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out
        return wrapper

    def _count_matmul(self, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            if tracer.active:
                m, k = getattr(a, "value", a).shape
                n = out.value.shape[1]
                counts["nn.matmul.calls"] += 1
                counts["nn.matmul.flops"] += 2 * m * k * n
                counts["nn.matmul.bytes"] += 8 * (m * k + k * n + m * n)
            return out
        return wrapper

    def install(self) -> None:
        """Wrap the boundary functions and re-point every motifx reference at the wrappers."""
        swap = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"motifx.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "nn" and attr not in NN_SPANNED:
                    if attr == "matmul":
                        swap[id(obj)] = (obj, self._count_matmul(obj))
                    continue
                swap[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    raw = cls.__dict__[m]
                    name = f"{layer}.{cls_name}.{m}"
                    if isinstance(raw, classmethod):
                        setattr(cls, m, classmethod(self._span(name, raw.__func__)))
                    else:
                        setattr(cls, m, self._span(name, raw))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "motifx" or mod_name.startswith("motifx.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = swap.get(id(v))
                        if hit is not None and hit[0] is v:
                            obj[k] = hit[1]

    def end_phase(self) -> tuple[int, dict]:
        """Close a phase: the index of its end in ``spans`` and its counts (then reset)."""
        if self._stack:
            raise RuntimeError("phase boundary inside an open span")
        counts = dict(self.counts)
        self.counts.clear()
        return len(self.spans), counts

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name calls, total and self seconds, and per-layer self seconds over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        covered = [0.0] * len(spans)
        for key, start, end, parent in spans:
            if parent >= lo:
                covered[parent - lo] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        child_of = defaultdict(int)   # (child name, parent name) -> calls
        for i, (key, start, end, parent) in enumerate(spans):
            name = self.names[key]
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name.split(".", 1)[0]] += dur - covered[i]
            durations[name].append(dur)
            if parent >= lo:
                child_of[(name, self.names[spans[parent - lo][0]])] += 1
        return {"calls": calls, "total": total, "layer_self": self_s,
                "durations": durations, "child_of": child_of}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[key], start, end, parent]) + "\n")


def nearest_rank(sorted_values: list, q: float) -> float:
    """The q-quantile (0 < q <= 1) by nearest rank: a value that was observed."""
    if not sorted_values:
        return 0.0
    rank = -(-round(q * 1000) * len(sorted_values) // 1000)  # ceil(q * n), exact in integers
    return sorted_values[max(rank, 1) - 1]


def layer_metrics(summary: dict, counts: dict) -> dict:
    """The named per-layer metrics of one phase, from its span summary and counts."""
    calls, total, child_of = summary["calls"], summary["total"], summary["child_of"]
    out = {f"{layer}.self_s": summary["layer_self"].get(layer, 0.0) for layer in LAYERS}
    predict = sorted(summary["durations"].get("basemodel.InternalPredictor.predict", []))
    steps = counts.get("motifs.lookup_steps", 0)
    misses = child_of.get(("graph.neighbor_events", "motifs.sample_motifs"), 0)
    instances = counts.get("motifs.instances", 0)
    grads = calls.get("nn.Tape.gradients", 0)
    preps = calls.get("explainer.prepare_query", 0)
    out.update({
        "graph.neighbor_events.calls": calls.get("graph.neighbor_events", 0),
        "graph.computational_graph.calls": calls.get("graph.computational_graph", 0),
        "graph.from_json.s": total.get("graph.TemporalGraph.from_json", 0.0),
        "motifs.sample_motifs.calls": calls.get("motifs.sample_motifs", 0),
        "motifs.instances": instances,
        "motifs.lookup_steps": steps,
        "motifs.cache_hit_ratio": 1.0 - misses / steps if steps else 0.0,
        "motifs.kept_ratio": counts.get("motifs.kept", 0) / instances if instances else 0.0,
        "layers.masked_attention.calls": calls.get("layers.masked_attention", 0),
        "layers.gine_layer.calls": calls.get("layers.gine_layer", 0),
        "nn.backward.calls": calls.get("nn.backward", 0),
        "nn.backward.s": total.get("nn.backward", 0.0),
        "nn.optimizer_step.s": total.get("nn.optimizer_step", 0.0),
        "nn.tape_nodes_per_step": counts.get("nn.tape_nodes", 0) / grads if grads else 0.0,
        "nn.matmul.calls": counts.get("nn.matmul.calls", 0),
        "nn.matmul.flops": counts.get("nn.matmul.flops", 0),
        "nn.matmul.bytes": counts.get("nn.matmul.bytes", 0),
        "nn.checkpoint.save_s": total.get("nn.ParameterStore.save", 0.0),
        "nn.checkpoint.load_s": total.get("nn.ParameterStore.load", 0.0),
        "nn.checkpoint.bytes": counts.get("nn.checkpoint.bytes", 0),
        "basemodel.predict.calls": len(predict),
        "basemodel.predict.p50_us": 1e6 * nearest_rank(predict, 0.5),
        "basemodel.predict.p99_us": 1e6 * nearest_rank(predict, 0.99),
        "basemodel.batch_loss.s": total.get("basemodel.batch_loss", 0.0),
        "basemodel.evaluate_ap.s": total.get("basemodel.evaluate_ap", 0.0),
        "basemodel.soft_predict.calls": calls.get("basemodel.soft_predict", 0),
        "basemodel.soft_predict.s": total.get("basemodel.soft_predict", 0.0),
        "basemodel.build_query_cache.calls": calls.get("basemodel.build_query_cache", 0),
        "explainer.prepare_query.calls": preps,
        "explainer.prepare_query.s": total.get("explainer.prepare_query", 0.0),
        "explainer.prepare_query.skipped_ratio":
            counts.get("explainer.prepare_query.skipped", 0) / preps if preps else 0.0,
        "explainer.encode_and_score.calls": calls.get("explainer.encode_and_score", 0),
        "explainer.encode_and_score.s": total.get("explainer.encode_and_score", 0.0),
        "explainer.query_objective.calls": calls.get("explainer.query_objective", 0),
        "metrics.cohesiveness.calls": calls.get("metrics.cohesiveness", 0),
        "trace.spans": sum(calls.values()),
    })
    return out
