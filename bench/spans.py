"""Span tracing of recflow's layers from outside the package.

``Tracer.install`` replaces the public functions of each recflow module (and
a few methods) with timing wrappers, at every place callers look them up:
the defining module's attribute, any other module that imported the function
by name (``flm`` imports ``sample_path`` from ``kg``) and module-level dicts
that hold it (``cli.HANDLERS``). ``uninstall`` restores the originals. No
file under ``src/`` changes.

Spans carry a name, start, end, parent span and attributes, and all spans of
one tracer share its run id. They stay in memory until ``write`` dumps them
once at the end. A span's self time is its duration minus the durations of
its direct children; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import time
import uuid

LAYERS = ("kg", "corpus", "schema", "flm", "embeddings", "recommender",
          "counterfactual", "realization", "autodiff", "pipeline", "cli")

# Only the autodiff entry points are layer boundaries; its tensor primitives
# run millions of times per workload, under the layers that call them.
AUTODIFF_BOUNDARY = ("backward", "optimizer_step", "save_checkpoint",
                     "load_checkpoint", "grad_check")

METHODS = {"flm": (("FlowLM", "decode"), ("FlowLM", "step_mask")),
           "pipeline": (("SimulatorBundle", "simulate"),)}

# Root spans the benchmark opens around its own phases.
SETUP, OP, CHECK = "bench.setup", "bench.op", "bench.check"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _checkpoint_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound_args(fn, args, kwargs)["path"])}


def _realize_turns(fn, args, kwargs, result):
    bank = _bound_args(fn, args, kwargs)["bank"]
    return {"turns": len(result.template_ids),
            "fallbacks": sum(t in bank.fallback_ids
                             for t in result.template_ids)}


def _sample_count(fn, args, kwargs, result):
    return {"samples": len(result)}


def _pretrain_flows(fn, args, kwargs, result):
    arguments = _bound_args(fn, args, kwargs)
    return {"flows": len(arguments["examples"]) * arguments["epochs"]}


# Attributes recorded at the boundary, so ratios are measured where the work
# happens: checkpoint size, fallback-template turns, rollout sample counts.
ANNOTATE = {"autodiff.save_checkpoint": _checkpoint_bytes,
            "realization.realize": _realize_turns,
            "realization.to_rec_samples": _sample_count,
            "flm.pretrain_flm": _pretrain_flows}


def layer_targets():
    """(owner, attribute, span name) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"recflow.{layer}")
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            if layer == "autodiff" and attr not in AUTODIFF_BOUNDARY:
                continue
            out.append((mod, attr, f"{layer}.{attr}"))
        for cls_name, method in METHODS.get(layer, ()):
            out.append((getattr(mod, cls_name), method,
                        f"{layer}.{cls_name}.{method}"))
    return out


class Tracer:
    def __init__(self, run_id=None):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.spans = []
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def phase(self, name):
        """A benchmark-level root span around a block."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name):
        tracer = self
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if annotate is not None:
                span.attrs = annotate(fn, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------
    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, name in layer_targets():
            original = getattr(owner, attr)
            wrapped[id(original)] = (original, self.wrap(original, name))
            self._patch_attr(owner, attr, original, wrapped[id(original)][1])
        # Aliases: names imported with ``from .x import f`` and dict entries.
        for layer in LAYERS:
            mod = importlib.import_module(f"recflow.{layer}")
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch_attr(mod, attr, value, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._restore.append(
                                functools.partial(value.__setitem__, key,
                                                  item))

    def _patch_attr(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._restore.append(functools.partial(setattr, owner, attr,
                                               original))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- output ---------------------------------------------------------------
    def write(self, path):
        """Dump every span as one JSON line (times in seconds)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": s.id,
                                     "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "attrs": s.attrs}) + "\n")


# -- analysis -----------------------------------------------------------------

class SpanIndex:
    """Self times, roots and children of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        child_time = [0.0] * len(spans)
        self.root = [0] * len(spans)
        for s in spans:
            if s.parent is None:
                self.root[s.id] = s.id
            else:
                self.root[s.id] = self.root[s.parent]
                child_time[s.parent] += s.duration
                self.children.setdefault(s.parent, []).append(s)
        self.self_time = [s.duration - child_time[s.id] for s in spans]

    def within(self, root_name):
        """Spans (roots excluded) under root spans named ``root_name``."""
        roots = {s.id for s in self.spans
                 if s.parent is None and s.name == root_name}
        inside = [s for s in self.spans
                  if s.parent is not None and self.root[s.id] in roots]
        return inside, len(roots)

    def has_ancestor(self, span, name):
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def _median_ms(durations):
    return statistics.median(durations) * 1e3 if durations else 0.0


def _train_steps(index, spans):
    """(rec_loss + backward, rec_loss + backward + optimizer_step) seconds of
    every recommender training step: the three spans back to back under one
    parent."""
    pattern = ("recommender.rec_loss", "autodiff.backward",
               "autodiff.optimizer_step")
    ids = {s.id for s in spans}
    steps = []
    for kids in index.children.values():
        if kids[0].id not in ids:
            continue
        for a, b, c in zip(kids, kids[1:], kids[2:]):
            if (a.name, b.name, c.name) == pattern:
                steps.append((a.duration + b.duration,
                              a.duration + b.duration + c.duration))
    return steps


def layer_metrics(index, root_name):
    """Per-layer metrics over the spans under ``root_name`` roots.

    Counts, self seconds and inclusive seconds are per root span (per
    operation, or per set-up); ``_ms`` values are medians per call of the
    inclusive duration; ratios come with their base as a separate count.
    """
    spans, n_roots = index.within(root_name)
    per = 1.0 / max(n_roots, 1)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) * per

    def self_s(*names):
        return sum(index.self_time[s.id] for n in names
                   for s in by_name.get(n, ())) * per

    def wall_s(name):
        return sum(s.duration for s in by_name.get(name, ())) * per

    def median_ms(name):
        return _median_ms([s.duration for s in by_name.get(name, ())])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()))

    steps = _train_steps(index, spans)
    reinforce = by_name.get("counterfactual.reinforce_step", ())
    in_reinforce = [s for s in by_name.get("embeddings.rgcn_forward", ())
                    if index.has_ancestor(s, "counterfactual.reinforce_step")]
    rollouts = [s for s in by_name.get("realization.to_rec_samples", ())
                if index.has_ancestor(s, "counterfactual.reinforce_step")]
    empty = sum(1 for s in rollouts if s.attrs["samples"] == 0)
    turns = attr_sum("realization.realize", "turns")
    flows = attr_sum("flm.pretrain_flm", "flows")
    pretrain_wall = sum(s.duration
                        for s in by_name.get("flm.pretrain_flm", ()))
    return {
        "embeddings.rgcn_forward_calls": calls("embeddings.rgcn_forward"),
        "embeddings.rgcn_forward_ms": median_ms("embeddings.rgcn_forward"),
        "recommender.train_step_ms": _median_ms([t for _, t in steps]),
        "recommender.loss_backward_ms": _median_ms([t for t, _ in steps]),
        "recommender.evaluate_s": self_s("recommender.evaluate"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.optimizer_step_s": self_s("autodiff.optimizer_step"),
        "autodiff.save_checkpoint_s": self_s("autodiff.save_checkpoint"),
        "autodiff.checkpoint_bytes":
            attr_sum("autodiff.save_checkpoint", "bytes") * per,
        "cli.load_workspace_s": wall_s("cli.load_workspace"),
        "corpus.load_dialogues_s": self_s("corpus.load_dialogues_file",
                                          "corpus.load_dialogues"),
        "flm.pretrain_s": wall_s("flm.pretrain_flm"),
        "flm.pretrain_flows": flows * per,
        "flm.pretrain_flows_per_s":
            flows / pretrain_wall if pretrain_wall else 0.0,
        "flm.decode_calls": calls("flm.FlowLM.decode"),
        "flm.decode_ms": median_ms("flm.generate_flows_batch"),
        "flm.step_mask_calls": calls("flm.FlowLM.step_mask"),
        "flm.score_ms": median_ms("flm.flow_log_probs_batch"),
        "counterfactual.reinforce_step_calls":
            calls("counterfactual.reinforce_step"),
        "counterfactual.reinforce_step_ms":
            median_ms("counterfactual.reinforce_step"),
        "counterfactual.rgcn_forwards_per_reinforce_step":
            len(in_reinforce) / len(reinforce) if reinforce else 0.0,
        "counterfactual.rollouts": len(rollouts) * per,
        "counterfactual.empty_rollout_ratio":
            empty / len(rollouts) if rollouts else 0.0,
        "counterfactual.train_baseline_s":
            wall_s("counterfactual.train_baseline"),
        "counterfactual.train_eda_s": wall_s("counterfactual.train_eda"),
        "counterfactual.train_augmented_s":
            wall_s("counterfactual.train_augmented"),
        "realization.realize_calls": calls("realization.realize"),
        "realization.realize_ms": median_ms("realization.realize"),
        "realization.turns": turns * per,
        "realization.fallback_ratio":
            attr_sum("realization.realize", "fallbacks") / turns
            if turns else 0.0,
        "schema.predict_ms": median_ms("schema.predict_schema"),
        "schema.mine_s": self_s("schema.mine_schemas"),
        "schema.classifier_train_s": self_s("schema.train_schema_classifier"),
        "pipeline.build_simulator_s": wall_s("pipeline.build_simulator"),
        "kg.attach_users_s": self_s("kg.attach_users"),
    }


# Set-up-scope metrics: the layers that move ``setup_s``.
SETUP_METRICS = ("embeddings.rgcn_forward_calls", "autodiff.backward_calls",
                 "flm.pretrain_s", "pipeline.build_simulator_s",
                 "kg.attach_users_s")


def per_layer_metrics(tracer, untraced_ms, traced_ms):
    """Every per-layer metric of a traced run, by name."""
    index = SpanIndex(tracer.spans)
    out = layer_metrics(index, OP)
    setup = layer_metrics(index, SETUP)
    out.update({f"setup.{name}": setup[name] for name in SETUP_METRICS})
    out["trace.untraced_op_ms"] = untraced_ms
    out["trace.overhead_ratio"] = traced_ms / untraced_ms
    return out
