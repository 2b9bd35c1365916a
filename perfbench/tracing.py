"""Span tracing, graph counters and per-layer metrics for the traced run.

The traced run installs wrappers at the module attributes that doclink's
own callers resolve at call time (``doclink.trainer.total_loss``,
``doclink.tensor.backward``, ``doclink.cli.evaluate`` ...).  A wrapper
replaces every binding of the same function object in every loaded
``doclink`` module, so ``from .x import f`` copies are covered too.  Only
public names are wrapped; a name a later version no longer has is skipped
and the metrics derived from it are reported as absent, never as zero.

Spans (name, start, end, parent, meta) stay in memory and are written out
when the run ends.  After each traced backward pass the graph is walked
through ``Tensor.node`` and ``Node.parents``; the walk has its own span,
which is subtracted from the training step it falls in.

How each per-layer metric aggregates:

* per training step, median over steps: ``trainer.step_ms_p50/p90``,
  ``trainer.adam_ms``, ``objective.loss_ms``, ``tensor.backward_ms`` and
  every node count;
* per call, median over calls: ``trainer.checkpoint_save_ms``,
  ``trainer.checkpoint_load_ms`` and ``corpus.*_ms``;
* per ``train()`` call (one epoch in every workload):
  ``trainer.val_pass_ms``;
* per pass, median over traced passes: ``encoder.*_ms``,
  ``nn.transformer_layer_ms``, ``evalmetrics.*``, ``diagnostics.*`` and
  ``cli.self_ms.<command>``, the span of the pass's phase that runs
  ``doclink <command>`` (or, on the library workloads, stands in for it)
  minus its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from collections import Counter

# (module, public attribute, span name); each becomes a span when present.
SPANNED = (
    ("doclink.corpus", "generate_synthetic", "corpus.generate"),
    ("doclink.corpus", "save_corpus", "corpus.save"),
    ("doclink.corpus", "load_corpus", "corpus.load"),
    ("doclink.encoder", "batch_representations", "encoder.batch_representations"),
    ("doclink.encoder", "encode_sentences", "encoder.sentences"),
    ("doclink.encoder", "encode_images", "encoder.images"),
    ("doclink.nn", "transformer_layer", "nn.transformer_layer"),
    ("doclink.objective", "total_loss", "objective.loss"),
    ("doclink.tensor", "backward", "tensor.backward"),
    ("doclink.trainer", "train", "trainer.train"),
    ("doclink.trainer", "adam_step", "trainer.adam"),
    ("doclink.trainer", "save_checkpoint", "trainer.checkpoint_save"),
    ("doclink.trainer", "load_checkpoint", "trainer.checkpoint_load"),
    ("doclink.evalmetrics", "evaluate", "evalmetrics.evaluate"),
    ("doclink.evalmetrics", "evaluate_matrices", "evalmetrics.scoring"),
    ("doclink.diagnostics", "bias_report", "diagnostics.bias_report"),
    ("doclink.diagnostics", "document_spreads", "diagnostics.spreads"),
    ("doclink.diagnostics", "spread_regression", "diagnostics.regression"),
)

GRAPH_WALK = "bench.graph_walk"
PASS = "bench.pass"
CLI_PREFIX = "cli."
NODE_PREFIX = "tensor.nodes."

# Span name -> per-layer metric, aggregated as described in the module doc.
PER_CALL = {
    "trainer.checkpoint_save": "trainer.checkpoint_save_ms",
    "trainer.checkpoint_load": "trainer.checkpoint_load_ms",
    "corpus.generate": "corpus.generate_ms",
    "corpus.save": "corpus.save_ms",
    "corpus.load": "corpus.load_ms",
}
PER_PASS = {
    "encoder.sentences": "encoder.sentences_ms",
    "encoder.images": "encoder.images_ms",
    "nn.transformer_layer": "nn.transformer_layer_ms",
    "evalmetrics.evaluate": "evalmetrics.evaluate_ms",
    "evalmetrics.scoring": "evalmetrics.scoring_ms",
    "diagnostics.bias_report": "diagnostics.bias_report_ms",
    "diagnostics.spreads": "diagnostics.spreads_ms",
    "diagnostics.regression": "diagnostics.regression_ms",
}


def count_graph(roots) -> dict:
    """Graph nodes reachable from ``roots``: {id(tensor): Node.name}."""
    seen = {}
    stack = list(roots)
    while stack:
        t = stack.pop()
        node = t.node
        if node is None or id(t) in seen:
            continue
        seen[id(t)] = node.name
        stack.extend(node.parents)
    return seen


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(spans, index: int) -> float:
    """A span's duration minus the part its direct children cover."""
    _, start, end, _, _ = spans[index]
    children = [(s[1], s[2]) for s in spans if s[3] == index]
    return (end - start) - covered(children)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, meta]
        self.steps = []  # per traced backward: node counts of the graph
        self.hinge_terms = 0
        self.hinge_active = 0
        self.missing = []  # wrapped names this doclink no longer has
        self._open = []
        self._restore = []
        self._reps = None
        self._suspended = False

    # ---- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **meta):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, meta]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    @contextlib.contextmanager
    def suspended(self):
        """Call through the wrappers without recording (output checks)."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    # ---- wrappers --------------------------------------------------------
    def install(self, doclink_tensor) -> None:
        grad = doclink_tensor.is_grad_enabled
        for module_name, attr, span_name in SPANNED:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._replace(fn, self._spanned(fn, span_name, grad))
        hinge = getattr(sys.modules.get("doclink.objective"), "hinge", None)
        if hinge is None:
            self.missing.append("doclink.objective.hinge")
        else:
            self._replace(hinge, self._hinge_counter(hinge, grad))
        no_grad = getattr(doclink_tensor, "no_grad", None)
        if no_grad is None:
            self.missing.append("doclink.tensor.no_grad")
        else:
            self._replace(no_grad, self._no_grad_span(no_grad))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _replace(self, fn, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "doclink" or name.startswith("doclink.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def _spanned(self, fn, span_name: str, grad):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            with tracer.span(span_name, grad=grad()) as record:
                out = fn(*args, **kwargs)
            if span_name == "encoder.batch_representations" and record[4]["grad"]:
                tracer._reps = out
            elif span_name == "tensor.backward":
                tracer._walk(args[0])
            elif span_name in SIZES:
                try:
                    record[4].update(SIZES[span_name](args, kwargs))
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass  # a changed signature loses the size, not the run
            return out

        return wrapper

    def _hinge_counter(self, fn, grad):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not tracer._suspended and grad():
                tracer.hinge_terms += out.data.size
                tracer.hinge_active += int((out.data > 0.0).sum())
            return out

        return wrapper

    def _no_grad_span(self, fn):
        tracer = self

        @contextlib.contextmanager
        def wrapper():
            if tracer._suspended:
                with fn():
                    yield
                return
            with tracer.span("tensor.no_grad", grad=False), fn():
                yield

        return wrapper

    def _walk(self, loss) -> None:
        """Node counts of the step graph, split into encoder and objective."""
        with self.span(GRAPH_WALK):
            total = count_graph([loss])
            graph = {"ops": Counter(total.values()), "total": len(total),
                     "encoder": None, "objective": None}
            if self._reps is not None:
                reps = [t for pair in self._reps for t in pair]
                encoder = len(count_graph(reps).keys() & total.keys())
                graph.update(encoder=encoder, objective=len(total) - encoder)
            self.steps.append(graph)
            self._reps = None


def _checkpoint_size(args, kwargs) -> dict:
    """Bytes on disk and float values handed to save_checkpoint."""
    path = str(args[0] if args else kwargs["path"])
    params = args[1] if len(args) > 1 else kwargs["params"]
    optimizer = args[2] if len(args) > 2 else kwargs["optimizer"]
    folder = os.path.dirname(path) or "."
    stem = os.path.basename(path)
    size = sum(
        os.path.getsize(os.path.join(folder, n))
        for n in os.listdir(folder)
        if n.startswith(stem) and not n.endswith(".tmp")
    )
    values = sum(t.data.size for t in params.named_parameters().values())
    for moments in (getattr(optimizer, "m", {}), getattr(optimizer, "v", {})):
        values += sum(a.size for a in moments.values() if a is not None)
    return {"bytes": size, "values": values}


def _corpus_size(args, kwargs) -> dict:
    """Bytes on disk and documents handed to save_corpus."""
    corpus = args[0] if args else kwargs["corpus"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path), "docs": len(corpus.documents)}


# Span name -> reader of the sizes its call wrote, kept in the span's meta.
SIZES = {"trainer.checkpoint_save": _checkpoint_size, "corpus.save": _corpus_size}


# ---- analysis --------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def _percentile(values, q: int):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _within(spans, start: float, end: float):
    return [i for i, s in enumerate(spans) if s[1] >= start and s[2] <= end]


def _duration(span) -> float:
    return span[2] - span[1]


def training_steps(spans) -> list:
    """Steps inside each trainer.train span: from a grad-enabled
    batch_representations call to the end of the following adam step.
    Each is a dict of milliseconds per part, graph walks excluded."""
    steps = []
    for train_span in (s for s in spans if s[0] == "trainer.train"):
        inside = [spans[i] for i in _within(spans, train_span[1], train_span[2])]
        current = None
        for s in inside:
            if s[0] == "encoder.batch_representations" and s[4].get("grad"):
                current = {"start": s[1], "loss": 0.0, "backward": 0.0, "walk": 0.0}
            elif current is None:
                continue
            elif s[0] == "objective.loss" and s[4].get("grad"):
                current["loss"] += _duration(s)
            elif s[0] == "tensor.backward":
                current["backward"] += _duration(s)
            elif s[0] == GRAPH_WALK:
                current["walk"] += _duration(s)
            elif s[0] == "trainer.adam":
                steps.append(
                    {
                        "step_ms": 1e3 * (s[2] - current["start"] - current["walk"]),
                        "loss_ms": 1e3 * current["loss"],
                        "backward_ms": 1e3 * current["backward"],
                        "adam_ms": 1e3 * _duration(s),
                    }
                )
                current = None
    return steps


def val_pass_ms(spans) -> list:
    """Grad-disabled time inside each train() call (its validation pass)."""
    out = []
    for train_span in (s for s in spans if s[0] == "trainer.train"):
        inside = [spans[i] for i in _within(spans, train_span[1], train_span[2])]
        intervals = [(s[1], s[2]) for s in inside if s[4].get("grad") is False]
        if intervals:
            out.append(1e3 * covered(intervals))
    return out


def per_layer_metrics(tracer: Tracer, ops=()) -> tuple:
    """(metrics {name: (value, unit)}, sample counts {name: n}).  Every op
    in ``ops`` gets a node count, 0 when no counted graph has it."""
    spans = tracer.spans
    metrics = {}
    samples = {}

    def put(name, values, unit, reduce=_median):
        values = [v for v in values if v is not None]
        if values:
            metrics[name] = (reduce(values), unit)
            samples[name] = len(values)

    steps = training_steps(spans)
    put("trainer.step_ms_p50", [s["step_ms"] for s in steps], "ms")
    put("trainer.step_ms_p90", [s["step_ms"] for s in steps], "ms",
        lambda v: _percentile(v, 90))
    put("trainer.adam_ms", [s["adam_ms"] for s in steps], "ms")
    if any(s["loss_ms"] for s in steps):
        put("objective.loss_ms", [s["loss_ms"] for s in steps], "ms")
    if any(s["backward_ms"] for s in steps):
        put("tensor.backward_ms", [s["backward_ms"] for s in steps], "ms")
    put("trainer.val_pass_ms", val_pass_ms(spans), "ms")

    graphs = tracer.steps
    put("tensor.nodes_per_step", [g["total"] for g in graphs], "count")
    put("encoder.nodes_per_step", [g["encoder"] for g in graphs], "count")
    put("objective.nodes_per_step", [g["objective"] for g in graphs], "count")
    for op in sorted({op for g in graphs for op in g["ops"]} | set(ops if graphs else ())):
        put(NODE_PREFIX + op, [g["ops"].get(op, 0) for g in graphs], "count")
    if "tensor.backward_ms" in metrics and "tensor.nodes_per_step" in metrics:
        per_node = 1e3 * metrics["tensor.backward_ms"][0] / metrics["tensor.nodes_per_step"][0]
        metrics["tensor.backward_us_per_node"] = (per_node, "us")
        samples["tensor.backward_us_per_node"] = samples["tensor.backward_ms"]
    if tracer.hinge_terms:
        metrics["objective.active_hinge_frac"] = (
            tracer.hinge_active / tracer.hinge_terms, "ratio")
        samples["objective.active_hinge_frac"] = tracer.hinge_terms

    for span_name, metric in PER_CALL.items():
        put(metric, [1e3 * _duration(s) for s in spans if s[0] == span_name], "ms")
    saves = [s[4] for s in spans if s[0] == "trainer.checkpoint_save" and s[4].get("values")]
    put("trainer.checkpoint_bytes_per_value", [m["bytes"] / m["values"] for m in saves], "B")
    corpus_saves = [s[4] for s in spans if s[0] == "corpus.save"]
    put("corpus.bytes_per_doc", [m["bytes"] / m["docs"] for m in corpus_saves if m["docs"]], "B")

    passes = [i for i, s in enumerate(spans) if s[0] == PASS]
    totals = {}
    for p in passes:
        inside = [spans[i] for i in _within(spans, spans[p][1], spans[p][2])]
        for span_name, metric in PER_PASS.items():
            durations = [_duration(s) for s in inside if s[0] == span_name]
            if durations:
                totals.setdefault(metric, []).append(1e3 * sum(durations))
        for i in _within(spans, spans[p][1], spans[p][2]):
            if spans[i][0].startswith(CLI_PREFIX):
                metric = "cli.self_ms." + spans[i][0][len(CLI_PREFIX):]
                totals.setdefault(metric, []).append(1e3 * self_time(spans, i))
    for metric, values in totals.items():
        put(metric, values, "ms")
    return metrics, samples


def objective_share(spans) -> float | None:
    """Share of traced pass time spent in the objective (all calls)."""
    passes = [s for s in spans if s[0] == PASS]
    if not passes:
        return None
    pass_time = sum(_duration(p) for p in passes)
    walks = sum(_duration(s) for s in spans if s[0] == GRAPH_WALK)
    loss = covered([(s[1], s[2]) for s in spans if s[0] == "objective.loss"])
    return loss / (pass_time - walks)
