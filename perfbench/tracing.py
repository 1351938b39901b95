"""Span tracing from outside the package, and its reduction to per-layer metrics.

``Instrumentation`` swaps the package's public functions, the tape ops and a
few methods for wrappers that record spans (name, start, end, parent) into a
``Tracer`` held in memory. The package imports many names directly
(``from .autograd import log_softmax``), so each wrapper replaces the
original object under every name that any ``monodistil`` module binds it to.
``restore`` puts the originals back, so traced and untraced iterations can
alternate in one process.

Span names are ``<layer>.<what>``; the layer is the package module. Tape ops
are ``autograd.<op>`` for the forward call and ``autograd.<op>.bwd`` for the
backward closure the op recorded. Spans named ``trace.*`` are the tracer's
own bookkeeping and ``bench.*`` the benchmark's glue.
"""

from __future__ import annotations

import gc
import resource
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

LAYERS = ("cli", "synth", "tokenizer", "data", "model", "autograd", "losses", "optim",
          "distill", "harness", "checkpoint", "metrics")

# tape ops reported as metrics; EXTRA_OPS are traced and tabled only
OPS = ("matmul", "add", "mul", "layer_norm", "softmax", "log_softmax", "gelu", "embedding",
       "gather_rows", "take_index", "select", "reshape", "transpose", "sum", "exp", "dropout")
EXTRA_OPS = ("neg", "pow", "log", "slice_leading")

_MODULE_OPS = ("matmul", "embedding", "gather_rows", "take_index", "select", "slice_leading",
               "dropout", "softmax", "log_softmax", "layer_norm")
_TENSOR_OPS = {"__add__": "add", "__mul__": "mul", "__neg__": "neg", "__pow__": "pow",
               "reshape": "reshape", "transpose": "transpose", "sum": "sum", "exp": "exp",
               "log": "log", "gelu": "gelu"}

# (module, attribute, span name); a shared span name pools the functions
_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "prepare_run", "cli.prepare_run"),
    ("synth", "generate_bundle", "synth.generate_bundle"),
    ("synth", "write_bundle", "synth.write_bundle"),
    ("tokenizer", "train_vocab", "tokenizer.train_vocab"),
    ("tokenizer", "encode", "tokenizer.encode"),
    ("tokenizer", "encode_words", "tokenizer.encode"),
    ("data", "load_corpus", "data.load_corpus"),
    ("data", "encode_corpus", "data.encode_corpus"),
    ("model", "forward_sequence_cls", "model.forward_cls"),
    ("model", "forward_token_cls", "model.forward_cls"),
    ("model", "init_random", "model.init"),
    ("model", "clone_model", "model.init"),
    ("losses", "kl_divergence", "losses.kl_divergence"),
    ("losses", "cross_entropy", "losses.cross_entropy"),
    ("losses", "cross_entropy_masked", "losses.cross_entropy_masked"),
    ("distill", "distill_loss", "losses.distill_loss"),
    ("distill", "_train_mlm_loop", "distill.loop"),
    ("distill", "evaluate_masked", "distill.evaluate_masked"),
    ("distill", "distill_run", "distill.run"),
    ("distill", "pretrain_mlm", "distill.run"),
    ("optim", "clip_grad_norm", "optim.clip_grad_norm"),
    ("harness", "_evaluate_task", "harness.eval"),
    ("harness", "measure_speedup", "harness.measure_speedup"),
    ("harness", "emit_report", "harness.emit_report"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "load_finetuned", "checkpoint.load"),
    ("metrics", "accuracy", "metrics.accuracy"),
    ("metrics", "span_f1", "metrics.span_f1"),
)


class Tracer:
    """Spans kept in parallel lists; counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.codes: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[tuple[str, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.in_op = False
        self._stack = [-1]

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def begin(self, code: int) -> int:
        i = len(self.codes)
        self.codes.append(code)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(perf_counter_ns())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = perf_counter_ns()
        self._stack.pop()

    def run(self, run_id: str, fn):
        """Call ``fn`` under one root span; its spans share ``run_id``."""
        lo = len(self.codes)
        self.counters = defaultdict(float)
        i = self.begin(self.code("bench.iteration"))
        try:
            return fn()
        finally:
            self.end(i)
            self.runs.append((run_id, lo, len(self.codes)))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span,parent,name,start_ns,end_ns\n")
            for run_id, lo, hi in self.runs:
                for i in range(lo, hi):
                    fh.write(f"{run_id},{i},{self.parents[i]},{self.names[self.codes[i]]},"
                             f"{self.starts[i]},{self.ends[i]}\n")


def _graph(root) -> list:
    seen: set[int] = set()
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


class Instrumentation:
    """Install span wrappers into the imported package; ``restore`` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._modules = [m for name, m in sys.modules.items()
                         if name == "monodistil" or name.startswith("monodistil.")]
        pkg = sys.modules["monodistil"]
        self._ag = pkg.autograd
        for mod, attr, name in _FUNCTIONS:
            self._replace(getattr(pkg, mod), attr, self._span(name))
        self._replace(pkg.model, "forward_mlm", self._forward_mlm)
        self._replace(pkg.data, "make_mlm_batch",
                      self._counted("data.make_mlm_batch", self._count_mlm_batch))
        self._replace(pkg.data, "make_labeled_batches",
                      self._counted("data.make_labeled_batches",
                                    lambda c, result, *args: _count_padding(c, result[0])))
        self._replace(pkg.harness, "finetune", self._counted("harness.finetune", _count_finetune))
        self._replace(pkg.checkpoint, "save_checkpoint",
                      self._counted("checkpoint.save", _count_checkpoint_bytes))
        for op in _MODULE_OPS:
            self._replace(self._ag, op, self._op(op))
        tensor = self._ag.Tensor
        for attr, op in _TENSOR_OPS.items():
            self._replace(tensor, attr, self._op(op))
        self._replace(tensor, "backward", self._backward)
        self._replace(pkg.optim.AdamW, "step",
                      self._counted("optim.adamw_step", _count_adamw_params))
        self._gc_started = 0.0
        self._last_batch = (None, 0)
        gc.callbacks.append(self._gc)

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        """Rebind every name under which a package module (or ``owner``, a
        class) holds the original, so imports by name see the wrapper."""
        original = getattr(owner, attr)
        wrapper = make(original)
        targets = [owner] if isinstance(owner, type) else self._modules
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, original))

    def restore(self) -> None:
        gc.callbacks.remove(self._gc)
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.tracer.counters["gc_pause_s"] += perf_counter() - self._gc_started
            self.tracer.counters["gc_collected"] += info.get("collected", 0)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str):
        tracer = self.tracer
        code = tracer.code(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                i = tracer.begin(code)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(i)
            return wrapper
        return make

    def _op(self, op: str):
        """Outermost tape op only: an op called inside another op (the
        multiply inside dropout) counts as part of the outer one, and so
        does the backward closure it recorded."""
        tracer = self.tracer
        fwd, bwd = tracer.code(f"autograd.{op}"), tracer.code(f"autograd.{op}.bwd")

        def make(fn):
            def wrapper(*args, **kwargs):
                if tracer.in_op:
                    return fn(*args, **kwargs)
                tracer.in_op = True
                i = tracer.begin(fwd)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(i)
                    tracer.in_op = False
                back = out._backward
                if back is not None and all(out is not a for a in args):
                    def timed_back():
                        j = tracer.begin(bwd)
                        try:
                            back()
                        finally:
                            tracer.end(j)
                    out._backward = timed_back
                return out
            return wrapper
        return make

    def _backward(self, fn):
        tracer = self.tracer
        span, count = tracer.code("autograd.backward"), tracer.code("trace.count")

        def wrapper(loss):
            i = tracer.begin(count)
            nodes = _graph(loss)
            fresh = [n for n in nodes if n.grad is None]
            tracer.end(i)
            i = tracer.begin(span)
            try:
                fn(loss)
            finally:
                tracer.end(i)
            i = tracer.begin(count)
            c = tracer.counters
            c["backward_calls"] += 1
            c["tape_nodes"] += sum(1 for n in nodes if n._backward is not None)
            c["grad_allocs"] += sum(1 for n in fresh if n.grad is not None)
            tracer.end(i)
        return wrapper

    def _forward_mlm(self, fn):
        """Span named by grad mode; counts projected and masked rows."""
        tracer, ag = self.tracer, self._ag
        grad, nograd = tracer.code("model.forward_mlm_grad"), tracer.code("model.forward_mlm_nograd")
        count = tracer.code("trace.count")

        def wrapper(model, token_ids, attention_mask, *args, **kwargs):
            i = tracer.begin(grad if ag._GRAD_ENABLED else nograd)
            try:
                return fn(model, token_ids, attention_mask, *args, **kwargs)
            finally:
                tracer.end(i)
                j = tracer.begin(count)
                c = tracer.counters
                c["mlm_projected_rows"] += np.asarray(token_ids).size
                if self._last_batch[0] == id(token_ids):
                    c["mlm_useful_rows"] += self._last_batch[1]
                tracer.end(j)
        return wrapper

    def _counted(self, name: str, count):
        """Span wrapper that then calls ``count(result, *args)``, under a
        ``trace.count`` span, to record counters."""
        tracer = self.tracer
        code, counting = tracer.code(name), tracer.code("trace.count")

        def make(fn):
            def wrapper(*args, **kwargs):
                i = tracer.begin(code)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(i)
                j = tracer.begin(counting)
                count(tracer.counters, result, *args)
                tracer.end(j)
                return result
            return wrapper
        return make

    def _count_mlm_batch(self, c, batch, *args) -> None:
        masked = int(batch.mlm_mask.sum())
        c["masked_positions"] += masked
        self._last_batch = (id(batch.token_ids), masked)
        _count_padding(c, [batch])


def _count_padding(c, batches) -> None:
    for b in batches:
        c["positions"] += b.attention_mask.size
        c["pad_positions"] += b.attention_mask.size - int(b.attention_mask.sum())


def _count_finetune(c, result, model, task, vocab, model_name, *args) -> None:
    c[f"finetune_train_s.{model_name}_{task.name}"] += result[2].runtime_seconds


def _count_checkpoint_bytes(c, result, model, path, *args) -> None:
    c["checkpoint_bytes"] += sum(f.stat().st_size for f in Path(path).iterdir())


def _count_adamw_params(c, result, opt) -> None:
    c["adamw_params"] += sum(1 for p in opt.params.values() if p.requires_grad)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Reduction:
    """Aggregates of one run's spans: per-name calls, inclusive and self
    seconds, and self seconds per layer inside ``distill.loop``."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        n_names = len(tracer.names)
        codes = np.asarray(tracer.codes[lo:hi], dtype=np.int64)
        start = np.asarray(tracer.starts[lo:hi], dtype=np.int64)
        end = np.asarray(tracer.ends[lo:hi], dtype=np.int64)
        parent = np.asarray(tracer.parents[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        dur = (end - start) / 1e9
        linked = parent >= 0
        child = np.bincount(parent[linked], weights=dur[linked], minlength=len(codes))
        self_s = dur - child
        self.names = tracer.names
        self.calls = np.bincount(codes, minlength=n_names)
        self.inclusive = np.bincount(codes, weights=dur, minlength=n_names)
        self.self_s = np.bincount(codes, weights=self_s, minlength=n_names)
        self.counters = dict(tracer.counters)

        layer_of = [name.split(".", 1)[0] for name in tracer.names]
        loop = tracer._codes.get("distill.loop", -1)
        in_loop = np.zeros(len(codes), dtype=bool)
        for i, (c, p) in enumerate(zip(codes.tolist(), parent.tolist())):
            in_loop[i] = c == loop or (p >= 0 and in_loop[p])
        self.loop_layers: dict[str, float] = defaultdict(float)
        self.layers: dict[str, float] = defaultdict(float)
        loop_self = np.bincount(codes[in_loop], weights=self_s[in_loop], minlength=n_names)
        for c in range(n_names):
            self.layers[layer_of[c]] += float(self.self_s[c])
            self.loop_layers[layer_of[c]] += float(loop_self[c])

    def _get(self, table, name: str) -> float:
        try:
            return float(table[self.names.index(name)])
        except ValueError:
            return 0.0

    def count(self, name: str) -> int:
        return int(self._get(self.calls, name))

    def incl(self, name: str) -> float:
        return self._get(self.inclusive, name)

    def self_time(self, name: str) -> float:
        return self._get(self.self_s, name)

    def metrics(self, steps: int) -> dict[str, float]:
        """Per-layer metrics of this run (seconds are per run)."""
        c = self.counters
        m: dict[str, float] = {}
        for op in OPS:
            m[f"autograd.{op}.fwd_s"] = self.self_time(f"autograd.{op}")
            m[f"autograd.{op}.bwd_s"] = self.self_time(f"autograd.{op}.bwd")
        calls = c.get("backward_calls", 0)
        m["autograd.backward_s"] = self.self_time("autograd.backward")
        m["autograd.nodes_per_step"] = c.get("tape_nodes", 0) / calls if calls else 0.0
        m["autograd.grad_allocs_per_step"] = c.get("grad_allocs", 0) / calls if calls else 0.0
        m["autograd.gc_pause_s"] = c.get("gc_pause_s", 0.0)
        m["autograd.gc_collected"] = c.get("gc_collected", 0)
        m["autograd.minor_faults"] = c.get("minor_faults", 0)
        m["model.forward_mlm_grad_s"] = self.incl("model.forward_mlm_grad")
        m["model.forward_mlm_nograd_s"] = self.incl("model.forward_mlm_nograd")
        m["model.forward_cls_s"] = self.incl("model.forward_cls")
        projected = c.get("mlm_projected_rows", 0)
        m["model.mlm_head_useful_ratio"] = c.get("mlm_useful_rows", 0) / projected if projected else 0.0
        for name in ("distill_loss", "kl_divergence", "cross_entropy_masked"):
            m[f"losses.{name}_s"] = self.incl(f"losses.{name}")
        m["optim.adamw_step_s"] = self.incl("optim.adamw_step")
        m["optim.clip_grad_norm_s"] = self.incl("optim.clip_grad_norm")
        adam = self.count("optim.adamw_step")
        m["optim.params_per_step"] = c.get("adamw_params", 0) / adam if adam else 0.0
        for name in ("make_mlm_batch", "encode_corpus", "load_corpus", "make_labeled_batches"):
            m[f"data.{name}_s"] = self.incl(f"data.{name}")
        m["data.masked_positions"] = c.get("masked_positions", 0)
        positions = c.get("positions", 0)
        m["data.pad_frac"] = c.get("pad_positions", 0) / positions if positions else 0.0
        m["distill.loop_self_s"] = self.self_time("distill.loop")
        m["distill.evaluate_masked_s"] = self.incl("distill.evaluate_masked")
        m["distill.steps"] = steps
        for key in FINETUNE_KEYS:
            m[f"harness.finetune_train_s.{key}"] = c.get(f"finetune_train_s.{key}", 0.0)
        m["harness.eval_s"] = self.incl("harness.eval")
        m["checkpoint.save_s"] = self.incl("checkpoint.save")
        m["checkpoint.load_s"] = self.incl("checkpoint.load")
        m["checkpoint.bytes"] = c.get("checkpoint_bytes", 0)
        m["tokenizer.encode_s"] = self.incl("tokenizer.encode")
        m["cli.prepare_run_s"] = self.incl("cli.prepare_run")
        for layer in LAYERS:
            if layer != "synth":
                m[f"{layer}.self_s"] = self.layers.get(layer, 0.0)
        return m


FINETUNE_KEYS = ("mBERT_cls", "mBERT_tag", "dBERT_cls", "dBERT_tag")
