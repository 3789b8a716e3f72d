"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps every public module-level function of the covdec
modules, in every covdec module that holds it by name (so `adam_step` is
wrapped in `covdec.params` and in `covdec.training`, which imported it), plus
`Node.backward`. Each call records a span: name, start, end and the index of
the enclosing span. Every Node that a public autodiff op returns gets its
backward closure wrapped too, so backward time is attributed to the op that
built the node. `Node.__init__` is wrapped only to count nodes.

`as_tensor` is left unwrapped: it runs once inside every `Node.__init__`, so
`autodiff.nodes` already counts it, and a span per call would double the
tracing cost.

Spans live in flat arrays and are written out with `save()`.
`layer_metrics()` reduces them to the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import array
import importlib
import inspect
import os
import time

import numpy as np

MODULES = (
    "autodiff", "params", "data", "covariance", "branches", "autoenc",
    "config", "training", "report", "gradcheck", "cli",
)
POINTWISE_OPS = ("add", "mul", "relu", "sigmoid", "tanh", "reshape", "concat")
LOSS_OPS = ("softmax_xent", "mse")
UNTRACED = ("autodiff.as_tensor",)


def _path_arg(args, kwargs, index):
    return kwargs["path"] if "path" in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self._stack = [-1]
        self.counters = {"autodiff.nodes": 0, "params.bytes_written": 0, "data.bytes_read": 0}
        self._undo: list[tuple[object, str, object]] = []
        # byte counters, read from the file a call wrote or read
        self._hooks = {
            "params.save": lambda a, k: self._count("params.bytes_written", _path_arg(a, k, 1)),
            "data.load_trial": lambda a, k: self._count("data.bytes_read", _path_arg(a, k, 0)),
            "data.load_manifest": lambda a, k: self._count("data.bytes_read", _path_arg(a, k, 0)),
        }

    def _count(self, key: str, path) -> None:
        self.counters[key] += os.path.getsize(path)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, node_cls):
        nid = self._id(name)
        hook = self._hooks.get(name)
        is_op = fn.__module__ == "covdec.autodiff" and "." not in fn.__qualname__
        bwd_id = self._id(name + ".backward") if is_op else -1
        op = fn.__name__
        span = self._span

        def wrapper(*args, **kwargs):
            result = span(nid, fn, args, kwargs)
            if (is_op and type(result) is node_cls and result.op == op
                    and result._backward is not None):
                inner = result._backward
                result._backward = lambda g: span(bwd_id, inner, (g,), {})
            if hook is not None:
                hook(args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        import covdec
        from covdec.autodiff import Node

        modules = [importlib.import_module(f"covdec.{m}") for m in MODULES] + [covdec]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("covdec."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if name in UNTRACED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name, Node)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

        backward = Node.__dict__["backward"]
        init = Node.__dict__["__init__"]
        counters = self.counters

        def counting_init(node, *args, **kwargs):
            counters["autodiff.nodes"] += 1
            init(node, *args, **kwargs)

        self._undo += [(Node, "backward", backward), (Node, "__init__", init)]
        Node.backward = self._wrap(backward, "autodiff.Node.backward", Node)
        Node.__init__ = counting_init

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def save(self, path) -> None:
        nid, start, end, parent = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start=start, end=end, parent=parent)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over every recorded span; times are inclusive
        except `cli.self_s`, which is cli.main minus its child spans."""
        nid, start, end, parent = self._arrays()
        dur = end - start

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def mask(*names):
            return np.isin(nid, ids(*names))

        def total(*names):
            return float(dur[mask(*names)].sum())

        def calls(*names):
            return int(np.count_nonzero(mask(*names)))

        def children_of(child: str, parent_name: str):
            sel = np.flatnonzero(mask(child))
            return sel[np.isin(nid[parent[sel]], ids(parent_name)) & (parent[sel] >= 0)]

        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        cli_spans = mask("cli.main")
        stage1 = children_of("training.train_stage1", "training.run_training")
        final_evals = children_of("training.evaluate_matrices", "training.run_training")

        ops = [f"autodiff.{op}" for op in POINTWISE_OPS]
        s, n = "s", "count"
        return {
            "autodiff.conv1d.fwd_s": (total("autodiff.conv1d"), s),
            "autodiff.conv1d.bwd_s": (total("autodiff.conv1d.backward"), s),
            "autodiff.conv1d.calls": (calls("autodiff.conv1d"), n),
            "autodiff.linear.fwd_s": (total("autodiff.linear"), s),
            "autodiff.linear.bwd_s": (total("autodiff.linear.backward"), s),
            "autodiff.linear.calls": (calls("autodiff.linear"), n),
            "autodiff.lstm_cell.fwd_s": (total("autodiff.lstm_cell"), s),
            "autodiff.lstm_cell.calls": (calls("autodiff.lstm_cell"), n),
            "autodiff.pointwise.fwd_s": (total(*ops), s),
            "autodiff.pointwise.bwd_s": (total(*[o + ".backward" for o in ops]), s),
            "autodiff.loss.fwd_s": (total(*[f"autodiff.{o}" for o in LOSS_OPS]), s),
            "autodiff.backward_s": (total("autodiff.Node.backward"), s),
            "autodiff.nodes": (self.counters["autodiff.nodes"], n),
            "params.adam_step_s": (total("params.adam_step"), s),
            "params.adam_step_calls": (calls("params.adam_step"), n),
            "params.load_s": (total("params.load"), s),
            "params.save_s": (total("params.save"), s),
            "params.bytes_written": (self.counters["params.bytes_written"], "B"),
            "data.load_s": (total("data.load_trial", "data.load_manifest"), s),
            "data.bytes_read": (self.counters["data.bytes_read"], "B"),
            "covariance.ccv_s": (total("covariance.ccv"), s),
            "covariance.ccv_calls": (calls("covariance.ccv"), n),
            "covariance.standardize_s": (total("covariance.standardize"), s),
            "branches.cnn_s": (total("branches.cnn_graph"), s),
            "branches.rnn_s": (total("branches.rnn_graph"), s),
            "autoenc.dae_s": (total("autoenc.dae_graph"), s),
            "autoenc.head_s": (total("autoenc.head_graph"), s),
            "training.prep_s": (float((start[stage1] - start[parent[stage1]]).sum()), s),
            "training.stage1_s": (total("training.train_stage1"), s),
            "training.stage2_s": (total("training.train_stage2"), s),
            "training.stage3_s": (total("training.train_stage3"), s),
            "training.eval_s": (float(dur[final_evals].sum()), s),
            "report.save_run_s": (total("report.save_run"), s),
            "report.load_artifacts_s": (total("report.load_artifacts"), s),
            "cli.self_s": (float((dur[cli_spans] - child_time[cli_spans]).sum()), s),
            "trace.spans": (len(dur), n),
        }
