"""Per-layer tracing of exitsim, installed from outside the package.

``Tracer.install`` wraps the public functions of the layer modules
(``synth``, ``cascade``, ``bandit``, ``distill``) plus the two methods
the hot paths call (``TokenTrace.from_arrays`` and
``SyntheticConfidenceModel.confidence_matrix``).  Each original function
gets exactly one wrapper, and that wrapper replaces the function at every
binding inside ``exitsim.*``, so ``exitsim.cli.decide_exit`` and
``exitsim.bandit.decide_exit`` feed the same counters.  Generator
functions are timed per ``next()``.

Self time is a call's duration minus that of the wrapped calls made
inside it.  Per-token functions only add to a count and a time; every
other wrapped call also becomes a span with a parent id, kept in memory
and written out by ``write_spans`` when the run ends.  Garbage-collector
pauses are timed through ``gc.callbacks``; they overlap whichever
function was running and are reported as their own layer.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("synth", "cascade", "bandit", "distill")

# Called once per token, image or epoch: aggregated, never a span.
# Generator functions are timed per next() and never make spans either.
FINE_GRAINED = frozenset(
    {
        "cascade.decide_exit",
        "cascade.TokenTrace.from_arrays",
        "bandit.reward",
        "bandit.update",
        "bandit.ucb_select",
        "synth.sample_batch",
        "synth.sample_image",
        "distill.softmax",
        "distill.finetune_loss",
    }
)

STAGE_TWO_VARIANTS = ("ce", "kl", "both")

# (name, unit) of every per-layer metric, in report order.  Units "s",
# "ms" and "ns" are timings; every other unit is a count that must repeat
# exactly between runs at one seed.
LAYER_METRICS = (
    ("synth.sample_batch.calls", "count"),
    ("synth.sample_batch.self_s", "s"),
    ("synth.sample_image.self_s", "s"),
    ("synth.tokens_sampled", "count"),
    ("synth.consumed_ratio", "ratio"),
    ("synth.confidence_matrix.rows", "count"),
    ("synth.confidence_matrix.self_s", "s"),
    ("synth.write_traces.bytes", "bytes"),
    ("synth.write_traces.self_s", "s"),
    ("synth.read_traces.bytes", "bytes"),
    ("synth.read_traces.images", "count"),
    ("synth.read_traces.self_s", "s"),
    ("cascade.decide_exit.calls", "count"),
    ("cascade.decide_exit.self_s", "s"),
    ("cascade.decide_exit.ns_per_call", "ns"),
    ("cascade.TokenTrace.from_arrays.calls", "count"),
    ("cascade.TokenTrace.from_arrays.self_s", "s"),
    ("cascade.mean_exit_layer", "layer"),
    ("bandit.run_adaptive_captioning.self_s", "s"),
    ("bandit.ucb_select.calls", "count"),
    ("bandit.ucb_select.self_s", "s"),
    ("bandit.update.calls", "count"),
    ("bandit.update.self_s", "s"),
    ("bandit.reward.calls", "count"),
    ("bandit.reward.self_s", "s"),
    ("bandit.rounds", "count"),
    ("bandit.init_rounds", "count"),
    ("bandit.expected_reward_oracle.calls", "count"),
    ("bandit.expected_reward_oracle.self_s", "s"),
    ("bandit.oracle_samples", "count"),
    ("distill.make_task.self_s", "s"),
    ("distill.train_backbone.epochs", "count"),
    ("distill.train_backbone.self_s", "s"),
    ("distill.train_backbone.ms_per_epoch", "ms"),
    *(
        (f"distill.train_exits.{terms}.{field}", unit)
        for terms in STAGE_TWO_VARIANTS
        for field, unit in (("epochs", "count"), ("self_s", "s"), ("ms_per_epoch", "ms"))
    ),
    ("distill.layer_accuracies.self_s", "s"),
    ("distill.softmax.calls", "count"),
    ("distill.softmax.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("machine.ref_s", "s"),
)
TIME_UNITS = frozenset({"s", "ms", "ns"})


class Stat:
    __slots__ = ("calls", "total", "self", "units", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0  # inclusive seconds
        self.self = 0.0  # seconds minus wrapped children
        self.units = 0  # tokens, rows, images or epochs, per function
        self.extra = 0  # bytes, or the sum of exit layers


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.wrapped_top = 0.0  # wrapped time not inside another wrapped call
        self.gc_s = 0.0
        self.gc_collections = 0
        self._children: list[float] = []  # child time of each open call
        self._open_spans: list[int] = []
        self._gc_start = 0.0
        self._origin = time.perf_counter()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function at every binding in exitsim."""
        from exitsim.cascade import TokenTrace
        from exitsim.synth import SyntheticConfidenceModel

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"exitsim.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        from_arrays = TokenTrace.__dict__["from_arrays"].__func__
        TokenTrace.from_arrays = classmethod(
            self._wrap("cascade.TokenTrace.from_arrays", from_arrays)
        )
        SyntheticConfidenceModel.confidence_matrix = self._wrap(
            "synth.confidence_matrix", SyntheticConfidenceModel.confidence_matrix
        )
        for name, module in list(sys.modules.items()):
            if name == "exitsim" or name.startswith("exitsim."):
                for attr, obj in list(vars(module).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- wrappers ---------------------------------------------------------

    def _close(self, stat: Stat, elapsed: float) -> None:
        child = self._children.pop()
        stat.calls += 1
        stat.total += elapsed
        stat.self += elapsed - child
        if self._children:
            self._children[-1] += elapsed
        else:
            self.wrapped_top += elapsed

    def _wrap(self, name: str, fn):
        if name == "distill.train_exits":
            return self._wrap_stage_two(fn)
        on_result = _RESULT_HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, on_result)
        stat = self.stat(name)
        children = self._children
        clock = time.perf_counter
        close = self._close
        span = name not in FINE_GRAINED

        def wrapper(*args, **kwargs):
            span_id = self.open_span(name) if span else None
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, clock() - start)
                if span:
                    self.close_span(span_id)
            if on_result is not None:
                on_result(stat, args, kwargs, result)
            return result

        return wrapper

    def _wrap_stage_two(self, fn):
        """train_exits is split by its ``loss_terms`` argument."""
        signature = inspect.signature(fn)
        by_terms = {
            terms: self._wrap(f"distill.train_exits.{terms}", fn)
            for terms in STAGE_TWO_VARIANTS
        }

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            # An unknown value is the function's own error to raise.
            traced = by_terms.get(bound.arguments["loss_terms"], fn)
            return traced(*args, **kwargs)

        return wrapper

    def _wrap_generator(self, name: str, fn, on_result):
        stat = self.stat(name)
        children = self._children
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            if on_result is not None:
                on_result(stat, args, kwargs, None)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    children.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(stat, clock() - start)
                    stat.units += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    # -- spans ------------------------------------------------------------

    def open_span(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start_s": time.perf_counter() - self._origin,
            }
        )
        self._open_spans.append(span_id)
        return span_id

    def close_span(self, span_id: int) -> None:
        self._open_spans.pop()
        self.spans[span_id]["end_s"] = time.perf_counter() - self._origin

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans}, fh)

    # -- report -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Layer metrics the traced process can measure itself.

        ``wall_s`` is the traced time of the CLI calls; whatever part of
        it no wrapped function covers is the CLI's own glue.
        """
        s = self.stat
        out: dict[str, float] = {}

        def timed(name: str, with_calls: bool = False) -> None:
            out[f"{name}.self_s"] = s(name).self
            if with_calls:
                out[f"{name}.calls"] = s(name).calls

        timed("synth.sample_batch", with_calls=True)
        timed("synth.sample_image")
        tokens = s("synth.sample_batch").units
        decisions = s("cascade.decide_exit").calls
        out["synth.tokens_sampled"] = tokens
        out["synth.consumed_ratio"] = decisions / tokens if tokens else 0.0
        out["synth.confidence_matrix.rows"] = s("synth.confidence_matrix").units
        timed("synth.confidence_matrix")
        out["synth.write_traces.bytes"] = s("synth.write_traces").extra
        timed("synth.write_traces")
        out["synth.read_traces.bytes"] = s("synth.read_traces").extra
        out["synth.read_traces.images"] = s("synth.read_traces").units
        timed("synth.read_traces")

        timed("cascade.decide_exit", with_calls=True)
        out["cascade.decide_exit.ns_per_call"] = (
            s("cascade.decide_exit").self / decisions * 1e9 if decisions else 0.0
        )
        timed("cascade.TokenTrace.from_arrays", with_calls=True)
        out["cascade.mean_exit_layer"] = (
            s("cascade.decide_exit").extra / decisions if decisions else 0.0
        )

        timed("bandit.run_adaptive_captioning")
        for name in ("bandit.ucb_select", "bandit.update", "bandit.reward"):
            timed(name, with_calls=True)
        out["bandit.rounds"] = s("bandit.run_adaptive_captioning").units
        out["bandit.init_rounds"] = s("bandit.initialize").units
        timed("bandit.expected_reward_oracle", with_calls=True)
        out["bandit.oracle_samples"] = s("bandit.expected_reward_oracle").units

        timed("distill.make_task")
        stage_names = ["distill.train_backbone"] + [
            f"distill.train_exits.{terms}" for terms in STAGE_TWO_VARIANTS
        ]
        for name in stage_names:
            epochs = s(name).units
            out[f"{name}.epochs"] = epochs
            timed(name)
            # Inclusive time: what one epoch costs, softmax included.
            out[f"{name}.ms_per_epoch"] = (
                s(name).total / epochs * 1e3 if epochs else 0.0
            )
        timed("distill.layer_accuracies")
        timed("distill.softmax", with_calls=True)

        out["cli.self_s"] = wall_s - self.wrapped_top
        out["runtime.gc_s"] = self.gc_s
        out["runtime.gc_collections"] = self.gc_collections
        return out


def _add_units(count):
    def hook(stat: Stat, args, kwargs, result) -> None:
        stat.units += count(result)

    return hook


def _record_exit_layer(stat: Stat, args, kwargs, result) -> None:
    stat.extra += result.exit_layer


def _path_bytes(stat: Stat, args, kwargs, result) -> None:
    stat.extra += os.path.getsize(args[0] if args else kwargs["path"])


_RESULT_HOOKS = {
    "cascade.decide_exit": _record_exit_layer,
    "synth.sample_batch": _add_units(len),
    "synth.confidence_matrix": _add_units(lambda conf: conf.shape[0]),
    # write_traces reports the file it finished; read_traces the file it
    # is about to stream (its images are counted per next()).
    "synth.write_traces": _path_bytes,
    "synth.read_traces": _path_bytes,
    "bandit.run_adaptive_captioning": _add_units(lambda run: len(run.log)),
    "bandit.initialize": _add_units(lambda state: state.t),
    "bandit.expected_reward_oracle": _add_units(lambda oracle: oracle.samples),
    # Training returns one loss per epoch.
    "distill.train_backbone": _add_units(len),
    **{
        f"distill.train_exits.{terms}": _add_units(len)
        for terms in STAGE_TWO_VARIANTS
    },
}
