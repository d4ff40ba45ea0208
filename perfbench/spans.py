"""In-memory span tracing of volmixer, attached from outside the package.

``instrument`` replaces public functions and methods at the place their
callers look them up (``volmixer.autodiff.linear``, ``volmixer.model.
series_decomp``, ``TimeMixerModel.pdm_forward``, ...) with wrappers that
record a span per call, and puts the originals back on exit. Nothing under
``src/`` changes, and with no recorder installed the program runs its own
code untouched.

A span is (name, start, end, parent index). A layer's self time is its span's
duration minus the time its direct child spans cover; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

# recorded autodiff primitives the model uses
OPS = ("linear", "gelu", "moving_average", "avg_pool_halve", "transpose_last2",
       "add", "subtract", "multiply", "mean", "reshape")


class Recorder:
    """Spans plus event counts gathered while instrumentation is installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_calls = 0
        self.tape_nodes: list[int] = []     # nodes on the tape at each backward
        self.forward_ops: list[int] = []    # op calls inside each forward pass

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def wrap_op(self, autodiff, op: str, fn):
        """Time an op's forward, and its backward via the node it records."""
        fwd = self.wrap(f"autodiff.{op}.fwd", fn)
        counts = self.counts
        bwd_name = f"autodiff.{op}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tape = autodiff.active_tape()
            before = len(tape.nodes) if tape is not None else 0
            out = fwd(*args, **kwargs)
            counts[f"autodiff.{op}.calls"] += 1
            counts[f"autodiff.{op}.out_mb"] += out.values.nbytes / 1e6
            self.op_calls += 1
            if tape is not None and len(tape.nodes) > before:
                node = tape.nodes[-1]
                node.backward_fn = self.wrap(bwd_name, node.backward_fn)
            return out

        return traced

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        totals: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            totals[name] += (t1 - t0 - covered[i]) * 1e3
        return totals


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original)`` for the duration.

    Class attributes are read from ``__dict__`` so that a classmethod is
    rewrapped as a classmethod and restored as the same descriptor.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    try:
        yield
    finally:
        setattr(owner, attr, raw)


def _targets(vm, rec: Recorder):
    """(owner, attribute, wrapper factory) for every traced boundary.

    Owners are where callers resolve the name: a module that imported a
    function under its own name is patched as well as the defining module.
    """
    ad, md, ev, cli = vm.autodiff, vm.market_data, vm.evaluation, vm.cli
    TimeMixerModel, Adam = vm.model.TimeMixerModel, vm.training.Adam

    def span(name):
        return lambda fn: rec.wrap(name, fn)

    def rows(name):
        def make(fn):
            def parse(*args, **kwargs):
                out = fn(*args, **kwargs)
                rec.counts["market_data.rows"] += len(getattr(out, "series", out))
                return out
            return rec.wrap(name, parse)
        return make

    def backward(fn):
        def counted(loss, tape):
            rec.tape_nodes.append(len(tape.nodes))
            return fn(loss, tape)
        return rec.wrap("autodiff.backward", counted)

    def forward_normalized(fn):
        def counted(self, x_norm):
            before = rec.op_calls
            out = fn(self, x_norm)
            rec.forward_ops.append(rec.op_calls - before)
            return out
        return rec.wrap("model.forward_normalized", counted)

    targets = [(ad, op, lambda fn, op=op: rec.wrap_op(ad, op, fn))
               for op in OPS]
    targets += [
        (ad, "backward", backward),
        (vm.model, "build_multiscale", span("multiscale.build_multiscale")),
        (vm.model, "series_decomp", span("multiscale.series_decomp")),
        (vm.model, "instance_normalize", span("model.instance_normalize")),
        (vm.training, "instance_normalize", span("model.instance_normalize")),
        (TimeMixerModel, "forward_normalized", forward_normalized),
        (TimeMixerModel, "pdm_forward", span("model.pdm_forward")),
        (TimeMixerModel, "fmm_forward", span("model.fmm_forward")),
        (TimeMixerModel, "save", span("model.save")),
        (TimeMixerModel, "load", span("model.load")),
        (Adam, "step", span("training.adam_step")),
        (vm.training, "evaluate_split", span("training.evaluate_split")),
        (vm.training, "train", span("training.train")),
        (cli, "train", span("training.train")),
        (md, "parse_chart_json", rows("market_data.parse_chart_json")),
        (md, "parse_ohlcv_csv", rows("market_data.parse_ohlcv_csv")),
        (cli, "parse_ohlcv_csv", rows("market_data.parse_ohlcv_csv")),
        (md, "serialize_ohlcv_csv", span("market_data.serialize_ohlcv_csv")),
        (cli, "serialize_ohlcv_csv", span("market_data.serialize_ohlcv_csv")),
        (md, "feature_matrix", span("market_data.feature_matrix")),
        (md, "make_windows", span("market_data.make_windows")),
        (md, "split_chronological", span("market_data.split_chronological")),
        (ev, "predict_test", span("evaluation.predict_test")),
        (ev, "score", span("evaluation.score")),
        (ev, "emit_report", span("evaluation.emit_report")),
        (cli, "cmd_fetch", span("cli.fetch")),
        (cli, "cmd_prepare", span("cli.prepare")),
        (cli, "cmd_run", span("cli.run")),
    ]
    return targets


@contextlib.contextmanager
def instrument(vm, rec: Recorder):
    """Install span wrappers on every traced boundary of ``vm``'s modules."""
    with contextlib.ExitStack() as stack:
        for owner, attr, make in _targets(vm, rec):
            stack.enter_context(patched(owner, attr, make))
        yield rec
