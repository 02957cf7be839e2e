"""Outside-in tracing of aecomm's layers.

The tracer times calls into the public functions of aecomm.rng, channels,
nn, codecs, harness and cli by wrapping module attributes from here; no
source file of the program changes.  A function bound in several of those
modules (harness does ``from .rng import substream``) is wrapped at every
binding, and a call between two functions of one module goes through the
module's globals, so it is seen too.  config and shiftmetrics are not
traced: their calls take microseconds and count only toward set-up.

Spans are kept in memory: name, thread, parent span on the same thread,
start, end, rows and a key.  A span's self time is its duration minus the
durations of its children on its own thread, so a caller waiting on a
thread pool keeps the wait in its self time; the pool threads' own spans
are read separately as harness.pool_busy_frac.
"""

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict

LAYERS = ("rng", "channels", "nn", "codecs", "harness", "cli")

# Functions whose spans the per-layer metrics are named after.  Tracing
# fails loudly when one of them is missing.
NAMED = {
    "rng.substream": "rng.substream",
    "channels.draw_disturbance": "channels.draw",
    "channels.transmit": "channels.transmit",
    "nn.loss_and_gradients_given": "nn.loss_grad",
    "nn.adam_step": "nn.adam",
    "nn.predict": "nn.predict",
    "codecs.hamming_mld_message": "codecs.mld",
    "codecs.hamming_hard_decode": "codecs.hard",
    "codecs.bpsk_demap": "codecs.demap",
    "harness.estimate_bler": "harness.estimate",
    "harness.train_autoencoder": "harness.train",
    "cli.run_command": "cli.run_command",
}


def _rows(array):
    """Rows of a batch whose last axis is the channel uses."""
    shape = getattr(array, "shape", None)
    if shape is None:
        return 1
    return math.prod(shape[:-1])


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# span name -> (args, kwargs) -> (rows, key)
_ROWS = {
    "channels.draw_disturbance": lambda a, k: (
        math.prod(tuple(_arg(a, k, 1, "shape"))[:-1]),
        _arg(a, k, 0, "spec").kind),
    "channels.transmit": lambda a, k: (_rows(_arg(a, k, 1, "x")), None),
    "nn.predict": lambda a, k: (_rows(_arg(a, k, 1, "received")), None),
    "codecs.hamming_mld_message":
        lambda a, k: (_rows(_arg(a, k, 0, "y")), None),
    "codecs.hamming_hard_decode":
        lambda a, k: (_rows(_arg(a, k, 0, "y")), None),
    "codecs.bpsk_demap": lambda a, k: (_rows(_arg(a, k, 0, "values")), None),
}


def _estimate_outcome(args, kwargs, point):
    """(blocks, errors, stop reason, workers) of one estimate_bler call."""
    stop = _arg(args, kwargs, 2, "stop")
    workers = args[5] if len(args) > 5 else kwargs.get("workers", 1)
    if point.block_errors >= stop.target_block_errors:
        reason = "target"
    elif point.blocks >= stop.max_blocks:
        reason = "capped"
    else:
        reason = "other"
    return point.blocks, point.block_errors, reason, max(1, workers)


class TraceError(RuntimeError):
    pass


class Span:
    __slots__ = ("id", "parent", "thread", "name", "key", "rows", "start",
                 "end", "child_s", "outcome")

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Wraps the layer modules' public functions while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []  # (module, attribute, original)
        self.modules = {name: importlib.import_module(f"aecomm.{name}")
                        for name in LAYERS}
        missing = [name for name in NAMED if not inspect.isfunction(
            getattr(self.modules[name.split(".")[0]], name.split(".")[1], None))]
        if missing:
            raise TraceError("traced functions missing from aecomm: "
                             + ", ".join(missing))

    def _targets(self):
        """Every (module, attribute, function, span name) to wrap."""
        owners = {mod.__name__: layer for layer, mod in self.modules.items()}
        for module in self.modules.values():
            for attr, value in vars(module).items():
                layer = owners.get(getattr(value, "__module__", None))
                if (inspect.isfunction(value) and layer is not None
                        and not value.__name__.startswith("_")):
                    yield module, attr, value, f"{layer}.{value.__name__}"

    def _wrap(self, fn, name):
        rows_of = _ROWS.get(name)
        outcome_of = _estimate_outcome if name == "harness.estimate_bler" else None
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span()
            span.id = next(ids)
            span.parent = stack[-1] if stack else None
            span.thread = threading.get_ident()
            span.name = name
            span.rows, span.key = rows_of(args, kwargs) if rows_of else (0, None)
            span.child_s = 0.0
            span.outcome = None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
            if outcome_of is not None:
                span.outcome = outcome_of(args, kwargs, result)
            return result

        traced.perfbench_original = fn
        return traced

    def install(self):
        wrappers = {}
        for module, attr, fn, name in list(self._targets()):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])

    def restore(self):
        """Put every original back, then check that no wrapper is left."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        left = [f"{module.__name__}.{attr}"
                for module in self.modules.values()
                for attr, value in vars(module).items()
                if hasattr(value, "perfbench_original")]
        if left:
            raise TraceError("wrappers left installed: " + ", ".join(left))

    def write(self, path):
        """One line per span, times in microseconds from the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tthread\tname\tkey\trows\tstart_us\tdur_us\t"
                     "self_us\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                parent = "" if s.parent is None else s.parent.id
                fh.write(f"{s.id}\t{parent}\t{s.thread}\t{s.name}\t"
                         f"{s.key or ''}\t{s.rows}\t"
                         f"{(s.start - origin) * 1e6:.1f}\t"
                         f"{s.duration * 1e6:.1f}\t{s.self_s * 1e6:.1f}\n")


# -- per-layer metrics --------------------------------------------------------

UNITS = {
    "rng.substream.calls": "count",
    "rng.substream.us_per_call": "us",
    "channels.draw.ns_per_row.awgn": "ns",
    "channels.draw.ns_per_row.correlated_awgn": "ns",
    "channels.draw.ns_per_row.rayleigh": "ns",
    "channels.transmit.ns_per_row": "ns",
    "channels.transmit.rows": "count",
    "nn.loss_grad.us_per_call": "us",
    "nn.loss_grad.calls": "count",
    "nn.adam.us_per_call": "us",
    "nn.predict.ns_per_row": "ns",
    "codecs.mld.ns_per_row": "ns",
    "codecs.hard.ns_per_row": "ns",
    "codecs.demap.ns_per_row": "ns",
    "harness.blocks_simulated": "count",
    "harness.blocks_used": "count",
    "harness.sim_per_used": "ratio",
    "harness.points_target": "count",
    "harness.points_capped": "count",
    "harness.estimate.self_s": "s",
    "harness.estimate.calls": "count",
    "harness.pool_busy_frac": "ratio",
    "harness.train.self_s": "s",
    "cli.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def layer_metrics(spans, passes, traced_wall_s, main_thread):
    """Per-layer metrics of `passes` traced passes that took `traced_wall_s`
    in all; counts and self times are per pass.  A layer the workload does
    not reach reads 0."""
    calls = defaultdict(int)
    rows = defaultdict(int)
    own = defaultdict(float)
    layer_own = defaultdict(float)
    pool_busy = pool_capacity = 0.0
    outcomes = []
    for span in spans:
        layer_own[span.name.split(".")[0]] += span.self_s
        key = (NAMED.get(span.name), span.key)
        calls[key] += 1
        rows[key] += span.rows
        own[key] += span.self_s
        if span.thread != main_thread and span.parent is None:
            pool_busy += span.duration
        if span.outcome is not None:
            outcomes.append(span.outcome)
            pool_capacity += span.outcome[3] * span.duration

    def per(value, base, scale):
        return value / base * scale if base else 0.0

    def ns_per_row(name, key=None):
        return per(own[name, key], rows[name, key], 1e9)

    def us_per_call(name):
        return per(own[name, None], calls[name, None], 1e6)

    used = sum(o[0] for o in outcomes)
    simulated = rows["channels.transmit", None]
    values = {
        "rng.substream.calls": calls["rng.substream", None] / passes,
        "rng.substream.us_per_call": us_per_call("rng.substream"),
        "channels.transmit.ns_per_row": ns_per_row("channels.transmit"),
        "channels.transmit.rows": simulated / passes,
        "nn.loss_grad.us_per_call": us_per_call("nn.loss_grad"),
        "nn.loss_grad.calls": calls["nn.loss_grad", None] / passes,
        "nn.adam.us_per_call": us_per_call("nn.adam"),
        "nn.predict.ns_per_row": ns_per_row("nn.predict"),
        "codecs.mld.ns_per_row": ns_per_row("codecs.mld"),
        "codecs.hard.ns_per_row": ns_per_row("codecs.hard"),
        "codecs.demap.ns_per_row": ns_per_row("codecs.demap"),
        "harness.blocks_simulated": simulated / passes,
        "harness.blocks_used": used / passes,
        "harness.sim_per_used": per(simulated, used, 1.0),
        "harness.points_target":
            sum(o[2] == "target" for o in outcomes) / passes,
        "harness.points_capped":
            sum(o[2] == "capped" for o in outcomes) / passes,
        "harness.estimate.self_s": own["harness.estimate", None] / passes,
        "harness.estimate.calls": calls["harness.estimate", None] / passes,
        "harness.pool_busy_frac": per(pool_busy, pool_capacity, 1.0),
        "harness.train.self_s": own["harness.train", None] / passes,
        "cli.self_s": layer_own["cli"] / passes,
    }
    for kind in ("awgn", "correlated_awgn", "rayleigh"):
        values[f"channels.draw.ns_per_row.{kind}"] = ns_per_row(
            "channels.draw", kind)
    for layer in LAYERS:
        values[f"{layer}.share"] = per(layer_own[layer], traced_wall_s, 1.0)
    return values
