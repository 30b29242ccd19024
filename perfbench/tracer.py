"""Span tracing of fsalign from outside the package.

`instrument(tracer)` replaces each timed function of the package with a
wrapper that records a span around the call, patching the name where its
caller looks it up (a module attribute such as `grouping.cluster_box_centers`
or `autodiff.conv2d`, or a class attribute such as
`SeparationNet.forward_backbone`). Every original is put back in `finally`,
so no wrapper outlives the block. No file of the package changes.

Spans live in memory as four flat arrays (name id, start, end, parent span)
and are written once, at the end of a run. `Tensor.__init__` runs thousands
of times per step, so it is recorded as a counter (calls and total time)
instead of as spans.
"""

import contextlib
import time
from array import array

import numpy as np

from fsalign import autodiff, grouping, losses, network, scale_space, synth, training

_now = time.perf_counter

# autodiff ops other than conv2d and crop; each gets a forward span and, on
# the node it returns, a vjp span
OTHER_OPS = (
    "add", "sub", "mul", "div", "power", "exp", "log", "tanh", "sigmoid",
    "absolute", "clip", "sum", "mean", "reshape", "transpose", "concat",
    "stack", "take_rows", "matmul", "upsample2x", "grl",
    "softmax_cross_entropy", "smooth_l1",
)
DOMAIN_HEADS = ("local_domain", "mid_domain", "global_domain", "region_domain")
NETWORK_METHODS = ("forward_backbone", "encode_private", "reconstruct",
                   "detector_head") + DOMAIN_HEADS
LOSS_FUNCTIONS = ("reconstruction_loss", "difference_loss", "local_adv_loss",
                  "region_instance_loss", "total_objective")
SYNTH_FUNCTIONS = ("generate_scene", "apply_domain_shift", "generate_proposals",
                   "build_pair_corpus")
SELECT_ASSIGN = ("build_lifetime_table", "select_model", "assign_points")



class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self.counters = {}

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx):
        self.end[idx] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key, amount=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def arrays(self):
        """Spans as numpy arrays: name ids, start, end, parent, duration and
        self time."""
        names = np.array(self.name, dtype=np.int32)
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, start, end, parent, dur, dur - child

    def write(self, path):
        names, start, end, parent, dur, self_time = self.arrays()
        np.savez(path, span_names=np.array(self.names), name=names, start=start,
                 end=end, parent=parent, duration=dur, self_time=self_time,
                 counter_keys=np.array(sorted(self.counters)),
                 counter_values=np.array([self.counters[k] for k in sorted(self.counters)]))


def _timed(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _timed_op(tracer, name, fn):
    """Forward span, plus a vjp span installed on the node the op returns.

    An op that returns the node of another wrapped op (`mean` returns the
    `div` node) leaves that op's vjp wrapper in place, so each vjp is timed
    once, under the op that built the node.
    """
    fwd = tracer.name_id(f"autodiff.{name}.fwd")
    vjp = tracer.name_id(f"autodiff.{name}.vjp")
    Tensor = autodiff.Tensor

    def wrap_vjp(inner):
        def timed_vjp(g):
            idx = tracer.open(vjp)
            try:
                return inner(g)
            finally:
                tracer.close(idx)

        timed_vjp.bench_wrapped = True
        return timed_vjp

    def wrapper(*args, **kwargs):
        idx = tracer.open(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if (type(out) is Tensor and out._vjp is not None
                and not getattr(out._vjp, "bench_wrapped", False)):
            out._vjp = wrap_vjp(out._vjp)
        return out

    return wrapper


def _tensor_init(tracer, fn):
    counters = tracer.counters

    def wrapper(self, *args, **kwargs):
        t0 = _now()
        try:
            fn(self, *args, **kwargs)
        finally:
            counters["autodiff.tensor_init_s"] = counters.get("autodiff.tensor_init_s", 0.0) + _now() - t0
            counters["autodiff.tensor_nodes"] = counters.get("autodiff.tensor_nodes", 0.0) + 1.0

    return wrapper


def _cluster_box_centers(tracer, fn):
    inner = _timed(tracer, "grouping.cluster_box_centers", fn)

    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except grouping.DegenerateGroupingError:
            tracer.count("grouping.fallbacks")
            raise

    return wrapper


def _scale_sweep(tracer, fn):
    inner = _timed(tracer, "scale_space.scale_sweep", fn)

    def wrapper(*args, **kwargs):
        snapshots, truncated = inner(*args, **kwargs)
        tracer.count("scale_space.scales", len(snapshots))
        tracer.count("scale_space.truncated", float(truncated))
        return snapshots, truncated

    return wrapper


def _targets(tracer):
    """(owner, attribute, wrapper factory) for every timed name."""
    t = []
    for op in ("conv2d", "crop") + OTHER_OPS:
        t.append((autodiff, op, lambda fn, op=op: _timed_op(tracer, op, fn)))
    t.append((autodiff.Tensor, "__init__", lambda fn: _tensor_init(tracer, fn)))
    t.append((autodiff.Tensor, "backward", lambda fn: _timed(tracer, "autodiff.backward", fn)))
    t.append((autodiff.SGD, "step", lambda fn: _timed(tracer, "autodiff.sgd_step", fn)))
    t.append((network, "crop_pool", lambda fn: _timed(tracer, "network.crop_pool", fn)))
    t.append((network, "detector_losses",
              lambda fn: _timed(tracer, "network.detector_losses", fn)))
    for m in NETWORK_METHODS:
        t.append((network.SeparationNet, m,
                  lambda fn, m=m: _timed(tracer, f"network.{m}", fn)))
    for f in LOSS_FUNCTIONS:
        t.append((losses, f, lambda fn, f=f: _timed(tracer, f"losses.{f}", fn)))
    t.append((training, "train_step", lambda fn: _timed(tracer, "training.train_step", fn)))
    t.append((grouping, "cluster_box_centers", lambda fn: _cluster_box_centers(tracer, fn)))
    t.append((scale_space, "scale_sweep", lambda fn: _scale_sweep(tracer, fn)))
    t.append((scale_space, "converge_centers",
              lambda fn: _timed(tracer, "scale_space.converge_centers", fn)))
    for f in SELECT_ASSIGN:
        t.append((scale_space, f, lambda fn, f=f: _timed(tracer, f"scale_space.{f}", fn)))
    for f in SYNTH_FUNCTIONS:
        t.append((synth, f, lambda fn, f=f: _timed(tracer, f"synth.{f}", fn)))
    return t


def target_names():
    """(owner, attribute) of every name `instrument` replaces."""
    return [(owner, attr) for owner, attr, _ in _targets(Tracer())]


@contextlib.contextmanager
def instrument(tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _targets(tracer):
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

MODULE_METRICS = (
    ("network.forward_backbone_ms", ("network.forward_backbone",)),
    ("network.encode_private_ms", ("network.encode_private",)),
    ("network.reconstruct_ms", ("network.reconstruct",)),
    ("network.domain_heads_ms", tuple(f"network.{m}" for m in DOMAIN_HEADS)),
    ("network.detector_head_ms", ("network.detector_head",)),
    ("network.detector_losses_ms", ("network.detector_losses",)),
    ("losses.ms", tuple(f"losses.{f}" for f in LOSS_FUNCTIONS)),
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("autodiff.conv2d.calls", "count"), ("autodiff.conv2d.fwd_ms", "ms"),
     ("autodiff.conv2d.vjp_ms", "ms"), ("autodiff.conv2d.step_share", "frac"),
     ("autodiff.crop.calls", "count"), ("autodiff.crop.fwd_ms", "ms"),
     ("autodiff.crop.vjp_ms", "ms"), ("autodiff.tensor_nodes", "count"),
     ("autodiff.tensor_init_ms", "ms"), ("autodiff.backward.self_ms", "ms"),
     ("autodiff.sgd_step_ms", "ms"), ("autodiff.other_ops.fwd_ms", "ms"),
     ("autodiff.other_ops.vjp_ms", "ms"),
     ("network.crop_pool.calls", "count"), ("network.crop_pool_ms", "ms")]
    + [(name, "ms") for name, _ in MODULE_METRICS]
    + [("training.train_step_ms", "ms"), ("training.forward_ms", "ms"),
       ("training.backward_ms", "ms"),
       ("grouping.cluster_box_centers.calls", "count"),
       ("grouping.cluster_box_centers_ms", "ms"), ("grouping.fallbacks", "count"),
       ("scale_space.converge_centers_ms", "ms"), ("scale_space.scales", "count"),
       ("scale_space.truncated", "count"), ("scale_space.select_assign_ms", "ms"),
       ("synth.generate_scene_ms", "ms"), ("synth.apply_domain_shift_ms", "ms"),
       ("synth.generate_proposals_ms", "ms"),
       ("failed_frac", "frac"), ("trace.untraced_ops_per_s", "1/s"),
       ("trace.traced_ops_per_s", "1/s"), ("trace.overhead_frac", "frac")]
)


def layer_metrics(tracer, n_ops):
    """Per-layer values from the spans and counters, each per traced op
    (step or image). Counts are calls per op; times are ms per op."""
    names, _, _, parent, dur, self_time = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(*span_names):
        return np.isin(names, [ids[n] for n in span_names if n in ids])

    def ms(m, values=dur):
        return float(values[m].sum()) * 1e3 / n_ops

    def calls(m):
        return float(m.sum()) / n_ops

    step = mask("training.train_step")
    under_step = np.zeros(len(names), dtype=bool)
    under_step[parent >= 0] = step[parent[parent >= 0]]
    backward = mask("autodiff.backward")
    sgd = mask("autodiff.sgd_step")
    step_ms = ms(step)
    conv_ms = ms(mask("autodiff.conv2d.fwd", "autodiff.conv2d.vjp"))
    c = tracer.counters
    out = {
        "autodiff.conv2d.calls": calls(mask("autodiff.conv2d.fwd")),
        "autodiff.conv2d.fwd_ms": ms(mask("autodiff.conv2d.fwd")),
        "autodiff.conv2d.vjp_ms": ms(mask("autodiff.conv2d.vjp")),
        "autodiff.conv2d.step_share": conv_ms / step_ms if step_ms else 0.0,
        "autodiff.crop.calls": calls(mask("autodiff.crop.fwd")),
        "autodiff.crop.fwd_ms": ms(mask("autodiff.crop.fwd")),
        "autodiff.crop.vjp_ms": ms(mask("autodiff.crop.vjp")),
        "autodiff.tensor_nodes": c.get("autodiff.tensor_nodes", 0.0) / n_ops,
        "autodiff.tensor_init_ms": c.get("autodiff.tensor_init_s", 0.0) * 1e3 / n_ops,
        "autodiff.backward.self_ms": ms(backward, self_time),
        "autodiff.sgd_step_ms": ms(sgd),
        "autodiff.other_ops.fwd_ms": ms(mask(*(f"autodiff.{o}.fwd" for o in OTHER_OPS)), self_time),
        "autodiff.other_ops.vjp_ms": ms(mask(*(f"autodiff.{o}.vjp" for o in OTHER_OPS)), self_time),
        "network.crop_pool.calls": calls(mask("network.crop_pool")),
        "network.crop_pool_ms": ms(mask("network.crop_pool")),
    }
    for name, span_names in MODULE_METRICS:
        out[name] = ms(mask(*span_names))
    out.update({
        "training.train_step_ms": step_ms,
        "training.forward_ms": step_ms - ms((backward | sgd) & under_step),
        "training.backward_ms": ms(backward & under_step),
        "grouping.cluster_box_centers.calls": calls(mask("grouping.cluster_box_centers")),
        "grouping.cluster_box_centers_ms": ms(mask("grouping.cluster_box_centers")),
        "grouping.fallbacks": c.get("grouping.fallbacks", 0.0) / n_ops,
        "scale_space.converge_centers_ms": ms(mask("scale_space.converge_centers")),
        "scale_space.scales": c.get("scale_space.scales", 0.0) / n_ops,
        "scale_space.truncated": c.get("scale_space.truncated", 0.0) / n_ops,
        "scale_space.select_assign_ms": ms(mask(*(f"scale_space.{f}" for f in SELECT_ASSIGN))),
        "synth.generate_scene_ms": ms(mask("synth.generate_scene")),
        "synth.apply_domain_shift_ms": ms(mask("synth.apply_domain_shift")),
        "synth.generate_proposals_ms": ms(mask("synth.generate_proposals")),
    })
    return out
