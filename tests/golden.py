"""Tier-1's pinned outputs: one function per pin, its value in golden.json.

A test computes a pin with its function (or the helper it calls, where the
test patches or asserts on the way) and compares it by `check`: exactly,
every leaf keeping its repr and so a float its bits, or within its `rtol`.
To re-record, read `python tests/golden.py` (exit 1 if a pin fails), run it
with `--write`, which rewrites only the failing pins, and paste its report
into CHANGES.md with the reason the outputs moved."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":  # run from a checkout, as above
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import numpy as np

from fsalign import network as nw
from fsalign import training

PATH = os.path.join(HERE, "golden.json")
PINS = {}  # name -> (function, rtol, or None when exact)
LOSS_COLUMNS = training.LOGGED_TERMS + ("total",)
INIT_SPECS = {"default": nw.NetworkSpec(), "gradcheck": training.gradcheck_config().network}


def pin(rtol=None):
    return lambda fn: PINS.setdefault(fn.__name__, (fn, rtol))[0]


def tiny_config(iterations):
    """`training.gradcheck_config` (narrow net, 32x32 scenes), 2+2 corpus."""
    return dataclasses.replace(training.gradcheck_config(), iterations=iterations,
                               corpus_size=2, eval_size=3, probe_size=3)


def read_steps(path):
    """The rows of a steps.jsonl file."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def loss_rows(rows, columns=LOSS_COLUMNS):
    return [[row[c] for c in columns] for row in rows]


@functools.cache
def trained_tiny():
    """`train(tiny_config(6))` and the held-out sets of its config."""
    cfg = tiny_config(6)
    return training.train(cfg), training.build_eval_sets(cfg)


@functools.cache
def run_tiny_experiment(out_dir=None):
    """The metrics of `run_experiment(tiny_config(6))` in `out_dir` (by
    default a temporary one) and the rows of each twin's steps.jsonl."""
    if out_dir is None:
        with tempfile.TemporaryDirectory() as out_dir:
            return run_tiny_experiment(out_dir)
    return training.run_experiment(tiny_config(6), out_dir), {
        twin: read_steps(os.path.join(out_dir, twin, "steps.jsonl"))
        for twin in ("adapted", "source_only")}


def _digest(chunks):
    """sha256 of each chunk in turn: bytes as given, arrays as little-endian f8."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.asarray(chunk, "<f8").tobytes())
    return h.hexdigest()


def param_digest(net):
    """`_digest` of each parameter's name, shape and values, in order: nets
    of one spec with float64 parameters have equal digests iff equal bits."""
    return _digest(chunk for name, p in net.named_params()
                   for chunk in (name.encode(), repr(p.value.shape).encode(), p.value))


@pin(rtol=1e-10)
def golden_rows():
    """`train(tiny_config(12))`'s loss rows, recorded with the per-proposal
    crop_pool / per-group head implementation."""
    return loss_rows(training.train(tiny_config(12)).rows)


@pin()
def pooled():
    """Pooled f3 features of the detection eval images under the tiny net."""
    result, (_, _, detect_eval) = trained_tiny()
    return training.pooled_features(result.net, [s for s, _ in detect_eval]).tolist()


@pin()
def step_rows():
    """`train(tiny_config(6))`'s loss rows; the adapted steps.jsonl holds them too."""
    return loss_rows(trained_tiny()[0].rows)


@pin()
def held_out():
    """Digests of the images of each probe split's source and target samples,
    and of the detection set's images, proposals and ground truth."""
    _, (probe_train, probe_eval, detect_eval) = trained_tiny()
    got = {name: [_digest(s.rgb for s, _ in samples) for samples in pair]
           for name, pair in (("probe_train", probe_train), ("probe_eval", probe_eval))}
    got["detect_images"] = _digest(s.rgb for s, _ in detect_eval)
    got["detect_proposals"] = _digest(
        np.column_stack([pset.boxes, pset.objectness]) for _, pset in detect_eval)
    got["detect_truth"] = _digest(
        np.column_stack([s.eval_boxes(), s.eval_labels()]) for s, _ in detect_eval)
    return got


@pin()
def run_metrics(experiment=None):
    """The metrics of `experiment`, by default `run_tiny_experiment()`."""
    return (experiment or run_tiny_experiment())[0]


@pin(rtol=1e-10)
def source_only_last_row(experiment=None):
    """(L_c, L_r, total) of the source-only twin's last row in `experiment`."""
    rows = (experiment or run_tiny_experiment())[1]["source_only"]
    return loss_rows(rows, ("L_c", "L_r", "total"))[-1]


@pin()
def train_groupings():
    """(groups, outliers, K, sigma_star) of each entry of the 8+8 corpus that
    perfbench's `train` workload steps on, source entries first."""
    source, target = training.build_training_corpus(training.TrainConfig(corpus_size=8, seed=0))
    return [(e.groups, e.outliers, e.grouping.K, e.grouping.sigma_star) for e in source + target]


@pin()
def init_digests():
    return {which: param_digest(nw.SeparationNet(s, seed=0)) for which, s in INIT_SPECS.items()}


def load():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def dumps(recorded):
    """golden.json's text: what `--write` writes."""
    return json.dumps(recorded, indent=1, sort_keys=True) + "\n"


def _leaves(value, path=""):
    """[(path, leaf)] of a JSON value."""
    if isinstance(value, (dict, list)):
        items = sorted(value.items()) if isinstance(value, dict) else enumerate(value)
        return [leaf for key, item in items for leaf in _leaves(item, f"{path}/{key}")]
    return [(path, value)]


def compare(got, want, rtol=None):
    """(passes, report) of the JSON value `got` against the recorded `want`."""
    got, want = _leaves(json.loads(json.dumps(got))), _leaves(want)
    if [p for p, _ in got] != [p for p, _ in want]:
        return False, "structure changed: FAILS"
    moved = [(a, b) for (_, a), (_, b) in zip(got, want) if repr(a) != repr(b)]
    if not moved:
        return True, "unchanged"
    rel = [abs(a - b) / abs(b) if b else math.inf
           for a, b in moved if type(a) is type(b) is float]
    passes = rtol is not None and len(rel) == len(moved) and max(rel) <= rtol
    report = f"{len(moved)} of {len(got)} entries moved" + (
        f", largest relative move {max(rel):.2g}" if rel else "")
    how = "exact" if rtol is None else f"rtol={rtol:g}"
    return passes, f"unchanged at {how} ({report})" if passes else f"{report}: FAILS {how}"


def check(name, got, key=None):
    """Assert that `got` passes pin `name`'s comparison, or its entry `key`'s."""
    want = load()[name]
    passes, report = compare(got, want if key is None else want[key], PINS[name][1])
    assert passes, f"{name}: {report}"


def main(argv):
    if argv not in ([], ["--write"]):
        sys.exit("usage: python tests/golden.py [--write]")
    recorded, failed = load(), {}
    for name, (fn, rtol) in PINS.items():
        got = fn()
        passes, report = compare(got, recorded.get(name), rtol)
        print(f"{name}: {report}")
        if not passes:
            failed[name] = got
    if failed and argv:  # --write
        with open(PATH, "w", encoding="utf-8") as fh:
            fh.write(dumps({**recorded, **failed}))
    return int(bool(failed) and not argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
