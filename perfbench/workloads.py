"""The benchmark workloads: inputs, set-up, closed loops and checks.

Each workload draws its inputs from a fixed pool whose outputs were recorded
once (`record_references.py`); the run's seed picks the order in which the
pool is visited, so the same seed always gives the same inputs and every
output can be checked against its recorded reference. A run takes pool units
in that order until its time is up and never visits one twice, so a
memoising cache inside the program cannot serve a repeat. All loops are
closed: one call at a time, from one process.
"""

import contextlib
import dataclasses
import json
import os
import time
import traceback
from typing import Any, NamedTuple

import numpy as np

from fsalign import autodiff, grouping, network, synth, training
from speed import SpeedProbe

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

LOSS_COLUMNS = ("L_c", "L_r", "L_rec", "L_diff", "L_lg", "L_ri", "total")
ROW_RTOL = 1e-10  # per-step loss rows must match the reference this closely

_now = time.perf_counter


class Timed(NamedTuple):
    seconds: float  # measured time, probe time taken out
    start: float
    end: float
    out: Any        # None when the call raised


class Sample(NamedTuple):
    """One operation (a step or an image) and its check."""

    seconds: float
    start: float
    end: float
    ok: bool


@dataclasses.dataclass
class Loop:
    """What the operations of one run share: the failure log, the speed
    probe and, in the traced half, the tracer."""

    errors: list = dataclasses.field(default_factory=list)
    probe: SpeedProbe = dataclasses.field(default_factory=SpeedProbe)
    tracer: Any = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def call(self, fn, op_span=True):
        """Time `fn()`. An exception counts as a failed operation: its
        traceback goes to `errors` and the output is None."""
        self.probe.tick()
        spent = self.probe.spent
        t0 = _now()
        try:
            with self.span("bench.op") if op_span else contextlib.nullcontext():
                out = fn()
        except Exception:  # noqa: BLE001 - the loop goes on and reports the failure
            self.errors.append(traceback.format_exc())
            out = None
        t1 = _now()
        return Timed(t1 - t0 - (self.probe.spent - spent), t0, t1, out)


def _order(seed, n):
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0xBE7C])).permutation(n)


def _checked(records, loop):
    if loop.errors:
        raise RuntimeError(loop.errors[0])
    return records


class Workload:
    """Reference storage shared by the workloads: `.npy` or JSON by name."""

    reference_file = ""

    def reference_path(self):
        return os.path.join(REF_DIR, self.reference_file)

    def save_reference(self, ref):
        if self.reference_file.endswith(".npy"):
            np.save(self.reference_path(), ref)
            return
        with open(self.reference_path(), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")

    def load_reference(self):
        if self.reference_file.endswith(".npy"):
            return np.load(self.reference_path())
        with open(self.reference_path(), "r", encoding="utf-8") as fh:
            return json.load(fh)


# ---------------------------------------------------------------------------
# train: adapted train_step over a pre-built, pre-grouped 8+8 corpus
# ---------------------------------------------------------------------------

class Train(Workload):
    """Episodes of adapted `train_step` calls on a fixed grouped corpus.

    An episode starts a fresh net (seeded by the episode index) and steps it
    once over every (source, target) pair of the corpus in a fixed shuffled
    order, so every episode does the same mix of work and per-step counts
    averaged over whole episodes repeat exactly.
    """

    name = "train"
    reference_file = "train_rows.npy"
    setup_reps = 3
    trace_units = 6

    def __init__(self, corpus_size=8, episodes=32):
        self.cfg = training.TrainConfig(corpus_size=corpus_size, seed=0)
        self.episodes = episodes

    def config(self):
        return {"workload": self.name, "corpus_size": self.cfg.corpus_size,
                "episodes": self.episodes, "steps_per_episode": self.cfg.corpus_size ** 2,
                "lr": self.cfg.lr_initial, "momentum": self.cfg.momentum,
                "weights": dataclasses.asdict(self.cfg.weights)}

    def setup(self, rep, loop):
        """Build and group a corpus; repetition 0 is the one the run uses.
        A few steps on a net outside the pool then pay first-call costs."""
        corpus = training.build_training_corpus(dataclasses.replace(self.cfg, seed=rep))
        for _ in self._episode(corpus, 100_000 + rep, loop, limit=4):
            pass
        return corpus

    def _pairs(self, episode):
        n = self.cfg.corpus_size
        order = np.random.default_rng(np.random.SeedSequence([episode, 7])).permutation(n * n)
        return [(int(k) // n, int(k) % n) for k in order]

    def _episode(self, corpus, episode, loop, limit=None):
        """Yield a Timed record for each step of one episode."""
        source, target = corpus
        net = network.SeparationNet(self.cfg.network, seed=episode)
        opt = autodiff.SGD(net.params(), lr=self.cfg.lr_initial, momentum=self.cfg.momentum)
        w = self.cfg.weights
        for i, j in self._pairs(episode)[:limit]:
            yield loop.call(lambda: training.train_step(
                net, source[i], target[j], w, opt,
                normalize_rec=self.cfg.normalize_reconstruction, lam=w.lam))

    def record(self, corpus):
        loop = Loop()
        rows = [[[t.out[c] for c in LOSS_COLUMNS] for t in self._episode(corpus, e, loop)]
                for e in range(self.episodes)]
        return np.array(_checked(rows, loop))

    def units(self, corpus, seed, reference):
        for e in _order(seed, self.episodes):
            yield lambda loop, e=int(e): [
                Sample(t.seconds, t.start, t.end,
                       t.out is not None and _row_matches(t.out, reference[e][k]))
                for k, t in enumerate(self._episode(corpus, e, loop))
            ]


def _row_matches(row, ref):
    got = np.array([row[c] for c in LOSS_COLUMNS])
    return bool(np.allclose(got, ref, rtol=ROW_RTOL, atol=0.0))


# ---------------------------------------------------------------------------
# cluster: synthesise image pairs and group their proposals
# ---------------------------------------------------------------------------

# (proposal redundancy, objects per scene): N = objects * redundancy + 2
# background proposals, so N runs over 8..50 and every block of nine pairs
# has the same mix of N
COMBOS = tuple((r, k) for r in (3, 6, 12) for k in (2, 3, 4))


class Cluster(Workload):
    """Blocks of nine `build_pair_corpus` + `cluster_box_centers` pairs.

    An image's time is its own grouping plus half the synthesis of its pair.
    """

    name = "cluster"
    reference_file = "cluster.json"
    setup_reps = 5
    trace_units = 10

    def __init__(self, blocks=48):
        self.blocks = blocks
        self.shift = synth.DomainShiftSpec()

    def config(self):
        return {"workload": self.name, "blocks": self.blocks, "combos": COMBOS}

    def _pair(self, block, c, loop):
        """(Timed synthesis, [Timed grouping summary] for source and target)."""
        r, k = COMBOS[c]
        scene = synth.SceneSpec(object_count_range=(k, k))
        noise = synth.ProposalNoiseSpec(redundancy=r)
        base_seed = 10_000 + len(COMBOS) * block + c
        with loop.span("bench.op"):
            made = loop.call(
                lambda: synth.build_pair_corpus(scene, self.shift, noise, 1, base_seed),
                op_span=False)
            if made.out is None:
                return made, [made._replace(seconds=0.0)] * 2
            grouped = [loop.call(lambda: _cluster_summary(pset.centers()), op_span=False)
                       for _, pset in made.out[0] + made.out[1]]
        return made, grouped

    def setup(self, rep, loop):
        """Synthesise and group one warm-up pair outside the pool."""
        self._pair(100_000 + rep, rep % len(COMBOS), loop)

    def record(self, state):
        loop = Loop()
        ref = [[g.out for c in range(len(COMBOS)) for g in self._pair(b, c, loop)[1]]
               for b in range(self.blocks)]
        return _checked(ref, loop)

    def units(self, state, seed, reference):
        for b in _order(seed, self.blocks):
            yield lambda loop, b=int(b): self._block(b, reference[b], loop)

    def _block(self, b, ref, loop):
        samples = []
        for c in range(len(COMBOS)):
            made, grouped = self._pair(b, c, loop)
            for m, g in enumerate(grouped):
                samples.append(Sample(made.seconds / 2 + g.seconds, made.start, g.end,
                                      g.out is not None and g.out == ref[2 * c + m]))
        return samples


def _cluster_summary(centers):
    """K, labels, sigma_star and truncated of one image, or the fallback."""
    try:
        _, _, result = grouping.cluster_box_centers(centers)
    except grouping.DegenerateGroupingError:
        return {"fallback": True}
    return {"K": int(result.model.K),
            "labels": [int(v) for v in result.assignment.labels],
            "sigma_star": float(result.model.sigma_star),
            "truncated": bool(result.truncated)}


WORKLOADS = {w.name: w for w in (Train, Cluster)}
