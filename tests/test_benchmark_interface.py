"""What the benchmark under `perfbench/` reads of the package.

The tracer patches each timed name where its caller looks it up, through
`owner.__dict__[attr]`, and the `cluster` workload groups the centers of
every `build_pair_corpus` proposal set, so a rename or a change of layout in
`src/` breaks the benchmark before any bench run would show it.
"""

import importlib
import json
import os

import numpy as np

from fsalign import autodiff as ad
from fsalign import grouping, losses, network, synth, training

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_traced_name_is_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    names = tracer.target_names()
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in names
               if attr not in owner.__dict__]
    assert names and not missing


def test_pair_corpus_centers_are_contiguous_copies():
    src, tgt = synth.build_pair_corpus(synth.SceneSpec(), synth.DomainShiftSpec(),
                                       synth.ProposalNoiseSpec(), 2, 5)
    for _, pset in src + tgt:
        centers = pset.centers()
        assert centers.shape == (len(pset.boxes), 2) and centers.dtype == np.float64
        assert centers.flags.c_contiguous
        assert np.array_equal(centers, pset.boxes[:, :2])
        assert not np.shares_memory(centers, pset.boxes)


def test_a_traced_step_records_each_conv_and_restores_every_name(monkeypatch):
    """One adapted `train_step` under `tracer.instrument` completes with its
    8 `conv2d` calls traced, and leaves every patched name as it was."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in tracer.target_names()]
    (source,), (target,) = training.build_training_corpus(training.gradcheck_config())
    net = network.SeparationNet(seed=0)
    opt = ad.SGD(net.params(), lr=1e-3)
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        row = training.train_step(net, source, target, losses.ObjectiveWeights(), opt)
    assert np.isfinite(list(row.values())).all()
    names = spans.arrays()[0]
    assert np.count_nonzero(names == spans.name_id("autodiff.conv2d.fwd")) == 8
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_a_traced_grouping_counts_the_scales_of_a_stopped_sweep(monkeypatch):
    """`cluster_box_centers` under `tracer.instrument` completes on a cloud
    whose sweep stops before K = 1, and `scale_space.scales` counts the
    snapshots it returned, one `converge_centers` span each."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    scene = synth.generate_scene(synth.SceneSpec(object_count_range=(2, 2)), seed=40)
    noise = synth.ProposalNoiseSpec(redundancy=3, background_count=2)
    centers = synth.generate_proposals(scene, noise, seed=41).centers()
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        _, _, result = grouping.cluster_box_centers(centers)
    assert result.snapshots[-1].K > 1 and not result.truncated  # the sweep stopped
    assert spans.counters["scale_space.scales"] == len(result.snapshots)
    names = spans.arrays()[0]
    assert (np.count_nonzero(names == spans.name_id("scale_space.converge_centers"))
            == len(result.snapshots))


def test_block_zero_groups_as_recorded(monkeypatch):
    """The 18 images of the `cluster` workload's first block of nine pairs
    give the K, labels, sigma_star and truncation recorded in its reference,
    so a change of partition fails here before any bench run."""
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    with open(os.path.join(PERFBENCH, "references", "cluster.json"), encoding="utf-8") as fh:
        want = json.load(fh)[0]
    got = []
    for c, (r, k) in enumerate(workloads.COMBOS):
        src, tgt = synth.build_pair_corpus(
            synth.SceneSpec(object_count_range=(k, k)), synth.DomainShiftSpec(),
            synth.ProposalNoiseSpec(redundancy=r), 1, 10_000 + c)
        got += [workloads._cluster_summary(pset.centers()) for _, pset in src + tgt]
    assert len(got) == len(want) == 18
    assert got == want


def test_the_speed_probe_hooks_one_call_per_image(monkeypatch):
    """Every name the speed probe hooks is an attribute of its owner, and
    building the gradient-check corpus, one source and one target image,
    calls the hooked names twice and leaves them as they were."""
    monkeypatch.syspath_prepend(PERFBENCH)
    speed = importlib.import_module("speed")
    missing = [(owner.__name__, attr) for owner, attr in speed.HOOKS
               if attr not in owner.__dict__]
    assert speed.HOOKS and not missing
    before = [owner.__dict__[attr] for owner, attr in speed.HOOKS]
    probe = speed.SpeedProbe()
    ticks = []
    monkeypatch.setattr(probe, "tick", lambda: ticks.append(1))
    with probe.hooked():
        training.build_training_corpus(training.gradcheck_config())
    assert len(ticks) == 2
    assert [owner.__dict__[attr] for owner, attr in speed.HOOKS] == before


def test_episode_zero_steps_as_recorded(monkeypatch):
    """The first 8 steps of the `train` workload's episode 0, on the corpus
    of its set-up at rep 0, match the reference rows by the workload's own
    row check, so a change of the loss rows fails here before any bench run."""
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    train = workloads.Train()
    loop = workloads.Loop()
    corpus = train.setup(0, loop)
    want = train.load_reference()[0]
    got = [t.out for t in train._episode(corpus, 0, loop, limit=8)]
    assert not loop.errors and len(got) == 8
    assert all(workloads._row_matches(row, ref) for row, ref in zip(got, want))
