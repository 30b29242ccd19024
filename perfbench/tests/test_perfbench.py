"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchenv  # noqa: E402

benchenv.use_checkout()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny(name):
    if name == "train":
        workload = workloads.Train(corpus_size=2, episodes=3)
    else:
        workload = workloads.Cluster(blocks=2)
    workload.setup_reps = 1
    workload.trace_units = 1
    return workload


@pytest.fixture(scope="module", params=["train", "cluster"])
def recorded(request):
    workload = tiny(request.param)
    return workload, workload.record(workload.setup(0, workloads.Loop()))


def declared():
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_declared_metric(recorded, trace):
    workload, reference = recorded
    result, details, _ = run.run_workload(workload, reference, seed=3, seconds=0.01, trace=trace)
    assert details["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared()[trace]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert np.isfinite(m["value"])
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_leaves_no_wrapper(recorded):
    workload, reference = recorded
    before = {(id(o), a): o.__dict__[a] for o, a in tracer.target_names()}
    run.run_workload(workload, reference, seed=1, seconds=0.01, trace=1)
    assert {(id(o), a): o.__dict__[a] for o, a in tracer.target_names()} == before


def test_wrappers_restored_when_the_block_raises():
    before = {(id(o), a): o.__dict__[a] for o, a in tracer.target_names()}
    with pytest.raises(KeyError):
        with tracer.instrument(tracer.Tracer()):
            assert {(id(o), a): o.__dict__[a] for o, a in tracer.target_names()} != before
            raise KeyError("boom")
    assert {(id(o), a): o.__dict__[a] for o, a in tracer.target_names()} == before


def _corrupt(name, reference):
    bad = copy.deepcopy(reference)
    if name == "train":
        bad[:, :, 0] *= 1.0 + 1e-8  # L_c off by far more than the 1e-10 tolerance
    else:
        for block in bad:
            block[0]["sigma_star"] = np.nextafter(block[0].get("sigma_star", 0.0), np.inf)
    return bad


@pytest.mark.parametrize("trace", [0, 1])
def test_injected_mismatch_raises_failed_frac(recorded, trace):
    workload, reference = recorded
    result, details, _ = run.run_workload(
        workload, _corrupt(workload.name, reference), seed=3, seconds=0.01, trace=trace)
    assert details["errors"] == []
    assert not result["correct"] and result["failed"] >= 1
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == result["failed"] / result["attempted"] > 0


def test_exact_counts_repeat_for_a_seed(recorded):
    workload, reference = recorded
    counts = []
    for _ in range(2):
        result, _, _ = run.run_workload(workload, reference, seed=4, seconds=0.01, trace=1)
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    conv_calls = counts[0]["autodiff.conv2d.calls"]
    if workload.name == "train":
        assert conv_calls == 22.0  # 3 backbone, 3 private, 3 decoder, 2 d1 convs, per image
        assert counts[0]["grouping.cluster_box_centers.calls"] == 0.0
    else:
        assert conv_calls == 0.0
        assert counts[0]["grouping.cluster_box_centers.calls"] == 1.0


def test_pool_order_depends_only_on_seed():
    assert list(workloads._order(5, 10)) == list(workloads._order(5, 10))
    assert list(workloads._order(5, 10)) != list(workloads._order(6, 10))
