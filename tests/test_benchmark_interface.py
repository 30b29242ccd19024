"""What the benchmark under `perfbench/` reads of the package.

The tracer patches each timed name where its caller looks it up, through
`owner.__dict__[attr]`, and the `cluster` workload groups the centers of
every `build_pair_corpus` proposal set, so a rename or a change of layout in
`src/` breaks the benchmark before any bench run would show it.
"""

import importlib
import os

import numpy as np

from fsalign import synth

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
