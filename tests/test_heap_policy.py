"""The heap policy `fsalign` sets when it is imported (`keep_heap_pages`).

Each test runs a fresh interpreter: the policy acts once, at import, and the
faults it prevents depend on the heap's history since start-up.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import fsalign

SRC = pathlib.Path(fsalign.__file__).resolve().parents[1]

# default-network train steps on a 2+2 corpus; prints whether the policy is
# set and the minor page faults per step after warm-up
STEPS = """
import resource

import fsalign
from fsalign import autodiff, network, training

cfg = training.TrainConfig(corpus_size=2)
source, target = training.build_training_corpus(cfg)
net = network.SeparationNet(cfg.network, seed=0)
opt = autodiff.SGD(net.params(), lr=cfg.lr_initial, momentum=cfg.momentum)


def faults_after(steps):
    for k in range(steps):
        training.train_step(net, source[k % 2], target[k // 2 % 2], cfg.weights, opt)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


warm = faults_after(8)
print(fsalign.keep_heap_pages(), (faults_after(24) - warm) / 24)
"""

# the C library as a process whose libc lacks mallopt would see it
NO_MALLOPT = """
import ctypes


class Libc:
    def gnu_get_libc_version(self):
        return b"2.36"


ctypes.CDLL = lambda *args, **kwargs: Libc()
import fsalign

print(fsalign.keep_heap_pages())
"""


def _run(code):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_warm_train_steps_take_no_page_faults():
    """Without the policy each of these steps faults back in the ~240 pages
    that freeing the previous step's graph trimmed off the heap top."""
    is_set, per_step = _run(STEPS)
    if is_set != "True":
        pytest.skip("the C library is not glibc")
    assert float(per_step) < 10


def test_import_works_without_mallopt():
    assert _run(NO_MALLOPT) == ["False"]
