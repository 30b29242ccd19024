"""Record the outputs the benchmark checks every run against.

    python3 perfbench/record_references.py [train] [cluster]

Runs each named workload's whole input pool once, untraced, and writes its
outputs to perfbench/references/. Record only on a commit whose outputs are
known good: a later run fails every operation whose output differs.
"""

import sys
import time

import benchenv


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or ["train", "cluster"]
    benchenv.use_checkout()
    import workloads

    for name in names:
        workload = workloads.WORKLOADS[name]()
        t0 = time.perf_counter()
        state = workload.setup(0, workloads.Loop())
        workload.save_reference(workload.record(state))
        print(f"{name}: recorded in {time.perf_counter() - t0:.1f} s -> {workload.reference_path()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
