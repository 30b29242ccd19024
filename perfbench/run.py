"""fsalign benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train|cluster \
        --seed N --seconds S --trace 0|1

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
traces a fixed number of the seed's first input units, then runs untraced
for half the time to measure the tracing overhead, and prints the per-layer
metrics.
Every operation's output is checked against the recorded reference. Human
readable lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The full result
and provenance, and in a traced run the spans, are written to `.bench_out/`
in the checkout. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import benchenv

_now = time.perf_counter

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "cluster"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(units, seconds, loop):
    """Run whole units until `seconds` have passed or the pool is empty."""
    samples = []
    deadline = _now() + seconds
    for unit in units:
        samples.extend(unit(loop))
        if _now() >= deadline:
            break
    loop.probe.probe()  # every operation gets a probe after it
    return samples


class PoolExhausted(RuntimeError):
    """The input pool ran out before a measured phase took any operation."""


def run_workload(workload, reference, seed, seconds, trace):
    """Set up and measure one workload.

    Returns (result, details, tracer): `result` is the object the last
    output line prints, `details` holds raw times and failure tracebacks,
    and `tracer` the spans of a traced run (else None).
    """
    import tracer as tracing
    import workloads

    loop = workloads.Loop()
    with loop.probe.hooked():
        setups = []
        for rep in range(workload.setup_reps):
            setups.append(loop.call(lambda: workload.setup(rep, loop), op_span=False))
            if loop.errors:
                raise RuntimeError(f"set-up failed:\n{loop.errors[0]}")
        loop.probe.probe()
        units = workload.units(setups[0].out, seed, reference)
        tr = None
        traced = []
        if trace:
            # a fixed number of units, so the traced inputs and every count
            # depend on the seed alone
            loop.tracer = tr = tracing.Tracer()
            with tracing.instrument(tr):
                traced = measure(itertools.islice(units, workload.trace_units), math.inf, loop)
            loop.tracer = None
        untraced = measure(units, seconds / 2 if trace else seconds, loop)
    samples = untraced + traced
    if not untraced or (trace and not traced):
        raise PoolExhausted("the input pool ran out before a measured phase began")

    norm = lambda recs: [r.seconds * loop.probe.scale(r.start, r.end) for r in recs]  # noqa: E731
    failed = sum(not s.ok for s in samples)
    if trace:
        # per-layer times are scaled by the traced half's mean speed factor
        speed = sum(norm(traced)) / sum(s.seconds for s in traced)
        metrics = tracing.layer_metrics(tr, len(traced))
        for name, unit in tracing.PER_LAYER:
            if unit == "ms":
                metrics[name] *= speed
        rates = [len(part) / sum(norm(part)) for part in (untraced, traced)]
        metrics["trace.untraced_ops_per_s"], metrics["trace.traced_ops_per_s"] = rates
        metrics["trace.overhead_frac"] = rates[0] / rates[1] - 1.0
        metrics["failed_frac"] = failed / len(samples)
        units_of = dict(tracing.PER_LAYER)
    else:
        metrics = end_to_end_metrics(norm(samples), norm(setups))
        units_of = dict(END_TO_END)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of}}
    details = {
        "errors": loop.errors[:5],
        "raw_op_ms": [round(s.seconds * 1e3, 4) for s in samples],
        "raw_setup_s": [t.seconds for t in setups],
        "probe_ms": [round(v * 1e3, 4) for v in loop.probe.values],
    }
    return result, details, tr


def end_to_end_metrics(op_seconds, setup_seconds):
    import numpy as np

    ms = np.array(op_seconds) * 1e3
    return {
        "setup_s": float(np.median(setup_seconds)),
        "ops_per_s": float(1e3 * len(ms) / ms.sum()),
        "op_ms_p50": float(np.median(ms)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _sha256_files(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, benchenv.ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", benchenv.ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(benchenv.ROOT):
        return None
    return lines[1]


def _blas():
    """BLAS library name, version and thread count as numpy reports them."""
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def provenance(workload, seed):
    import numpy as np

    src_files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(os.path.join(benchenv.SRC, "fsalign"))
        for f in fs if f.endswith(".py"))
    return {
        "git_commit": _git_commit(),
        "src_sha256": _sha256_files(src_files),
        "config_hash": hashlib.sha256(
            json.dumps(workload.config(), sort_keys=True).encode()).hexdigest()[:16],
        "reference_sha256": _sha256_files([workload.reference_path()])[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        benchenv.use_checkout()
    except benchenv.MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    try:
        result, details, tr = run_workload(
            workload, workload.load_reference(), args.seed, args.seconds, args.trace)
    except PoolExhausted as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    failed = result["failed"]

    prov = provenance(workload, args.seed)
    out_dir = os.path.join(benchenv.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tr is not None:
        tr.write(stem + "-spans.npz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **result, **details}, fh, indent=1)

    for err in details["errors"][:3]:
        print(err, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']}  failed {failed}  "
          f"failed_frac {failed / result['attempted']:.6g}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for k, m in result["metrics"].items():
        print(f"  {k:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
