"""Command-line front end.

    fsalign train [--config CONFIG.json] [--out DIR]
    fsalign gradcheck

`train` runs the adapted model and its source-only twin (`run_experiment`)
and, with `--out DIR`, writes DIR/config.json (the config it ran),
DIR/metrics.json, DIR/<twin>/steps.jsonl (the per-step losses) and
DIR/<twin>/checkpoint.npz for <twin> adapted and source_only.
`gradcheck` prints the per-branch finite-difference report as JSON.
"""

import argparse
import json
import os
import sys

from . import training


def _parser():
    p = argparse.ArgumentParser(prog="fsalign", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    tr = sub.add_parser("train", help="adapted run plus source-only twin")
    tr.add_argument("--config", help="JSON config (see training.config_to_dict); "
                    "defaults to TrainConfig()")
    tr.add_argument("--out", help="directory for config.json, metrics.json, adapted/ "
                    "and source_only/, each with steps.jsonl and checkpoint.npz")
    sub.add_parser("gradcheck", help="finite-difference check of every branch")
    return p


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "train":
        cfg = training.TrainConfig()
        if args.config:
            try:
                cfg = training.load_config(args.config)
            except (OSError, ValueError, TypeError) as err:
                parser.error(f"--config {args.config}: {err}")
        if args.out:
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as err:
                parser.error(f"--out {args.out}: {err}")
        print(json.dumps(training.run_experiment(cfg, args.out)))
    else:
        report = training.finite_difference_check()
        print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
