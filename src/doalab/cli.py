"""Command-line entry point: ``doa-lab <experiment> [options]``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import sys

from .errors import ConfigError, EstimationError, TrainingError
from .harness import EXPERIMENTS, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doa-lab",
        description="Monte Carlo experiments for hybrid-array DOA "
                    "detection and estimation; outputs seeded CSV curves.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="sectioned key=value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker count; a run forks at most "
                             "one process per CPU (results are identical for "
                             "any value)")
    parser.add_argument("--model", metavar="FILE", default=None,
                        help="trained MLNN model file (roc experiment)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.experiment, args.config, args.seed,
                             args.out, args.workers)
        path = run_experiment(config, model_path=args.model)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, TrainingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
