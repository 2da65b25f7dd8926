"""``python -m perfbench``: run, trace, A/A-compare and the driver contract.

    python -m perfbench run hot_repeat --seed 7      # end-to-end metrics
    python -m perfbench trace hot_repeat --seed 7    # per-layer metrics
    python -m perfbench aa --runs 10                 # two interleaved sets
    python -m perfbench baseline --seeds 7 11        # results/baseline.json
    python -m perfbench bench --workload W --seed N --seconds S --trace 0|1

Every command exits non-zero when an answer check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .env import ensure_measuring_process


def _print_table(document: dict) -> None:
    print(
        f"{document['workload']} seed={document['seed']} "
        f"passes={document['passes']} attempted={document['attempted']} "
        f"failed={document['failed']} correct={document['correct']}"
    )
    for name, entry in document["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    for failure in document.get("failures", []):
        print(f"  FAILED: {failure}")


def _emit(document: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(document, sort_keys=True))
    else:
        _print_table(document)
    return 0 if document["correct"] else 1


def main(argv=None) -> int:
    from .ops import WORKLOADS
    from .runner import RUN_SECONDS

    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def workload_command(name: str, help_text: str):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("workload", choices=sorted(WORKLOADS))
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument(
            "--smoke", action="store_true", help="scale 0.1, one timed pass"
        )
        sub.add_argument("--json", action="store_true")
        return sub

    workload_command("run", "untraced run: the eight end-to-end metrics")
    workload_command("trace", "traced run: the per-layer metrics")

    aa = commands.add_parser("aa", help="two interleaved sets of full runs")
    aa.add_argument("--runs", type=int, default=10)
    aa.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    aa.add_argument("--smoke", action="store_true")
    aa.add_argument("--out", default=None)

    baseline = commands.add_parser("baseline", help="write results/baseline.json")
    baseline.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    baseline.add_argument("--smoke", action="store_true")
    baseline.add_argument("--out", default=None)

    bench = commands.add_parser("bench", help="the benchmark driver's contract")
    bench.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument(
        "--seconds",
        type=float,
        default=RUN_SECONDS,
        help="scales the number of timed passes (the unique-text universe "
        "lasts to about 24); the traced run is always 1 warm-up + 3 passes",
    )
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)

    args = parser.parse_args(argv)
    ensure_measuring_process()

    if args.command == "run":
        from .runner import run_workload

        return _emit(
            run_workload(args.workload, args.seed, smoke=args.smoke), args.json
        )
    if args.command == "trace":
        from .layers import trace_workload

        return _emit(trace_workload(args.workload, args.seed, args.smoke), args.json)
    if args.command == "aa":
        from .aa import run_aa

        return run_aa(args.runs, args.workloads, args.smoke, args.out)
    if args.command == "baseline":
        from .aa import write_baseline

        return write_baseline(args.seeds, args.smoke, args.out)
    # bench: the last stdout line is the contract's JSON object.
    if args.trace:
        from .layers import trace_workload

        document = trace_workload(args.workload, args.seed, smoke=False)
    else:
        from .runner import run_workload

        document = run_workload(args.workload, args.seed, args.seconds)
    _print_table(document)
    print(
        json.dumps(
            {
                "correct": document["correct"],
                "attempted": document["attempted"],
                "failed": document["failed"],
                "metrics": document["metrics"],
            }
        )
    )
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
