#!/usr/bin/env python3
"""Checks a paper bench's --json output against BENCH_paper.json.

    ./build/bench/table1_scalability --json | python3 bench/paper_check.py table1
    ./build/bench/table1_scalability --json | python3 bench/paper_check.py table1 --write
    ./build/bench/fig08_strategy_comparison --json | python3 bench/paper_check.py fig08
    ./build/bench/fig10_search_cost --json | python3 bench/paper_check.py fig10
    ./build/bench/fig09_cumulative_utility --json | python3 bench/paper_check.py fig09
    ./build/bench/ablation_pruning --json | python3 bench/paper_check.py ablation_pruning
    ./build/bench/fig06_stability_estimation --json | python3 bench/paper_check.py fig06
    ./build/bench/ablation_band --json | python3 bench/paper_check.py ablation_band
    ./build/bench/ablation_horizon --json | python3 bench/paper_check.py ablation_horizon

Reads one JSON object from stdin and compares it exactly with the named
section of BENCH_paper.json at the repository root. The paper benches are
deterministic, so any difference is a change in behaviour: the check exits 1
and names every differing entry. --write records the numbers instead, for a
change that means to move them.
"""
import argparse
import json
import os
import sys

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCH_paper.json")


def differences(want, got, where):
    if isinstance(want, dict) and isinstance(got, dict):
        return [d for k in sorted(set(want) | set(got))
                for d in differences(want.get(k), got.get(k), f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{where}[{i}]")]
    if want == got:
        return []
    return [f"{where}: committed {json.dumps(want)}, now {json.dumps(got)}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("section")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    got = json.load(sys.stdin)
    committed = {}
    if os.path.exists(PATH):
        with open(PATH) as f:
            committed = json.load(f)

    if args.write:
        committed[args.section] = got
        with open(PATH, "w") as f:
            json.dump(committed, f, indent=2)
            f.write("\n")
        print(f"paper_check: wrote {args.section} to {PATH}")
        return 0

    if args.section not in committed:
        print(f"paper_check: {PATH} has no {args.section} section", file=sys.stderr)
        return 1
    diffs = differences(committed[args.section], got, args.section)
    for d in diffs:
        print(f"paper_check: {d}", file=sys.stderr)
    if diffs:
        return 1
    print(f"paper_check: {args.section} matches BENCH_paper.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
