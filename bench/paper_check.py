#!/usr/bin/env python3
"""Checks the paper benches' --json output against BENCH_paper.json.

    python3 bench/paper_check.py --all build-bench/bench
    ./build-bench/bench/table1_scalability --json | python3 bench/paper_check.py table1
    ./build-bench/bench/table1_scalability --json | python3 bench/paper_check.py table1 --write

Each section of BENCH_paper.json at the repository root pins one bench
binary's --json output; BINARIES below maps every section to its binary.
--all runs each binary in the given directory and compares its output
exactly with its section. A section name instead reads one JSON object from
stdin and compares it with that section. The paper benches are
deterministic, so any difference is a change in behaviour: the check names
every differing entry and exits 1. --write records a section's numbers
instead, for a change that means to move them.
"""
import argparse
import json
import os
import subprocess
import sys

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCH_paper.json")

# Section of BENCH_paper.json -> the bench binary whose --json output it pins.
BINARIES = {
    "table1": "table1_scalability",
    "fig06": "fig06_stability_estimation",
    "fig08": "fig08_strategy_comparison",
    "fig09": "fig09_cumulative_utility",
    "fig10": "fig10_search_cost",
    "ablation_pruning": "ablation_pruning",
    "ablation_band": "ablation_band",
    "ablation_horizon": "ablation_horizon",
}


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


def check(committed, section, got):
    """Prints the verdict for one section; True when it matches exactly."""
    if section not in committed:
        print(f"paper_check: {PATH} has no {section} section", file=sys.stderr)
        return False
    diffs = differences(committed[section], got, section)
    for d in diffs:
        print(f"paper_check: {d}", file=sys.stderr)
    if diffs:
        return False
    print(f"paper_check: {section} matches BENCH_paper.json")
    return True


def check_all(committed, bench_dir):
    """Runs every section's binary and checks its output; True when all match."""
    ok = True
    for section in sorted(set(committed) - set(BINARIES)):
        print(f"paper_check: no binary pins the {section} section", file=sys.stderr)
        ok = False
    for section, binary in BINARIES.items():
        run = subprocess.run([os.path.join(bench_dir, binary), "--json"],
                             stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"paper_check: {binary} --json exited {run.returncode}",
                  file=sys.stderr)
            ok = False
            continue
        ok = check(committed, section, json.loads(run.stdout)) and ok
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("section", nargs="?")
    target.add_argument("--all", metavar="BENCH_DIR")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    if args.write and args.all:
        parser.error("--write records one section read from stdin")
    committed = {}
    if os.path.exists(PATH):
        with open(PATH) as f:
            committed = json.load(f)

    if args.all:
        return 0 if check_all(committed, args.all) else 1

    got = json.load(sys.stdin)
    if args.write:
        committed[args.section] = got
        with open(PATH, "w") as f:
            json.dump(committed, f, indent=2)
            f.write("\n")
        print(f"paper_check: wrote {args.section} to {PATH}")
        return 0
    return 0 if check(committed, args.section, got) else 1


if __name__ == "__main__":
    sys.exit(main())
