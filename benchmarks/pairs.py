"""Same-session pairs: the benchmark's end-to-end metrics of a base commit
against the working tree, measured back to back.

    python3 benchmarks/pairs.py --base REV --workload W --pairs N --seeds A-B

REV is exported with `git archive` into a temporary directory, so the
working tree is not touched. The script refuses to run when perfbench/ or
BENCHMARK.json differ between REV and the working tree, untracked files
included: both sides must be measured by the same benchmark. Pair i runs
seed A + i mod (B - A + 1) on both sides, each with its own tree's
perfbench/run.py at --trace 0 for bench.py's SECONDS, so that pairs and
BENCH files measure runs of one length, and alternates which side runs
first. It prints, per end-to-end metric, the median and quartiles of each
side, the change of the medians, the pairs the working tree won and
whether the medians differ by more than the base's quartile distance. A
run that exits non-zero or reports a failed job stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

from bench import SECONDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARED = ("perfbench", "BENCHMARK.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def seed_range(text):
    """[A, ..., B] from "A-B", or [A] from "A"."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def shared_differences(base, root=ROOT):
    """The files of SHARED that differ between base and the working tree:
    tracked files that changed and untracked files that are not ignored."""
    names = set()
    for command in (["diff", "--name-only", base], ["ls-files", "--others", "--exclude-standard"]):
        done = subprocess.run(["git", *command, "--", *SHARED], cwd=root, capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"git {command[0]} against {base} failed:\n{done.stderr}")
        names.update(done.stdout.split())
    return sorted(names)


def export(base, directory, root=ROOT):
    """Write the tree of commit base into directory."""
    archive = os.path.join(directory, "base.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, base], cwd=root, check=True)
    tree = os.path.join(directory, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run(tree, workload, seed):
    """The metrics of one perfbench run of the tree."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(command[1:])}: {result['failed']} of {result['attempted']} jobs failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, better):
    """Per metric of better ({name: "lower" or "higher"}), from a list of
    (base metrics, change metrics) pairs: both sides' quartiles, the
    relative change of the medians, the pairs the change won, and whether
    the medians differ by more than the base's quartile distance."""
    summary = {}
    for name, direction in better.items():
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if direction == "lower" else -1
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        summary[name] = {
            "base": [b1, b2, b3],
            "change": [c1, c2, c3],
            "delta": (c2 - b2) / b2 if b2 else float("nan"),
            "won": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
            "beyond_base_iqr": sign * (b2 - c2) > b3 - b1,
        }
    return summary


def report(summary):
    """One line per metric."""
    lines = []
    for name, s in summary.items():
        b1, b2, b3 = s["base"]
        c1, c2, c3 = s["change"]
        lines.append(
            f"{name:<13} base {b2:.5g} [{b1:.5g}, {b3:.5g}]  change {c2:.5g} [{c1:.5g}, {c3:.5g}]  "
            f"delta {100 * s['delta']:+.1f}%  won {s['won']}/{s['pairs']}  "
            f"beyond base IQR: {'yes' if s['beyond_base_iqr'] else 'no'}"
        )
    return lines


def end_to_end_metrics(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    differing = shared_differences(args.base)
    if differing:
        sys.exit(f"refusing: {', '.join(differing)} differ between {args.base} and the working tree")
    pairs = []
    with tempfile.TemporaryDirectory() as directory:
        base_tree = export(args.base, directory)
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            sides = [("base", base_tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            metrics = {side: run(tree, args.workload, seed) for side, tree in sides}
            pairs.append((metrics["base"], metrics["change"]))
            print(f"# pair {i + 1}/{args.pairs} seed {seed}, {sides[0][0]} first", flush=True)
    summary = summarize(pairs, end_to_end_metrics())
    print(f"{args.workload}: {args.pairs} pairs, working tree against {args.base}, seeds {args.seeds}")
    print("\n".join(report(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
