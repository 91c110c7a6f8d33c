"""Write BENCH_<workload>.json: the benchmark's metrics for one workload.

    python3 benchmarks/bench.py --workload euler-subdiv

For each seed in SEEDS, perfbench/run.py runs in its own interpreter for
SECONDS, once at --trace 0 (the end-to-end metrics) and once at --trace 1
(the per-layer metrics). Both are fixed, so every BENCH file is measured
the same way; perfbench/run.py checks the workload name. The file,
written next to this script, keeps each run's JSON result line with its
run metadata and host probe note, the median over the seeds of every
metric, the host (nproc, numpy, BLAS, Python, CPU model), the seeds, the
run length and the commit measured.
A run that exits non-zero or reports a failed job stops the script before
anything is written. Times are perfbench's reference seconds; see
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (7, 8)
SECONDS = 36.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    return parser.parse_args(argv)


def run(workload, seed, trace, tree=ROOT):
    """perfbench's result line for one run of the checkout at tree, with
    its metadata and host probe notes."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(command[1:])}: {result['failed']} of {result['attempted']} jobs failed")
    for line in lines[:-1]:
        if line.startswith("# meta "):
            result["meta"] = json.loads(line[len("# meta "):])
        elif line.startswith("# host probe: "):
            result["host_probe"] = line[len("# host probe: "):]
    result["seed"] = seed
    return result


def medians(runs):
    """{metric: {value, unit}}, the value the median over the runs."""
    units = {name: metric["unit"] for name, metric in runs[0]["metrics"].items()}
    return {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in runs), "unit": unit}
        for name, unit in units.items()
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit():
    """The checked-out commit, marked dirty when src/ differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "--short", "HEAD")
    return f"{head}-dirty" if head and git("status", "--porcelain", "src") else head or None


def main(argv=None):
    args = parse_args(argv)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sections = {
        key: [run(args.workload, seed, trace) for seed in SEEDS]
        for key, trace in (("end_to_end", 0), ("per_layer", 1))
    }
    bench = {
        "workload": args.workload,
        "commit": commit(),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(),
        },
        **{key: {"median": medians(runs), "runs": runs} for key, runs in sections.items()},
    }
    path = os.path.join(ROOT, "benchmarks", f"BENCH_{args.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=1)
        handle.write("\n")
    wall = bench["end_to_end"]["median"]["wall_s"]["value"]
    print(f"{os.path.relpath(path, ROOT)}: wall_s median {wall:.5g} s over seeds {list(SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
