"""curvcalc benchmark: one seeded workload, closed loop, checked answers.

    python3 perfbench/run.py --workload {euler-subdiv,cli-exact,curv-mc}
                             --seed N --seconds S --trace {0,1}

One client in one process runs the workload's batch of jobs back to back,
round after round, until S seconds have passed and at least 100 jobs have
run. Every answer is checked against an oracle that does not use the code
under test; a job that raises or fails its oracle counts as failed.

Times are reported in reference seconds: each is scaled by the host speed
probe timed around it (see hostspeed.py), because the CPU speed of a shared
virtual machine can drift by 2x within a run.

--trace 0 prints the end-to-end metrics: set-up time of a fresh
interpreter (median of several), batch time (median over the rounds),
per-job median and 90th percentile over every job of the run, and peak
RSS. --trace 1 alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones, plus the tracing overhead.
The last line of stdout is the JSON result; lines before it starting with
"#" are run metadata and notes. See perfbench/README.md.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
from program import ROOT, WORK, BenchmarkError, import_curvcalc

WORKLOAD_NAMES = ("euler-subdiv", "cli-exact", "curv-mc")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mib": "MiB",
}
TAIL_PERCENTILE = 90
MIN_JOBS = 100  # so that at least 10 jobs lie beyond the 90th percentile
MIN_ROUNDS = 4
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def note(text):
    print(f"# {text}", flush=True)


class Tally:
    """Jobs attempted and failed; the first few failures go to stderr."""

    def __init__(self, report=True):
        self.attempted = 0
        self.failed = 0
        self.report = report

    def record(self, job, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            if self.report and self.failed <= 5:
                print(f"job {job.kind} failed: {'; '.join(failures[:3])}", file=sys.stderr)


def execute(workload, job, prepared):
    """Run one job; returns (seconds, result, exception)."""
    start = time.perf_counter()
    try:
        result, error = workload.run(job.spec, prepared), None
    except Exception as exc:  # a failing job is counted, not fatal
        result, error = None, exc
    return time.perf_counter() - start, result, error


def judge(workload, job, result, error):
    """Oracle failures of one job; an exception counts as one."""
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"]
    try:
        return workload.check(job, result)
    except Exception as exc:  # malformed output is a failed job
        return [f"check raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"]


def self_test(workload, batch):
    """Inject wrong values into each job kind's check, and one job that
    raises, and require every one of them to count as a failure."""
    missed = []
    seen = set()
    for job in batch:
        if job.kind in seen:
            continue
        seen.add(job.kind)
        _, result, error = execute(workload, job, workload.prepare(job.spec))
        tally = Tally(report=False)
        if error is None:
            for _, wrong in workload.corrupt(job, result):
                tally.record(job, judge(workload, job, wrong, None))
        else:  # the timed rounds count this job's failures
            note(f"self-test: a {job.kind} job raised {error!r}; only its broken input was injected")
        broken = dataclasses.replace(job, spec=workload.broken_spec(job.spec))
        _, result, error = execute(workload, broken, workload.prepare(broken.spec))
        tally.record(broken, judge(workload, broken, result, error))
        if tally.failed != tally.attempted:
            missed.append(f"{tally.attempted - tally.failed} of {tally.attempted} in {job.kind}")
    if missed:
        raise BenchmarkError(f"self-test: injected faults not counted as failed: {', '.join(missed)}")
    note(f"self-test: injected faults in {', '.join(sorted(seen))} were all counted as failed")


class SetupProbe:
    """Set-up time of a fresh interpreter: import curvcalc and
    curvcalc.cli, then run the warm-up job. Samples are taken between
    rounds, so they see the machine at different moments; each is scaled
    by the host probe the child times right after its set-up."""

    def __init__(self, name, warmup, workdir):
        self.spec_path = os.path.join(workdir, "warmup.json")
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            json.dump(warmup.spec, handle)
        self.name = name
        self.raw = []
        self.samples = []

    def sample(self):
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
        done = subprocess.run(
            [sys.executable, child, self.name, self.spec_path],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise BenchmarkError(f"set-up child failed: {done.stderr.strip()[-2000:]}")
        reply = json.loads(done.stdout.strip().splitlines()[-1])
        self.raw.append(reply["setup_s"])
        self.samples.append(reply["setup_s"] * hostspeed.scale(reply["probe_s"]))


class Round:
    """One pass over the batch: each job's measured seconds and the factor
    that turns them into reference seconds."""

    def __init__(self, workload, batch, prepared, tally, index, probe, tracer=None):
        self.seconds, self.scales = [], []
        # The probe runs before the first job and after every job; a job is
        # scaled by the mean of the two probes on either side of it.
        before = probe()
        for position, (job, inputs) in enumerate(zip(batch, prepared)):
            if tracer is not None:
                tracer.job = (index, position)
            seconds, result, error = execute(workload, job, inputs)
            if tracer is not None:
                tracer.job = None
            after = probe()
            tally.record(job, judge(workload, job, result, error))
            self.seconds.append(seconds)
            self.scales.append(hostspeed.scale((before + after) / 2))
            before = after

    @property
    def reference(self):
        return [t * s for t, s in zip(self.seconds, self.scales)]


def seconds_list(values):
    return ", ".join(f"{t:.4f}" for t in values)


def end_to_end(args, workload, batch, prepared, tally, probe, setup):
    rounds = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds
        or len(rounds) < MIN_ROUNDS
        or len(batch) * len(rounds) < MIN_JOBS
    ):
        if len(setup.samples) < SETUP_REPEATS:
            setup.sample()
        rounds.append(Round(workload, batch, prepared, tally, len(rounds), probe))
    while len(setup.samples) < SETUP_REPEATS:
        setup.sample()
    round_times = [sum(r.reference) for r in rounds]
    job_times = [t for r in rounds for t in r.reference]
    tail = statistics.quantiles(job_times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    probes = [hostspeed.REFERENCE_S / s for r in rounds for s in r.scales]
    note("setup_s samples (reference s): " + seconds_list(setup.samples))
    note("setup_s samples (host s): " + seconds_list(setup.raw))
    note("round seconds (reference s): " + seconds_list(round_times))
    note("round seconds (host s): " + seconds_list(sum(r.seconds) for r in rounds))
    note(
        f"host probe: median {1e3 * statistics.median(probes):.3f} ms, range "
        f"{1e3 * min(probes):.3f}-{1e3 * max(probes):.3f} ms; reference {1e3 * hostspeed.REFERENCE_S:g} ms"
    )
    note(
        f"{len(rounds)} rounds of {len(batch)} jobs; job_tail_s is p{TAIL_PERCENTILE} over "
        f"{len(job_times)} jobs, {sum(t > tail for t in job_times)} beyond it"
    )
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "wall_s": statistics.median(round_times),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}


def per_layer(args, workload, batch, prepared, tally, probe):
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced, scales = [], [], {}
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds or min(len(plain), len(traced)) < 2:
        if index % 2:
            tracer.install()
            try:
                done = Round(workload, batch, prepared, tally, index, probe, tracer)
            finally:
                tracer.uninstall()
            traced.append(sum(done.reference))
            scales.update(((index, position), s) for position, s in enumerate(done.scales))
        else:
            plain.append(sum(Round(workload, batch, prepared, tally, index, probe).reference))
        index += 1
    note("untraced round seconds (reference s): " + seconds_list(plain))
    note("traced round seconds (reference s): " + seconds_list(traced))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    note(f"{len(plain)} untraced and {len(traced)} traced rounds of {len(batch)} jobs")
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write_spans(spans_path)
    note(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    tracer.check_coverage(args.workload)
    return tracer.layer_metrics(scales, len(batch), overhead)


def blas_threads():
    """OpenBLAS's own thread count when numpy bundles OpenBLAS."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype, query.argtypes = ctypes.c_int, []
                return int(query())
    return None


def metadata(args):
    import numpy

    from curvcalc import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": _kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def check_declaration():
    """BENCHMARK.json and this script must name the same metrics."""
    import tracer as tracing

    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)
    ours = {
        "end_to_end": {name: (unit, "lower") for name, unit in END_TO_END.items()},
        "per_layer": {name: spec[:2] for name, spec in tracing.METRICS.items()},
    }
    for key, metrics in ours.items():
        if {m["name"]: (m["unit"], m["better"]) for m in declared[key]} != metrics:
            raise BenchmarkError(f"BENCHMARK.json {key} does not match the benchmark's metrics")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOAD_NAMES):
        raise BenchmarkError("BENCHMARK.json workloads do not match the benchmark's workloads")


def main(argv=None):
    args = parse_args(argv)
    try:
        import_curvcalc()
        check_declaration()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        note("meta " + json.dumps(metadata(args)))
        workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        os.makedirs(workdir)
        try:
            batch, warmup = workload.generate(args.seed, workdir)
            prepared = [workload.prepare(job.spec) for job in batch]
            self_test(workload, batch)
            tally = Tally()
            probe = hostspeed.HostProbe()
            _, result, error = execute(workload, warmup, workload.prepare(warmup.spec))
            tally.record(warmup, judge(workload, warmup, result, error))
            if args.trace:
                metrics = per_layer(args, workload, batch, prepared, tally, probe)
            else:
                setup = SetupProbe(args.workload, warmup, workdir)
                metrics = end_to_end(args, workload, batch, prepared, tally, probe, setup)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    note(f"failed_frac = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    for name, metric in metrics.items():
        note(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
