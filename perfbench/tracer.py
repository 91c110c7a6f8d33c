"""Outside-in tracer: wraps curvcalc's layer functions from the benchmark's
own process, records spans in memory and turns them into per-layer metrics.

Nothing in curvcalc is edited. ``Tracer.install`` replaces each traced
function at every binding site it has inside curvcalc (the defining module
and every module that imported it by name, found by identity), and the
``__init__`` of the traced classes; ``uninstall`` puts the originals back.
Per-simplex helpers (``as_simplex``, ``faces``, ``barycenter_value``) are
not wrapped: their call counts would make the tracer the cost.

A span is (target, bucket, start, end, parent span, job id). A bucket's
self time is the time of its spans minus the part covered by their child
spans, so a layer that calls another is not charged for it.
"""

import csv
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

from program import BenchmarkError

LAYERS = ("io", "complexes", "euler", "pushforwards", "curvature", "mc", "kernels",
          "morse", "adiabatic", "cli")


def _feeds(*names):
    """Mark a bucket or counter function with the names it can produce."""
    def mark(fn):
        fn.feeds = names
        return fn
    return mark


@_feeds("curvature.exact", "curvature.mc_accumulate")
def _curvature_bucket(arguments):
    return "curvature.exact" if arguments.get("method", "exact") == "exact" else "curvature.mc_accumulate"


@_feeds("io.parse_bytes")
def _parse_counts(a, result):
    return {"io.parse_bytes": len(a["text"].encode("utf-8"))}


@_feeds("complexes.simplices_built")
def _build_counts(a, result):
    return {"complexes.simplices_built": len(a["self"])}


@_feeds("euler.terms")
def _integral_terms(a, result):
    carrier = a["alpha"].complex if "alpha" in a else None
    return {"euler.terms": len(carrier) if carrier is not None else len(a["s"].coefficients)}


@_feeds("euler.terms")
def _weights_terms(a, result):
    return {"euler.terms": sum((d + 1) * n for d, n in enumerate(a["complex"].f_vector()))}


@_feeds("mc.rows_drawn", "mc.batches")
def _sample_counts(a, result):
    return {"mc.rows_drawn": a["count"], "mc.batches": 1}


@_feeds("mc.samples")
def _driver_counts(a, result):
    return {"mc.samples": a["n_samples"]}


_MIB = 1024.0 * 1024.0


@_feeds("kernels.ops", "kernels.bytes", "kernels.temp_peak_mib")
def _cone_counts(a, result):
    # Shapes of the numpy kernel: a (rows, cells of size k, k) float64
    # gather and its equality mask per size class, plus the argmax table.
    rows, n_vertices = a["heights"].shape
    sizes = a["sizes"]
    slots = int(sizes.sum())
    temp = max(rows * int((sizes == k).sum()) * int(k) * 9 for k in set(sizes.tolist()))
    return {
        "kernels.ops": rows * slots,
        "kernels.bytes": 8 * rows * (n_vertices + slots) + 8 * a["cells"].size,
        "kernels.temp_peak_mib": (temp + 8 * rows * len(sizes)) / _MIB,
    }


@_feeds("kernels.ops", "kernels.bytes", "kernels.temp_peak_mib")
def _lower_link_counts(a, result):
    # Shapes of the numpy kernel: (rows, link simplices, width) gather with
    # two comparison masks, and per-simplex owner heights and signs.
    rows, n_vertices = a["heights"].shape
    n_simplices, width = a["simp_verts"].shape
    gathered = rows * n_simplices * width
    return {
        "kernels.ops": 2 * gathered,
        "kernels.bytes": 8 * (rows * (n_vertices + n_simplices) + gathered) + 8 * rows * n_vertices,
        "kernels.temp_peak_mib": (10 * gathered + 16 * rows * n_simplices) / _MIB,
    }


@_feeds("cli.stdout_bytes")
def _stdout_counts(a, result):
    stdout = a.get("stdout")
    return {"cli.stdout_bytes": len(stdout.getvalue().encode("utf-8")) if stdout is not None else 0}


@_feeds("curvature.measure_calls")
def _measure_calls(a, result):
    return {"curvature.measure_calls": 1}


# (module, attribute path, bucket or bucket function, counter function)
TARGETS = (
    ("curvcalc.io", "parse_complex", "io.parse", _parse_counts),
    ("curvcalc.complexes", "SimplicialComplex.__init__", "complexes.build", _build_counts),
    ("curvcalc.complexes", "barycentric_subdivide", "complexes.subdivide", None),
    ("curvcalc.complexes", "SimplicialMap.__init__", "complexes.map", None),
    ("curvcalc.euler", "floor_integral", "euler.integral", _integral_terms),
    ("curvcalc.euler", "ceil_integral", "euler.integral", _integral_terms),
    ("curvcalc.euler", "tentative_integral", "euler.integral", _integral_terms),
    ("curvcalc.euler", "euler_integral", "euler.integral", _integral_terms),
    ("curvcalc.euler", "weights", "euler.weights", _weights_terms),
    ("curvcalc.pushforwards", "pushforward", "pushforwards.pushforward", None),
    ("curvcalc.pushforwards", "fubini_chi", "pushforwards.fubini", None),
    ("curvcalc.pushforwards", "fubini_curvature", "pushforwards.fubini", None),
    ("curvcalc.curvature", "Embedding.__init__", "curvature.embed", None),
    ("curvcalc.curvature", "curvature_measure", _curvature_bucket, _measure_calls),
    ("curvcalc.curvature", "curvature_integral", _curvature_bucket, None),
    ("curvcalc.curvature", "final_integral", _curvature_bucket, None),
    ("curvcalc.curvature", "gauss_bonnet_check", _curvature_bucket, None),
    ("curvcalc.mc", "sample_unit_directions", "mc.sample", _sample_counts),
    ("curvcalc.mc", "run_cone_counts", "mc.driver", _driver_counts),
    ("curvcalc.mc", "run_lower_link_stats", "mc.driver", _driver_counts),
    ("curvcalc.mc", "build_cell_arrays", "mc.build_arrays", None),
    ("curvcalc.mc", "build_link_arrays", "mc.build_arrays", None),
    ("curvcalc._kernels", "cone_argmax_counts", "kernels.cone", _cone_counts),
    ("curvcalc._kernels", "lower_link_index", "kernels.lower_link", _lower_link_counts),
    ("curvcalc.morse", "morse_curvature_measure", "morse.measure", None),
    ("curvcalc.adiabatic", "profile", "adiabatic.sweep", None),
    ("curvcalc.adiabatic", "adiabatic_sweep", "adiabatic.sweep", None),
    ("curvcalc.adiabatic", "nonsplit_demo", "adiabatic.sweep", None),
    ("curvcalc.cli", "run", "cli.run", _stdout_counts),
)

# Per-layer metric -> (unit, better, source: bucket or counter, workloads
# it should move, per the benchmark's layer map). A metric with a workload
# must fire on that workload or the traced run fails.
_E, _C, _M = "euler-subdiv", "cli-exact", "curv-mc"
METRICS = {
    "io.parse_s": ("s", "lower", "io.parse", (_C,)),
    "io.parse_bytes": ("B", "lower", "io.parse_bytes", (_C,)),
    "complexes.build_s": ("s", "lower", "complexes.build", (_E, _C)),
    "complexes.subdivide_s": ("s", "lower", "complexes.subdivide", (_E,)),
    "complexes.map_s": ("s", "lower", "complexes.map", (_E,)),
    "complexes.simplices_built": ("count", "lower", "complexes.simplices_built", (_E,)),
    "euler.integral_s": ("s", "lower", "euler.integral", (_E,)),
    "euler.weights_s": ("s", "lower", "euler.weights", (_E,)),
    "euler.terms": ("count", "lower", "euler.terms", (_E,)),
    "pushforwards.pushforward_s": ("s", "lower", "pushforwards.pushforward", (_E,)),
    "pushforwards.fubini_s": ("s", "lower", "pushforwards.fubini", (_M,)),
    "curvature.embed_s": ("s", "lower", "curvature.embed", (_C,)),
    "curvature.exact_s": ("s", "lower", "curvature.exact", (_C,)),
    "curvature.measure_calls": ("1/job", "lower", "curvature.measure_calls", (_C,)),
    "curvature.mc_accumulate_s": ("s", "lower", "curvature.mc_accumulate", (_M,)),
    "mc.sample_s": ("s", "lower", "mc.sample", (_M,)),
    "mc.driver_s": ("s", "lower", "mc.driver", (_M,)),
    "mc.build_arrays_s": ("s", "lower", "mc.build_arrays", (_M,)),
    "mc.rows_drawn": ("count", "lower", "mc.rows_drawn", (_M,)),
    "mc.batches": ("count", "lower", "mc.batches", (_M,)),
    "mc.useful_row_frac": ("fraction", "higher", "mc.samples", (_M,)),
    "kernels.cone_s": ("s", "lower", "kernels.cone", (_M,)),
    "kernels.lower_link_s": ("s", "lower", "kernels.lower_link", (_M,)),
    "kernels.ops": ("count", "lower", "kernels.ops", (_M,)),
    "kernels.bytes": ("B", "lower", "kernels.bytes", (_M,)),
    "kernels.temp_peak_mib": ("MiB", "lower", "kernels.temp_peak_mib", (_M,)),
    "morse.measure_s": ("s", "lower", "morse.measure", (_M,)),
    "adiabatic.sweep_s": ("s", "lower", "adiabatic.sweep", (_C,)),
    "cli.run_s": ("s", "lower", "cli.run", (_C,)),
    "cli.stdout_bytes": ("B", "lower", "cli.stdout_bytes", (_C,)),
    **{f"{layer}.errors": ("count", "lower", f"{layer}.errors", ()) for layer in LAYERS},
    "trace_overhead_frac": ("fraction", "lower", None, ()),
}


class _Target:
    def __init__(self, module_name, path, bucket, counts):
        owner = importlib.import_module(module_name)
        *owner_path, self.attr = path.split(".")
        for name in owner_path:
            owner = getattr(owner, name)
        self.owner = owner if owner_path else None
        self.name = f"{module_name}.{path}"
        try:
            self.original = getattr(owner, self.attr)
        except AttributeError:
            raise BenchmarkError(f"traced function {self.name} no longer exists") from None
        self.bucket = bucket
        self.counts = counts
        self.signature = inspect.signature(self.original) if callable(bucket) or counts else None


class Tracer:
    """Spans and counters for the jobs run while installed."""

    def __init__(self):
        self.targets = [_Target(*spec) for spec in TARGETS]
        self.spans = []
        self.counters = []  # (job, counter, value)
        self.fired = defaultdict(int)  # bucket or counter -> calls
        self.errors = defaultdict(int)
        self.job = None  # (round, position) while a job runs
        self._stack = []
        self._installed = []

    def install(self):
        for index, target in enumerate(self.targets):
            wrapper = self._wrap(index, target)
            for owner, attr in self._binding_sites(target):
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, target.original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    @staticmethod
    def _binding_sites(target):
        if target.owner is not None:
            return [(target.owner, target.attr)]
        return [
            (module, attr)
            for name, module in list(sys.modules.items())
            if name == "curvcalc" or name.startswith("curvcalc.")
            for attr, value in list(vars(module).items())
            if value is target.original
        ]

    def _wrap(self, index, target):
        fn = target.original
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            arguments = None
            if target.signature is not None:
                arguments = target.signature.bind(*args, **kwargs).arguments
            bucket = target.bucket(arguments) if callable(target.bucket) else target.bucket
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[bucket.split(".")[0]] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, bucket, start, end, parent, self.job)
            self.fired[bucket] += 1
            if target.counts is not None:
                for counter, value in target.counts(arguments, result).items():
                    self.counters.append((self.job, counter, value))
                    self.fired[counter] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def self_times(self):
        """(job, bucket, self seconds) per span."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (job, bucket, end - start - covered[i])
            for i, (_, bucket, start, end, _, job) in enumerate(self.spans)
        ]

    def layer_metrics(self, scales, jobs_per_round, overhead):
        """Every per-layer metric: times are self seconds per batch and
        counts are per batch, each the median over the traced rounds;
        measure_calls is per job; temp_peak_mib is the largest computed
        kernel temporary; errors count over the whole traced phase.
        ``scales`` maps each traced job to the factor that turns its
        seconds into reference seconds."""
        rounds = sorted({job[0] for job in scales})
        per_round = defaultdict(lambda: defaultdict(float))
        for job, bucket, seconds in self.self_times():
            if job is not None:
                per_round[job[0]][bucket] += seconds * scales[job]
        totals = defaultdict(float)
        temp_peak = 0.0
        for job, counter, value in self.counters:
            if counter == "kernels.temp_peak_mib":
                temp_peak = max(temp_peak, value)
            elif job is not None:
                per_round[job[0]][counter] += value
                totals[counter] += value

        def per_batch(source):
            return statistics.median(per_round[r].get(source, 0.0) for r in rounds)

        special = {
            "trace_overhead_frac": overhead,
            "kernels.temp_peak_mib": temp_peak,
            "mc.useful_row_frac": (
                totals["mc.samples"] / totals["mc.rows_drawn"] if totals["mc.rows_drawn"] else 0.0
            ),
            "curvature.measure_calls": per_batch("curvature.measure_calls") / jobs_per_round,
            **{f"{layer}.errors": self.errors[layer] for layer in LAYERS},
        }
        return {
            metric: {"value": special[metric] if metric in special else per_batch(source), "unit": unit}
            for metric, (unit, _, source, _) in METRICS.items()
        }

    def check_coverage(self, workload):
        """Raise unless every metric mapped to this workload fired."""
        missing = []
        for metric, (_, _, source, workloads) in METRICS.items():
            if workload in workloads and not self.fired.get(source):
                feeders = [
                    t.name for t in self.targets
                    if source in (t.bucket.feeds if callable(t.bucket) else (t.bucket,))
                    or t.counts is not None and source in t.counts.feeds
                ]
                missing.append(f"{metric} (fed by {', '.join(feeders) or 'nothing'})")
        if missing:
            raise BenchmarkError(
                f"trace coverage on {workload}: no call reached a wrapped binding site for "
                + "; ".join(missing)
            )

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("function", "bucket", "start_s", "end_s", "parent", "job"))
            for index, bucket, start, end, parent, job in self.spans:
                writer.writerow((self.targets[index].name, bucket, f"{start:.9f}", f"{end:.9f}", parent, job))
