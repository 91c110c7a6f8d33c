"""The benchmark's tracer binds curvcalc functions and reads their
parameters by name (``alpha``, ``s``, ``complex``, ...). Run the
euler-subdiv warm-up job under the tracer, as perfbench/run.py does with
--trace 1, so that renaming a traced function or one of those parameters
fails here rather than only in the benchmark."""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_euler_subdiv_warm_up_job_passes_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    workload = workloads.EulerSubdiv()
    _, job = workload.generate(7, tmp_path)
    prepared = workload.prepare(job.spec)
    traced = tracer.Tracer()
    traced.install()
    try:
        result = workload.run(job.spec, prepared)
    finally:
        traced.uninstall()
    assert workload.check(job, result) == []
    assert not traced.errors
    traced.check_coverage("euler-subdiv")
