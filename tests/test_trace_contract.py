"""The benchmark's tracer binds curvcalc functions and reads their
parameters by name (``alpha``, ``s``, ``complex``, ``count``, ...). Run
every job of each workload's seed-7 batch under the tracer, as
perfbench/run.py does with --trace 1, so that renaming a traced function
or one of those parameters fails here rather than only in the
benchmark."""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["euler-subdiv", "cli-exact", "curv-mc"])
def test_seed_7_batch_passes_under_the_tracer(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    workload = workloads.WORKLOADS[name]
    batch, _ = workload.generate(7, tmp_path)
    traced = tracer.Tracer()
    traced.install()
    try:
        results = [workload.run(job.spec, workload.prepare(job.spec)) for job in batch]
    finally:
        traced.uninstall()
    for job, result in zip(batch, results):
        assert workload.check(job, result) == []
    assert not traced.errors
    traced.check_coverage(name)
