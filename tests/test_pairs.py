"""The pure parts of benchmarks/pairs.py: quartiles, wins and the IQR
test from canned perfbench result lines, and the refusal to compare
trees whose benchmark differs."""

import json
import pathlib
import subprocess

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import pairs

    return pairs


def result_line(**values):
    """A perfbench result line with these end-to-end metric values."""
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics})


def metrics(line):
    return {name: m["value"] for name, m in json.loads(line)["metrics"].items()}


def test_quartiles_medians_and_wins_from_result_lines(pairs):
    base_values = ((1.0, 5.0), (1.2, 6.0), (1.1, 4.0), (1.3, 5.0), (1.4, 7.0))
    change_values = ((0.8, 6.0), (1.0, 5.0), (1.15, 5.0), (0.9, 6.0), (1.0, 8.0))
    base = [result_line(job_p50_s=v, score=s) for v, s in base_values]
    change = [result_line(job_p50_s=v, score=s) for v, s in change_values]
    summary = pairs.summarize(
        [(metrics(b), metrics(c)) for b, c in zip(base, change)], {"job_p50_s": "lower", "score": "higher"}
    )
    p50 = summary["job_p50_s"]
    assert p50["base"] == pytest.approx([1.1, 1.2, 1.3])
    assert p50["change"] == pytest.approx([0.9, 1.0, 1.0])
    assert p50["delta"] == pytest.approx(-1 / 6)
    # the third pair is the one the change lost
    assert (p50["won"], p50["pairs"]) == (4, 5)
    # the medians differ by 0.2, the base's quartiles by 0.2: not beyond
    assert not p50["beyond_base_iqr"]
    score = summary["score"]
    assert (score["won"], score["delta"]) == (4, pytest.approx(1 / 5))
    assert score["base"] == [5.0, 5.0, 6.0] and not score["beyond_base_iqr"]
    lines = pairs.report(summary)
    assert lines[0].startswith("job_p50_s     base") and "won 4/5" in lines[0] and "delta -16.7%" in lines[0]


def test_one_pair_and_a_clear_gain(pairs):
    summary = pairs.summarize([({"wall_s": 2.0}, {"wall_s": 1.0})], {"wall_s": "lower"})["wall_s"]
    assert summary["base"] == [2.0, 2.0, 2.0] and summary["change"] == [1.0, 1.0, 1.0]
    assert summary["won"] == 1 and summary["beyond_base_iqr"]


def test_seed_ranges(pairs):
    assert pairs.seed_range("31-40") == list(range(31, 41))
    assert pairs.seed_range("7") == [7]
    with pytest.raises(Exception):
        pairs.seed_range("9-8")


def git(root, *args):
    subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


def test_refuses_when_the_benchmark_differs(pairs, tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("print('v1')\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "src.py").write_text("x = 1\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")
    (tmp_path / "src.py").write_text("x = 2\n")  # the code under test may differ
    assert pairs.shared_differences("HEAD", root=tmp_path) == []
    (tmp_path / "perfbench" / "run.py").write_text("print('v2')\n")
    (tmp_path / "BENCHMARK.json").write_text('{"changed": true}\n')
    assert pairs.shared_differences("HEAD", root=tmp_path) == ["BENCHMARK.json", "perfbench/run.py"]
    git(tmp_path, "checkout", "-q", "--", ".")
    assert pairs.shared_differences("HEAD", root=tmp_path) == []
    # a new module that the commit does not hold differs as well
    (tmp_path / "perfbench" / "extra.py").write_text("y = 1\n")
    assert pairs.shared_differences("HEAD", root=tmp_path) == ["perfbench/extra.py"]


def test_main_refuses_before_it_exports_or_runs(pairs, monkeypatch):
    monkeypatch.setattr(pairs, "shared_differences", lambda base: ["BENCHMARK.json"])

    def refuse(*args, **kwargs):
        raise AssertionError("nothing is exported or run after a refusal")

    monkeypatch.setattr(pairs, "export", refuse)
    monkeypatch.setattr(pairs, "run", refuse)
    with pytest.raises(SystemExit, match="refusing: BENCHMARK.json differ"):
        pairs.main(["--base", "HEAD~1", "--workload", "curv-mc", "--pairs", "10", "--seeds", "1-10"])


def traced_line(lower_link_s, useful_row_frac):
    """A perfbench --trace 1 result line: per-layer metrics only."""
    metrics = {
        "kernels.lower_link_s": {"value": lower_link_s, "unit": "s"},
        "mc.useful_row_frac": {"value": useful_row_frac, "unit": "fraction"},
    }
    return json.dumps({"correct": True, "attempted": 24, "failed": 0, "metrics": metrics})


def test_traced_pairs_summarize_the_per_layer_metrics(pairs):
    declared = pairs.declared_metrics("per_layer")
    assert declared["kernels.lower_link_s"] == "lower" and declared["mc.useful_row_frac"] == "higher"
    assert "mc.build_arrays_s" in declared and "job_p50_s" not in declared
    base = [traced_line(*v) for v in ((0.020, 0.99), (0.021, 0.98), (0.022, 0.99))]
    change = [traced_line(*v) for v in ((0.015, 0.99), (0.016, 0.97), (0.023, 0.995))]
    wanted = {name: declared[name] for name in ("kernels.lower_link_s", "mc.useful_row_frac")}
    summary = pairs.summarize([(metrics(b), metrics(c)) for b, c in zip(base, change)], wanted)
    link = summary["kernels.lower_link_s"]
    assert link["base"] == pytest.approx([0.0205, 0.021, 0.0215])
    assert link["change"] == pytest.approx([0.0155, 0.016, 0.0195])
    assert (link["won"], link["beyond_base_iqr"]) == (2, True)
    assert link["delta"] == pytest.approx(-5 / 21)
    frac = summary["mc.useful_row_frac"]
    # higher is better: the last pair won, the second lost, the first tied
    assert (frac["won"], frac["beyond_base_iqr"]) == (1, False)
    lines = pairs.report(summary)
    assert lines[0].startswith("kernels.lower_link_s base") and "won 2/3" in lines[0]
    assert lines[1].startswith("mc.useful_row_frac   base")


def test_trace_runs_both_sides_traced_and_reports_the_layers(pairs, monkeypatch, capsys):
    monkeypatch.setattr(pairs, "shared_differences", lambda base: [])
    monkeypatch.setattr(pairs, "export", lambda base, directory: "base-tree")
    calls = []

    def run(tree, workload, seed, trace=False):
        calls.append((tree, seed, trace))
        value = 0.02 if tree == "base-tree" else 0.01
        return {name: value for name in pairs.declared_metrics("per_layer")}

    monkeypatch.setattr(pairs, "run", run)
    argv = ["--base", "HEAD", "--workload", "curv-mc", "--pairs", "2", "--seeds", "5-6", "--trace"]
    assert pairs.main(argv) == 0
    assert [(tree == "base-tree", seed, trace) for tree, seed, trace in calls] == [
        (True, 5, True), (False, 5, True), (False, 6, True), (True, 6, True)
    ]
    out = capsys.readouterr().out
    assert "curv-mc: 2 pairs, traced" in out
    assert "kernels.lower_link_s" in out and "mc.build_arrays_s" in out and "job_p50_s" not in out


def test_pair_lines_give_each_pairs_values(pairs):
    # a metric that flips between two levels: the medians hide it, the
    # pair lines show it
    base = [result_line(wall_s=1.0, peak_rss_mib=69.8), result_line(wall_s=1.25, peak_rss_mib=73.5)]
    change = [result_line(wall_s=0.9, peak_rss_mib=73.5), result_line(wall_s=1.3, peak_rss_mib=69.8)]
    measured = [(metrics(b), metrics(c)) for b, c in zip(base, change)]
    assert pairs.pair_lines(measured, [7, 8], ["wall_s", "peak_rss_mib"]) == [
        "pair 1 seed 7: wall_s 1 -> 0.9, peak_rss_mib 69.8 -> 73.5",
        "pair 2 seed 8: wall_s 1.25 -> 1.3, peak_rss_mib 73.5 -> 69.8",
    ]


def test_main_prints_a_line_per_pair_after_the_summary(pairs, monkeypatch, capsys):
    monkeypatch.setattr(pairs, "shared_differences", lambda base: [])
    monkeypatch.setattr(pairs, "export", lambda base, directory: "base-tree")
    values = iter([1.0, 2.0, 4.0, 3.0, 5.0, 6.0])  # base, change; change, base; base, change

    def run(tree, workload, seed, trace=False):
        return {name: next(values) for name in ["wall_s"]}

    monkeypatch.setattr(pairs, "run", run)
    monkeypatch.setattr(pairs, "declared_metrics", lambda kind: {"wall_s": "lower"})
    argv = ["--base", "HEAD", "--workload", "curv-mc", "--pairs", "3", "--seeds", "7-8"]
    assert pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5].startswith("curv-mc: 3 pairs, working tree against HEAD")
    assert lines[-4].startswith("wall_s        base 3 [2, 4]  change 4 [3, 5]")
    assert lines[-3:] == [
        "pair 1 seed 7: wall_s 1 -> 2",
        "pair 2 seed 8: wall_s 3 -> 4",
        "pair 3 seed 7: wall_s 5 -> 6",
    ]


def test_runs_go_through_bench_run_in_the_given_tree(pairs, monkeypatch, tmp_path):
    import bench

    calls = []

    def completed(command, cwd, capture_output, text):
        calls.append((command, cwd))
        out = "# meta {}\n" + result_line(wall_s=0.5, peak_rss_mib=70.0)
        return subprocess.CompletedProcess(command, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", completed)
    assert pairs.run(str(tmp_path), "curv-mc", 7, trace=True) == {"wall_s": 0.5, "peak_rss_mib": 70.0}
    (command, cwd), = calls
    assert cwd == str(tmp_path) and command[1] == str(tmp_path / "perfbench" / "run.py")
    seconds = str(bench.SECONDS)
    assert command[2:] == ["--workload", "curv-mc", "--seed", "7", "--seconds", seconds, "--trace", "1"]
    # a failing run stops the script with the command and its stderr
    failed = subprocess.CompletedProcess(command, 3, stdout="", stderr="boom")
    monkeypatch.setattr(bench.subprocess, "run", lambda *args, **kwargs: failed)
    arguments = f"--workload curv-mc --seed 7 --seconds {bench.SECONDS} --trace 0"
    with pytest.raises(SystemExit) as stopped:
        pairs.run(str(tmp_path), "curv-mc", 7)
    assert stopped.value.code == f"{tmp_path / 'perfbench' / 'run.py'} {arguments} exited 3:\nboom"
    # and so does a run that reports failed jobs
    wrong = json.dumps({"correct": False, "attempted": 100, "failed": 2, "metrics": {}})
    reported = subprocess.CompletedProcess(command, 0, stdout=wrong, stderr="")
    monkeypatch.setattr(bench.subprocess, "run", lambda *args, **kwargs: reported)
    with pytest.raises(SystemExit, match="--trace 0: 2 of 100 jobs failed"):
        pairs.run(str(tmp_path), "curv-mc", 7)
