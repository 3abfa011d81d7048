"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import jobs as J
import run
from spans import self_times

HERE = Path(__file__).resolve().parent


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)
    assert run.tail(values[:21]) == (11.0, 100 * 11 / 21)
    assert run.tail(values[:20]) == (10.5, 50.0)
    assert run.tail([7.0]) == (7.0, 50.0)
    assert run.tail(values[::-1]) == (30.0, 75.0)


def test_host_scale_uses_the_references_around_the_job():
    refs = [0.10, 0.20, 0.15]  # a job between refs[i] and refs[i + 1] is scaled by host_scale(refs, i)
    assert run.host_scale(refs, 0) == pytest.approx(run.REF_S / 0.15)
    assert run.host_scale(refs, 1) == pytest.approx(run.REF_S / 0.175)
    assert run.host_scale(refs, 2) == pytest.approx(run.REF_S / 0.15)  # after the last reference run


def test_reference_task_runs():
    wall, cpu, loop = run.run_ref(run.child_env())
    assert 0 < loop < wall and cpu > 0


@pytest.mark.parametrize("seed", range(5))
def test_counterexample_block_has_the_same_tiers_for_every_seed(seed):
    block = J.counterexample_block(random.Random(seed))
    reports = [job.props for job in block if job.kind == "counterexample"]
    counts = [job.props for job in block if job.kind == "count"]
    assert sorted(p["degrees"] for p in reports) == [2, 2, 3]
    halves = [set(p["primes"]) for p in reports if p["degrees"] == 2]
    assert set().union(*halves) == {2, 3, 5, 7} and not halves[0] & halves[1]
    assert all(len(half & {5, 7}) == 1 for half in halves)
    assert sorted(p["q"] for p in counts if p["variety"] == "Bl1P2") == [8, 25, 27]
    assert len([p for p in counts if p["variety"] == "P1xP1"]) == 2


def span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, None]


def test_self_time_of_nested_spans():
    spans = [
        span("cli.main", 0, 100, None),
        span("zeta.count_variety", 10, 60, 0),
        span("zeta.count_hypersurface_p3", 15, 55, 1),
        span("classification.describe", 70, 80, 0),
    ]
    assert self_times(spans) == [100 - 50 - 10, 50 - 40, 40, 10]


def test_self_time_clips_children_to_the_parent_interval():
    spans = [span("a", 0, 10, None), span("b", 5, 15, 0), span("c", 8, 12, 0)]
    assert self_times(spans)[0] == 5


def test_check_accepts_exact_output_only():
    job = J.count_job("P1xP1", 5, 5, 1, True)
    assert job.stdout == b'{"count":36,"k":1,"p":5,"q":5,"variety":"P1xP1"}\n'
    assert J.check(job, 0, job.stdout, b"")
    assert not J.check(job, 0, job.stdout.replace(b"36", b"37"), b"")
    assert not J.check(job, 0, job.stdout + b" ", b"")
    assert not J.check(job, 1, job.stdout, b"")
    assert not J.check(job, None, b"", b"")
    assert not J.check(job, 0, job.stdout, b"Traceback (most recent call last):\n")


def test_check_of_rejections():
    bad = J.Job(["count", "--variety", "fermat4", "--p", "9"], exit_code=1, error="NotPrime")
    assert J.check(bad, 1, b"", b"NotPrime: 9 is not prime\n")
    assert not J.check(bad, 1, b"", b"InvalidInput: nope\n")
    assert not J.check(bad, 2, b"", b"NotPrime: 9 is not prime\n")
    usage = J.Job(["classify"], exit_code=2)
    assert J.check(usage, 2, b"", b"usage: surftop classify ...\n")
    assert not J.check(usage, 0, b"", b"usage: surftop classify ...\n")


def test_fuzz_keeps_the_class_and_reaches_the_requested_shape():
    rng = random.Random(3)
    cls = {"variant": "IndefiniteEven", "e8_signed_count": -2, "h_count": 4}
    rows = J.fuzz(J.canonical_rows(cls), rng, 0.9, 20)
    n = len(rows)
    assert n == 24
    assert all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
    assert sum(1 for r in rows for v in r if v) >= 0.9 * n * n
    assert 19 <= max(abs(v) for r in rows for v in r).bit_length() <= J.MAX_ENTRY_BITS
    assert all(rows[i][i] % 2 == 0 for i in range(n))  # even stays even


def test_blocks_depend_only_on_the_seed(tmp_path):
    a = J.make_blocks("cli-small", 5, 2, str(tmp_path))
    b = J.make_blocks("cli-small", 5, 2, str(tmp_path))
    c = J.make_blocks("cli-small", 6, 2, str(tmp_path))
    argvs = lambda blocks: [job.argv for block in blocks for job in block]  # noqa: E731
    assert argvs(a) == argvs(b)
    assert argvs(a) != argvs(c)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(J.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (bench / "fermat_counts.json").write_bytes((HERE / "fermat_counts.json").read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "cli-small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == b""


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_first_block_passes_in_process(workload, tmp_path):
    """Every expectation of a block matches what surftop actually prints."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import surftop.cli  # noqa: F401

    block = J.make_blocks(workload, 11, 1, str(tmp_path))[0]
    if workload == "fermat":  # the GF(49) jobs take seconds each
        block = [job for job in block if job.props["q"] < 49]
    J.write_grams([block])
    assert [job.argv for job in block if not run.replay_job(job)[3]] == []
