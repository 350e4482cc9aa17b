"""Self-tests of the benchmark harness: python3 -m pytest waldbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import specgen  # noqa: E402
from worker import report_name  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "waldbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "report_sha256" in proc.stdout and "env " in proc.stdout


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Worker records and reports of tiny untraced runs, kept for re-scoring."""
    out = {}
    for workload in ("mc_pinned", "symbolic_stream"):
        work = tmp_path_factory.mktemp(workload)
        specs, expected = run.prepare(workload, 5, "tiny", work)
        worker = run.run_worker(workload, 5, 1.0, 0, "tiny", specs, work, 120.0)
        out[workload] = (worker["records"], work, expected, specs)
    return out


def _rescore(runs, workload):
    records, work, expected, specs = runs[workload]
    return run.score(records, work / "reports", 5, expected, specs)[0]


def test_untouched_reports_pass(tiny_runs):
    assert _rescore(tiny_runs, "mc_pinned") == []
    assert _rescore(tiny_runs, "symbolic_stream") == []


def test_corrupted_median_counts_as_failed(tiny_runs):
    records, work, _, _ = tiny_runs["mc_pinned"]
    path = work / "reports" / report_name("simulate:pinned")
    original = path.read_text()
    report = json.loads(original)
    report["sim"]["median_w"][1] *= 1 + 1e-6
    path.write_text(json.dumps(report))
    try:
        failures = _rescore(tiny_runs, "mc_pinned")
    finally:
        path.write_text(original)
    pinned = [r for r in records if r["key"] == "simulate:pinned"]
    assert len(failures) == len(pinned) > 0
    assert "median W" in failures[0]["problems"][0]


def test_wrong_planted_rank_counts_as_failed(tiny_runs):
    _, work, _, _ = tiny_runs["symbolic_stream"]
    path = work / "reports" / report_name("analyze:sys001")
    original = path.read_text()
    report = json.loads(original)
    report["frald"]["rank"] += 1
    path.write_text(json.dumps(report))
    try:
        failures = _rescore(tiny_runs, "symbolic_stream")
    finally:
        path.write_text(original)
    assert failures and {f["key"] for f in failures} == {"analyze:sys001"}


def test_non_identical_repeat_counts_as_failed(tiny_runs):
    records, work, expected, specs = tiny_runs["mc_pinned"]
    altered = [dict(r) for r in records]
    seen = set()
    for rec in altered:
        if rec["key"] in seen:
            rec["digest"] = "0" * 64
            break
        seen.add(rec["key"])
    else:
        pytest.fail("no operation ran twice")
    failures = run.score(altered, work / "reports", 5, expected, specs)[0]
    assert [f["problems"] for f in failures] == [
        ["report not byte-identical to the first pass"]]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "waldbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc_pinned", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_patches_imported_bindings():
    code = (
        "import waldrates\n"
        "from waldrates import verify, systems\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "verify.symmetric_polynomial_check(systems.product_pairs_system(), npoints=1)\n"
        "w = t.window((0, {}))\n"
        "print(w['calls'].get('simulate.symmetric_eigenvalues', 0),"
        " w['calls'].get('restriction.jacobian', 0),"
        " w['counts'].get('polycore.MultiPoly.mul', 0))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    eig, jac, mul = map(int, proc.stdout.split())
    assert eig == 1 and jac == 1 and mul > 0


def test_spec_generator_is_seeded():
    a, b, c = (specgen.generate(seed, 12) for seed in (1, 1, 2))
    assert [s.text for s in a] == [s.text for s in b]
    assert [s.text for s in a] != [s.text for s in c]
    assert [(s.p, s.q, s.kind) for s in a] == [(s.p, s.q, s.kind) for s in c]


def test_reference_seconds_cancel_host_speed():
    # the same 1 s call on a host at nominal speed and on one twice as slow
    worker = {
        "refs": [(0.0, 0.008), (1.2, 0.008), (2.0, 0.016), (3.0, 0.016), (4.5, 0.016)],
        "records": [{"start": 0.1, "end": 1.1, "seconds": 1.0},
                    {"start": 2.1, "end": 4.3, "seconds": 2.0},
                    {"start": 1.5, "end": None, "seconds": None}],
    }
    run.to_reference_seconds(worker)
    fast, slow, failed = worker["records"]
    assert fast["seconds"] == pytest.approx(1.0) and fast["raw_seconds"] == 1.0
    assert slow["seconds"] == pytest.approx(1.0) and slow["ref_s"] == pytest.approx(0.016)
    assert failed["seconds"] is None


def test_reference_seconds_weight_samples_by_time():
    # a 1.5 s call sampled evenly: two samples at nominal speed, two at half
    # speed, so the host ran at 0.75 of nominal speed on average
    worker = {
        "refs": [(0.0, 0.008), (0.5, 0.008), (1.0, 0.016), (1.5, 0.016)],
        "records": [{"start": 0.01, "end": 1.49, "seconds": 1.5}],
    }
    run.to_reference_seconds(worker)
    assert worker["records"][0]["seconds"] == pytest.approx(1.5 * 0.75)
