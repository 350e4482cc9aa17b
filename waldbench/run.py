#!/usr/bin/env python3
"""waldrates benchmark: run one workload, check its answers, print its metrics.

    python3 waldbench/run.py --workload mc_pinned --seed 1 --seconds 25 --trace 0

Run from anywhere; paths resolve from this file, whose parent directory must
hold ``src/waldrates`` and ``fixtures``.  The workload runs in a fresh
single-threaded worker process (worker.py); setup_s is the median of several
further fresh processes that only import waldrates and parse the specs.  Every
time is reported in reference seconds, scaled by a reference kernel timed
alongside (calibrate.py), so that the host's changes of speed cancel.  Every
report is checked by oracles.py, which shares no code with waldrates.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The lines before it print every
metric with its unit and sample count, the environment and the sha256 of every
report.  A full record goes to ``.waldbench/results`` and the spans of a
traced run to ``.waldbench/traces``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import specgen  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import report_name  # noqa: E402

WORKLOADS = ("mc_pinned", "symbolic_stream", "mc_variants")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# fresh setup processes before and after the workload process: the machine's
# speed drifts over tens of seconds, so the samples are spread over the run
SETUP_PROCESSES = 5
STREAM_SIZE = {"full": 100, "tiny": 6}
RUN_LIMIT_S = 170.0
STATE = ROOT / ".waldbench"

# span name -> reported statistics, as named in BENCHMARK.json's per_layer
SPAN_METRICS = {
    "simulate.symmetric_eigenvalues": ("calls", "s"),
    "simulate.CompiledSystem.g_at": ("calls", "s"),
    "simulate.CompiledSystem.jacobian_at": ("calls", "s"),
    "simulate.wald_statistic": ("calls", "s"),
    "simulate.draw_estimate": ("calls", "s"),
    "simulate.divergence_experiment": ("self_s",),
    "rates.charpoly_coeffs": ("calls", "s"),
    "rates.principal_minor_sum": ("calls", "s"),
    "rates.build_B": ("calls", "s"),
    "rates.t_graded_coeffs": ("calls", "s"),
    "rates.min_degree_generic": ("calls",),
    "restriction.recenter": ("calls",),
    "restriction.echelonize": ("calls", "s"),
    "restriction.poly_rank": ("calls", "s"),
    "restriction.frald_check": ("calls", "s"),
    "verify.symmetric_polynomial_check": ("calls", "s"),
    "verify.closed_form_check": ("calls", "s"),
    "verify.s_invariance_check": ("calls", "s"),
    "cli.parse_spec": ("calls", "s"),
    "polycore.parse_polynomial": ("calls", "s"),
}
COUNT_METRICS = ("polycore.MultiPoly.mul", "simulate.singular_draws",
                 "simulate.bound_violations")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- environment ----------------------------------------------------------------


def check_checkout() -> None:
    for path in (ROOT / "src" / "waldrates" / "__init__.py",
                 ROOT / "fixtures" / "product_pairs.spec"):
        if not path.is_file():
            raise BenchError(f"{path.relative_to(ROOT)} is missing: run from a "
                             "full waldrates checkout")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git, if present."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int, worker: dict) -> dict:
    return {
        "python": worker.get("python", platform.python_version()),
        "numpy": worker.get("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "thread_vars": {name: "1" for name in THREAD_VARS},
    }


# -- inputs ---------------------------------------------------------------------


def prepare(workload: str, seed: int, scale: str, work: Path):
    """Spec paths for the workload and the expected (rank, q, beta_bar) by stem.

    The paths are relative to the checkout, where the worker runs, because
    every report records its spec path: an absolute path would make the
    reports of two checkouts differ.
    """
    fixtures = ROOT / "fixtures"
    expected = dict(oracles.FIXTURES)
    if workload == "mc_pinned":
        specs = [fixtures / "product_pairs.spec"]
    elif workload == "mc_variants":
        specs = [fixtures / "product_pairs.spec", fixtures / "linear_q2.spec"]
    else:
        generated = specgen.generate(seed, STREAM_SIZE[scale])
        specs = [fixtures / "product_pairs.spec", fixtures / "product_pairs_cov98.spec"]
        specs += specgen.write_specs(generated, work / "specs")
        expected.update({Path(g.name).stem: (g.expected_rank, g.q, None)
                         for g in generated})
    return [os.path.relpath(p, ROOT) for p in specs], expected


# -- processes ------------------------------------------------------------------


def _worker_cmd(workload: str, seed: int, specs: list[str], *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--fixtures", "fixtures", *extra, *specs]


def measure_setup(workload: str, seed: int, specs: list[str]) -> list[dict]:
    """Import-and-parse times of SETUP_PROCESSES fresh processes, each with
    the reference kernel time measured right after it in the same process."""
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(_worker_cmd(workload, seed, specs, "--setup-only"),
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup process failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, scale: str,
               specs: list[str], work: Path, timeout: float) -> dict:
    extra = ["--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
             "--work", str(work)]
    if trace:
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        extra += ["--trace-out", str(traces / f"{workload}-seed{seed}.json.gz")]
    try:
        proc = subprocess.run(_worker_cmd(workload, seed, specs, *extra),
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((work / "worker.json").read_text())


# -- scoring --------------------------------------------------------------------


def check_report(check: str, key: str, report: dict, seed: int, expected: dict,
                 spec_paths: dict) -> list[str]:
    """Oracle verdict on the first-pass report of operation ``key``."""
    if check == "pinned":
        return oracles.pinned(report, seed)
    if check == "perturbed":
        return oracles.perturbed(report, seed)
    if check == "linear_q2":
        return oracles.linear_q2(report, seed)
    if check == "vanishing":
        return oracles.vanishing(report)
    if check == "verify":
        return oracles.verify(report)
    stem = key.split(":", 1)[1]
    rank, q, beta_bar = expected[stem]
    if check == "analyze":
        return oracles.frald(report, rank, q)
    if check == "rates":
        text = (ROOT / spec_paths[stem]).read_text(encoding="utf-8")
        return oracles.rates(report, text, rank, q, f"ray-{seed}-{stem}", beta_bar)
    raise ValueError(f"no oracle for {check!r}")


def score(records: list[dict], reports: Path, seed: int, expected: dict,
          specs: list[str]) -> tuple[list[dict], dict]:
    """Failed operations with their reasons, and the oracle verdict per key."""
    spec_paths = {Path(s).stem: s for s in specs}
    first_digest, verdicts = {}, {}
    for rec in records:
        key = rec["key"]
        if key in verdicts:
            continue
        path = reports / report_name(key)
        if not path.exists():
            continue
        first_digest[key] = rec["digest"]
        try:
            verdicts[key] = check_report(rec["check"], key, json.loads(path.read_text()),
                                         seed, expected, spec_paths)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            verdicts[key] = [f"malformed report: {exc!r}"]
    failures = []
    for rec in records:
        problems = []
        if rec["error"]:
            problems.append(rec["error"].strip().splitlines()[-1])
        elif rec["rc"] != 0:
            problems.append(f"exit code {rec['rc']}")
        elif rec["digest"] is None:
            problems.append("no report written")
        elif rec["digest"] != first_digest.get(rec["key"]):
            problems.append("report not byte-identical to the first pass")
        problems += verdicts.get(rec["key"], [])
        if problems:
            failures.append({"key": rec["key"], "pass": rec["pass"], "problems": problems})
    return failures, verdicts


# -- metrics --------------------------------------------------------------------


def reference_seconds(seconds: float, ref_s: float) -> float:
    return seconds * calibrate.REF_NOMINAL_S / ref_s


def to_reference_seconds(worker: dict) -> None:
    """Rescale every timed record to reference seconds, in place.

    An operation's kernel time is the harmonic mean of the samples taken
    during it and of the last sample before it and the first after it (the
    worker takes one before its first operation and one after its last).
    The harmonic mean makes the result the sum over the call of time spent
    times the host's speed, the inverse of the kernel time.  The measured
    time is kept as ``raw_seconds``.
    """
    times = [t for t, _ in worker["refs"]]
    for rec in worker["records"]:
        if not rec["seconds"]:
            continue
        first = bisect.bisect_right(times, rec["start"]) - 1
        last = bisect.bisect_left(times, rec["end"])
        near = [k for _, k in worker["refs"][first:last + 1]]
        rec["ref_s"] = len(near) / sum(1.0 / k for k in near)
        rec["raw_seconds"] = rec["seconds"]
        rec["seconds"] = reference_seconds(rec["seconds"], rec["ref_s"])


def pass_walls(records: list[dict], phase: str, key: str = "seconds") -> dict[int, float]:
    """Summed call time of each pass of ``phase``, by pass index."""
    walls: dict[int, float] = {}
    for r in records:
        if r["phase"] == phase:
            walls[r["pass"]] = walls.get(r["pass"], 0.0) + (r.get(key) or 0.0)
    return walls


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def latency_samples(records: list[dict], check: str) -> list[float]:
    """One sample per probe call, or per stream system (its median over passes)."""
    samples = [r["seconds"] for r in records
               if r["check"] == check and r["phase"] == "probe" and r["seconds"]]
    by_key: dict[str, list[float]] = {}
    for r in records:
        if r["check"] == check and r["phase"] == "pass" and r["seconds"]:
            by_key.setdefault(r["key"], []).append(r["seconds"])
    return samples + [statistics.median(v) for v in by_key.values()]


def draws_per_s(records: list[dict]) -> float:
    """Median over passes of draws finished per second of experiment time."""
    draws: dict[int, int] = {}
    seconds: dict[int, float] = {}
    for r in records:
        if r["phase"] == "pass" and r["draws"] and r["seconds"]:
            draws[r["pass"]] = draws.get(r["pass"], 0) + r["draws"]
            seconds[r["pass"]] = seconds.get(r["pass"], 0.0) + r["seconds"]
    return statistics.median(draws[i] / seconds[i] for i in draws)


def end_to_end(worker: dict, setup_times: list[dict]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    records = worker["records"]
    walls = list(pass_walls(records, "pass").values())
    values = {"setup_s": statistics.median(
                  reference_seconds(t["setup_s"], t["ref_s"]) for t in setup_times),
              "wall_s": statistics.median(walls),
              "draws_per_s": draws_per_s(records)}
    counts = {"setup_s": len(setup_times), "wall_s": len(walls),
              "draws_per_s": len(walls)}
    for check in ("analyze", "rates"):
        samples = latency_samples(records, check)
        values[f"{check}_p50_s"] = statistics.median(samples)
        values[f"{check}_p90_s"] = _p90(samples)
        counts[f"{check}_p50_s"] = counts[f"{check}_p90_s"] = len(samples)
    values["peak_rss_mb"] = worker["peak_rss_kb"] / 1024.0
    counts["peak_rss_mb"] = 1
    return values, counts


def per_layer(worker: dict) -> tuple[dict, dict]:
    """Per traced pass values (medians over traced passes), with every self
    time scaled to reference seconds by its pass's ratio of scaled to raw time."""
    traced = pass_walls(worker["records"], "traced")
    raw = pass_walls(worker["records"], "traced", "raw_seconds")
    scale = [traced[i] / raw[i] if raw[i] else 1.0 for i in sorted(traced)]
    windows = [dict(w, self_s={n: s * f for n, s in w["self_s"].items()})
               for w, f in zip(worker["layer"], scale)]

    def med(fn):
        return statistics.median(fn(w) for w in windows)

    def count(fn):  # identical in every pass; median of an even count is a float
        return int(med(fn))

    values = {}
    for name, stats in SPAN_METRICS.items():
        for stat in stats:
            if stat == "calls":
                values[f"{name}.calls"] = count(lambda w: w["calls"].get(name, 0))
            else:
                values[f"{name}.{stat}"] = med(lambda w: w["self_s"].get(name, 0.0))
    for name in COUNT_METRICS:
        metric = f"{name}.calls" if name.startswith("polycore.") else name
        values[metric] = count(lambda w: w["counts"].get(name, 0))
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = med(lambda w: sum(
            (s for n, s in w["self_s"].items() if n.split(".", 1)[0] == layer), 0.0))
    values["trace.wall_s"] = statistics.median(traced.values())
    values["trace.overhead_s"] = (values["trace.wall_s"] - statistics.median(
        pass_walls(worker["records"], "untraced").values()))
    return values, {name: len(windows) for name in values}


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


# -- main -----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: int, scale: str,
        work: Path) -> dict:
    """Everything but printing; returns the full result record."""
    started = time.perf_counter()
    check_checkout()
    specs, expected = prepare(workload, seed, scale, work)
    setup_times = measure_setup(workload, seed, specs)
    timeout = RUN_LIMIT_S - (time.perf_counter() - started) - 30.0
    worker = run_worker(workload, seed, seconds, trace, scale, specs, work, timeout)
    setup_times += measure_setup(workload, seed, specs)
    to_reference_seconds(worker)
    failures, verdicts = score(worker["records"], work / "reports", seed, expected, specs)
    if trace:
        metrics, counts = per_layer(worker)
    else:
        metrics, counts = end_to_end(worker, setup_times)
    digests = {}
    for rec in worker["records"]:
        digests.setdefault(rec["key"], rec["digest"])
    band = None
    if workload == "mc_pinned":
        band = oracles.band_3b(json.loads(
            (work / "reports" / report_name("simulate:pinned")).read_text()))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "env": environment(seed, worker),
        "metrics": metrics, "samples": counts,
        "attempted": len(worker["records"]), "failed": len(failures),
        "failures": failures, "oracle_keys": len(verdicts),
        "criterion_3b": band, "report_sha256": digests,
        "setup_samples": setup_times,
        "host": host_speed(worker, setup_times),
        "ref_samples": worker["refs"],
        "bindings_patched": worker.get("bindings_patched"),
        "records": [{k: v for k, v in rec.items() if k != "error"}
                    for rec in worker["records"]],
    }


def host_speed(worker: dict, setup_times: list[dict]) -> dict:
    """The raw figures behind the reference-second scaling."""
    refs = [s for _, s in worker["refs"]]
    out = {"ref_nominal_s": calibrate.REF_NOMINAL_S,
           "ref_median_s": statistics.median(refs), "ref_min_s": min(refs),
           "ref_max_s": max(refs), "ref_samples": len(refs),
           "raw_setup_s": statistics.median(t["setup_s"] for t in setup_times)}
    raw = pass_walls(worker["records"], "pass", "raw_seconds")
    if raw:
        out["raw_wall_s"] = statistics.median(raw.values())
    return out


def print_result(result: dict) -> None:
    print(f"waldbench workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']} scale={result['scale']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("host " + json.dumps(result["host"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"metric {name} = {value!r} {unit_of(name)} (n={result['samples'][name]})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted!r} "
          f"({result['oracle_keys']} distinct reports checked by oracles)")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure['key']} pass {failure['pass']}: "
              + "; ".join(failure["problems"]))
    if result["criterion_3b"]:
        print(f"criterion 3b (recorded, not scored): {result['criterion_3b']}")
    print("report_sha256 " + json.dumps(result["report_sha256"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(STREAM_SIZE), default="full",
                        help="'tiny' shrinks every workload for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the path is part of every generated spec's report, so it holds no pid
    work = STATE / f"work-{args.workload}-{args.seed}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result = run(args.workload, args.seed, args.seconds, args.trace, args.scale, work)
    except BenchError as exc:
        print(f"waldbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
