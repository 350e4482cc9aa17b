"""One workload process: import waldrates, run the workload's operations, and
write a JSON record of every operation for run.py to score.

Run only through run.py, which sets the thread variables, ``PYTHONPATH`` and
the arguments.  Every operation is a call into a public waldrates function;
only that call is timed.  All passes repeat the same operations with the same
seeds, so each report must be byte-identical to its first-pass copy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import calibrate

GRID = "100,1000,10000,100000"
VANISHING_GRID = (1000, 10000, 100000)
GENERIC_SAMPLES = 2

# reps per scale: (pinned, perturbed, linear_q2, vanishing); symbolic probe calls
REPS = {"full": (2000, 1000, 500, 500), "tiny": (200, 200, 200, 100)}
PROBE_CALLS = {"full": 250, "tiny": 2}


def setup(spec_paths: list[str]):
    """Import waldrates and parse every spec: the work timed as setup_s."""
    start = time.perf_counter()
    import waldrates  # noqa: F401
    from waldrates import cli

    for path in spec_paths:
        cli.parse_spec(path)
    return time.perf_counter() - start


def _cli_op(key: str, check: str, argv: list[str], draws: int = 0) -> dict:
    return {"key": key, "check": check, "argv": argv, "draws": draws}


def _symbolic_ops(spec: str, seed: int, samples: int = GENERIC_SAMPLES) -> list[dict]:
    tag = Path(spec).stem
    common = ["--seed", str(seed)]
    rates = ["rates", spec, *common]
    if samples:
        rates[2:2] = ["--samples", str(samples)]
    return [
        _cli_op(f"analyze:{tag}", "analyze", ["analyze", spec, *common]),
        _cli_op(f"rates:{tag}", "rates", rates, draws=samples),
    ]


def pass_ops(workload: str, seed: int, scale: str, fixtures: Path,
             specs: list[str]) -> list[dict]:
    """The operations of one pass of ``workload``."""
    pinned, perturbed, linear, vanishing = REPS[scale]
    pairs = str(fixtures / "product_pairs.spec")
    common = ["--seed", str(seed)]
    if workload == "mc_pinned":
        return [_cli_op("simulate:pinned", "pinned",
                        ["simulate", pairs, "--grid", GRID, "--reps", str(pinned),
                         "--vhat", "exact", *common], draws=4 * pinned)]
    if workload == "mc_variants":
        return [
            _cli_op("simulate:perturbed", "perturbed",
                    ["simulate", pairs, "--grid", GRID, "--reps", str(perturbed),
                     "--vhat", "perturbed:0.5", *common], draws=4 * perturbed),
            _cli_op("simulate:linear_q2", "linear_q2",
                    ["simulate", str(fixtures / "linear_q2.spec"), "--grid", GRID,
                     "--reps", str(linear), *common], draws=4 * linear),
            {"key": "vanishing", "check": "vanishing", "call": "vanishing",
             "reps": vanishing, "seed": seed, "draws": len(VANISHING_GRID) * vanishing},
            _cli_op("verify:product_pairs", "verify", ["verify", pairs, *common]),
        ]
    if workload == "symbolic_stream":
        return [op for spec in specs for op in _symbolic_ops(spec, seed)]
    raise ValueError(f"unknown workload {workload!r}")


def probe_ops(workload: str, seed: int, scale: str, specs: list[str]) -> list[dict]:
    """analyze / rates calls on an MC workload's first spec, product_pairs.

    One spec only: mixing a cheap and an expensive spec would put the median
    between two clusters, where it jumps with every outlier.  ``rates`` runs
    without --samples: the generic-degree sampling costs ten times more, and
    symbolic_stream measures it.
    """
    if workload == "symbolic_stream":
        return []
    return PROBE_CALLS[scale] * _symbolic_ops(specs[0], seed, samples=0)


def _vanishing_json(res) -> bytes:
    """Canonical report of a VanishingResult, hashed like a --json report."""
    record = {
        "t_grid": list(res.t_grid),
        "raw_medians": [[float(v) for v in row] for row in res.raw_medians],
        "beta": [str(b) for b in res.beta],
        "m_generic": [str(m) for m in res.m_generic],
        "m_at_u": [str(m) for m in res.m_at_u],
        "k_star": res.k_star,
    }
    return (json.dumps(record, indent=2) + "\n").encode()


def report_name(key: str) -> str:
    """File name of the first-pass report of operation ``key``."""
    return key.replace(":", "__") + ".json"


class Runner:
    """Runs operations, times the waldrates call, and keeps one record each.

    Reference samples (calibrate.py) are taken between operations and, with
    ``in_op``, also during a long call: a one-shot SIGALRM timer interrupts
    the call every CAL_INTERVAL_S, the handler times the kernel, and that
    time is taken out of the call's measured time.
    """

    def __init__(self, work: Path, in_op: bool):
        self.reports = work / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)
        self.last_report = work / "last.json"
        self.tracer = None
        self.first_digest: dict[str, str] = {}
        self.records: list[dict] = []
        # (time since clock0, kernel seconds) of every reference sample
        self.clock0 = time.perf_counter()
        self.refs: list[tuple[float, float]] = []
        self.sampling_s = 0.0  # time spent in samples so far
        self.in_op = in_op
        self._in_call = False
        if in_op:
            signal.signal(signal.SIGALRM, self._sample_in_op)

    def calibrate(self) -> None:
        began = time.perf_counter()
        self.refs.append((began - self.clock0, calibrate.sample()))
        self.sampling_s += time.perf_counter() - began

    def _sample_in_op(self, signum, frame) -> None:
        if self._in_call:  # else the call ended while the signal was pending
            self.calibrate()
            signal.setitimer(signal.ITIMER_REAL, calibrate.CAL_INTERVAL_S)

    def _timed(self, rec: dict, call):
        """Run ``call``, recording its start, end and sample-free seconds."""
        sampled = self.sampling_s
        if self.in_op:
            self._in_call = True
            signal.setitimer(signal.ITIMER_REAL, calibrate.CAL_INTERVAL_S)
        start = time.perf_counter()
        try:
            return call()
        finally:
            # disarm before reading the clock, so that a sample taken after
            # the call cannot be subtracted from it
            self._in_call = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            rec["start"], rec["end"] = start - self.clock0, end - self.clock0
            rec["seconds"] = end - start - (self.sampling_s - sampled)

    def run(self, op: dict, phase: str, pass_index: int) -> dict:
        import waldrates
        from waldrates import cli

        if not self.refs or (time.perf_counter() - self.clock0
                             - self.refs[-1][0] >= calibrate.CAL_INTERVAL_S):
            self.calibrate()
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        rec = {"key": op["key"], "check": op["check"], "phase": phase,
               "pass": pass_index, "draws": op["draws"], "rc": None,
               "seconds": None, "start": None, "end": None, "digest": None,
               "error": None}
        data = None
        try:
            if "argv" in op:
                if self.last_report.exists():
                    self.last_report.unlink()
                argv = op["argv"] + ["--json", str(self.last_report)]
                with contextlib.redirect_stdout(io.StringIO()):
                    rec["rc"] = self._timed(rec, lambda: cli.main(argv))
                data = self.last_report.read_bytes() if self.last_report.exists() else None
            else:
                system = waldrates.product_pairs_system()
                cov = waldrates.surd_covariance()
                res = self._timed(rec, lambda: waldrates.vanishing_rate_experiment(
                    system, cov, "exact", list(VANISHING_GRID), op["reps"], op["seed"]))
                rec["rc"] = 0
                data = _vanishing_json(res)
        except Exception:  # a failed operation is scored, not fatal
            rec["error"] = traceback.format_exc(limit=3)
            rec["seconds"] = None
        if data is not None:
            digest = hashlib.sha256(data).hexdigest()
            rec["digest"] = digest
            if op["key"] not in self.first_digest:
                self.first_digest[op["key"]] = digest
                (self.reports / report_name(op["key"])).write_bytes(data)
        self.records.append(rec)
        return rec


def _run_pass(runner: Runner, ops: list[dict], phase: str, index: int) -> float:
    """One pass over ``ops``; returns its elapsed time, calibration included."""
    began = time.perf_counter()
    for op in ops:
        runner.run(op, phase, index)
    return time.perf_counter() - began


def _another_pass(walls: list[float], deadline: float) -> bool:
    """Always one pass; then another only if one more pass ends by ``deadline``."""
    return not walls or time.perf_counter() + walls[-1] <= deadline


def _report_counts(runner: Runner, pass_index: int) -> dict:
    """Singular draws and bound violations of one pass's simulate reports."""
    singular = violations = 0
    for rec in runner.records:
        if rec["pass"] != pass_index or not rec["key"].startswith("simulate:"):
            continue
        path = runner.reports / report_name(rec["key"])
        if not path.exists():
            continue
        sim = json.loads(path.read_text())["sim"]
        draws = len(sim["grid"]) * sim["reps"]
        singular += round(sim["singular_fraction"] * draws)
        violations += sim["bound_violations"]
    return {"simulate.singular_draws": singular, "simulate.bound_violations": violations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", default="full", choices=sorted(REPS))
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--work")
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("specs", nargs="*")
    args = parser.parse_args(argv)

    setup_s = setup(args.specs)
    if args.setup_only:
        # the median of three runs, as the first run in a fresh process is cold
        print(json.dumps({"setup_s": setup_s, "ref_s": calibrate.sample(runs=3)}))
        return 0

    import numpy

    work = Path(args.work)
    ops = pass_ops(args.workload, args.seed, args.scale, Path(args.fixtures), args.specs)
    result = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    # a traced run samples between operations only, so that no sample
    # lands inside a span
    runner = Runner(work, in_op=not args.trace)
    start = time.perf_counter()
    if args.trace:
        # the first half of the run is untraced, as the reference for the
        # tracing overhead; the second half is traced pass by pass
        from tracer import Tracer

        untraced, traced, layer = [], [], []
        while _another_pass(untraced, start + args.seconds / 2):
            untraced.append(_run_pass(runner, ops, "untraced", len(untraced)))
        tracer = Tracer()
        result["bindings_patched"] = tracer.install()
        runner.tracer = tracer
        while _another_pass(traced, start + args.seconds):
            index = len(untraced) + len(traced)
            mark = tracer.mark()
            traced.append(_run_pass(runner, ops, "traced", index))
            window = tracer.window(mark)
            window["counts"].update(_report_counts(runner, index))
            layer.append(window)
        result["layer"] = layer
        if args.trace_out:
            tracer.dump(args.trace_out)
    else:
        probe = probe_ops(args.workload, args.seed, args.scale, args.specs)
        walls = []
        deadline = start + args.seconds
        while _another_pass(walls, deadline):
            began = time.perf_counter()
            elapsed = _run_pass(runner, ops, "pass", len(walls))
            # the probe calls are spread evenly over the passes that still
            # fit, so that they sample the machine over the whole run
            left = 1 + max(0.0, deadline - time.perf_counter()) // elapsed
            chunk = -(-len(probe) // int(left))
            for op in probe[:chunk]:
                runner.run(op, "probe", 0)
            del probe[:chunk]
            walls.append(time.perf_counter() - began)
        for op in probe:
            runner.run(op, "probe", 0)
    runner.calibrate()
    result["records"] = runner.records
    result["refs"] = runner.refs
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (work / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
