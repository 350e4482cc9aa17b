"""Command-line front end: restriction-spec files, pipelines, and reports.

Spec file format (line oriented, '#' starts a comment, order free):

    vars x y z w              # parameter names; order fixes the vector
    theta_bar 0 0 1 1         # exact scalar per variable
    g x*y                     # one restriction polynomial per line
    g x*w
    g y*z
    V identity                # or p lines 'V <e1> <e2> ... <ep>'
    d 2                       # optional radicand for sqrt() coefficients

Variable names match ``[A-Za-z_][A-Za-z_0-9]*`` and are not ``sqrt``, the
one name the grammar reads as a function.  Scalar entries are single tokens:
rationals (``-7/10``), decimals (``0.98``, parsed exactly), or surds
(``7/10*sqrt(2)``).  Polynomial lines use the full grammar and may contain
spaces; a restriction of total degree above MAX_G_DEGREE is rejected before
anything expands it.  ``d`` takes an integer that ``sqrt(d)`` would accept
(square-free, 0 to MAX_RADICAND) and appears at most once.

Subcommands: analyze, rates, simulate, verify.  Text goes to stdout;
``--json PATH`` writes a machine-readable report that round-trips exact
values (rationals as "num/den" strings, surds as {"a","b","d"} objects).
Exit codes: 0 success, 2 parse/validation failure, 3 mathematical
precondition violated (null point, non-PSD covariance), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .polycore import (
    FieldMismatchError,
    MultiPoly,
    PolyParseError,
    Scalar,
    _is_variable_name,
    parse_polynomial,
    parse_scalar,
)
from .rates import (
    Covariance,
    NonSpdError,
    RateReport,
    min_degree_generic,
    rate_report,
)
from .restriction import (
    RANK_POINTS,
    FraldVerdict,
    NullViolatedError,
    RankDeficientError,
    RestrictionSystem,
    frald_check,
)

if TYPE_CHECKING:
    from .simulate import SimResult

SLOPE_TOLERANCE = 0.15

#: Largest total degree of a 'g' line.  Recentring expands every monomial
#: around theta_bar, which grows without limit in the degree (x^4000 - 1 at
#: theta_bar 1 ran for over a minute).
MAX_G_DEGREE = 16

#: Most terms the Taylor shift of one 'g' line to theta_bar may give, counted
#: before anything expands as prod (e_i + 1) over the i with theta_i != 0 per
#: monomial x^e (a degree-16 monomial in 16 variables gives 2^16; rates ran 43 s).
MAX_SHIFT_TERMS = 4096

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


class SpecFileError(ValueError):
    """Spec-file validation failure with an optional 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class SpecFile:
    """Parsed restriction-spec data model."""

    var_names: tuple[str, ...]
    theta_bar: tuple[Scalar, ...]
    g: tuple[MultiPoly, ...]
    v_identity: bool
    v_rows: tuple[tuple[Scalar, ...], ...] | None
    d: int | None
    covariance: Covariance = field(compare=False, repr=False)  # V, certified PSD

    def to_restriction_system(self) -> RestrictionSystem:
        return RestrictionSystem(self.var_names, self.theta_bar, self.g)


_ENTRY = re.compile(r"\S+")


def _entries(rest: str, lineno: int, col: int, scalars: dict) -> tuple[Scalar, ...]:
    """The scalars of a theta_bar or V line; each distinct text is parsed once
    per spec and kept in ``scalars``."""
    out = []
    for tok in _ENTRY.finditer(rest):
        value = scalars.get(tok[0])
        if value is None:
            value = scalars[tok[0]] = parse_scalar(tok[0], lineno, col + tok.start())
        out.append(value)
    return tuple(out)


def parse_spec(path: str | Path) -> SpecFile:
    """Parse and validate a spec file; diagnostics carry line numbers."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    var_names: tuple[str, ...] | None = None
    vars_line = 0
    raw: list[tuple[int, str, str, int]] = []  # (line, key, value, value's column)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].rstrip()
        if not line:
            continue
        key, _, rest = line.lstrip().partition(" ")
        rest = rest.strip()
        if key == "vars":
            if var_names is not None:
                raise SpecFileError("duplicate 'vars' line", lineno)
            var_names = tuple(rest.split())
            vars_line = lineno
            if not var_names:
                raise SpecFileError("'vars' needs at least one name", lineno)
            for name in var_names:
                if not _is_variable_name(name):
                    raise SpecFileError(f"invalid variable name {name!r}: a name is "
                                        "[A-Za-z_][A-Za-z_0-9]* and not 'sqrt'", lineno)
            if len(set(var_names)) != len(var_names):
                raise SpecFileError("duplicate variable names", lineno)
        elif key in ("theta_bar", "g", "V", "d"):
            if not rest:
                raise SpecFileError(f"'{key}' line has no value", lineno)
            raw.append((lineno, key, rest, len(line) - len(rest) + 1))
        else:
            raise SpecFileError(f"unknown directive {key!r}", lineno)
    if var_names is None:
        raise SpecFileError("missing 'vars' line")
    p = len(var_names)

    scalars: dict[str, Scalar] = {}  # entry text -> value; V repeats its mirrored entries
    theta_bar: tuple[Scalar, ...] | None = None
    g_list: list[MultiPoly] = []
    g_lines: list[int] = []
    v_rows: list[tuple[Scalar, ...]] = []
    v_identity = False
    d_value: int | None = None
    for lineno, key, rest, col in raw:
        try:
            if key == "theta_bar":
                if theta_bar is not None:
                    raise SpecFileError("duplicate 'theta_bar' line", lineno)
                entries = _entries(rest, lineno, col, scalars)
                if len(entries) != p:
                    raise SpecFileError(
                        f"theta_bar has {len(entries)} entries for {p} variables", lineno
                    )
                theta_bar = entries
            elif key == "g":
                poly = parse_polynomial(rest, var_names, lineno, col)
                if poly.total_degree() > MAX_G_DEGREE:
                    raise SpecFileError(
                        f"restriction of total degree {poly.total_degree()} exceeds "
                        f"the limit of {MAX_G_DEGREE}", lineno
                    )
                g_list.append(poly)
                g_lines.append(lineno)
            elif key == "V":
                if rest == "identity":
                    v_identity = True
                else:
                    row = _entries(rest, lineno, col, scalars)
                    if len(row) != p:
                        raise SpecFileError(
                            f"V row has {len(row)} entries for {p} variables", lineno
                        )
                    v_rows.append(row)
            elif key == "d":
                if d_value is not None:
                    raise SpecFileError("duplicate 'd' line", lineno)
                try:
                    d_value = int(rest)
                except ValueError:
                    raise SpecFileError(
                        f"'d' must be an integer, got {rest!r}", lineno
                    ) from None
                try:
                    Scalar(0, 1, d_value)  # the radicands, and messages, of sqrt(d)
                except ValueError as exc:
                    raise SpecFileError(str(exc), lineno) from None
        except PolyParseError as exc:  # its column counts from the start of the line
            raise SpecFileError(f"column {exc.col}: {exc.message}", lineno) from exc
        except FieldMismatchError as exc:
            raise SpecFileError(str(exc), lineno) from exc
    if theta_bar is None:
        raise SpecFileError("missing 'theta_bar' line", vars_line)
    if not g_list:
        raise SpecFileError("no 'g' restriction lines", vars_line)
    if len(g_list) > p:
        raise SpecFileError(f"more restrictions ({len(g_list)}) than parameters ({p})")
    moving = [i for i, t in enumerate(theta_bar) if not t.is_zero()]
    for lineno, poly in zip(g_lines, g_list):
        terms = sum(math.prod(mono[i] + 1 for i in moving) for mono in poly.terms)
        if terms > MAX_SHIFT_TERMS:
            raise SpecFileError(
                f"recentring the restriction at theta_bar gives up to {terms} terms, "
                f"over the limit of {MAX_SHIFT_TERMS}", lineno
            )
    if v_identity and v_rows:
        raise SpecFileError("'V identity' cannot be mixed with V rows")
    if not v_identity:
        if not v_rows:
            raise SpecFileError("missing covariance: 'V identity' or V rows")
        if len(v_rows) != p:
            raise SpecFileError(f"V has {len(v_rows)} rows for {p} variables")

    radicands = {v.d for v in scalars.values() if v.d}  # theta_bar's and V's
    radicands.update(d for d in map(MultiPoly.field_d, g_list) if d)
    if len(radicands) > 1:
        raise SpecFileError(f"mixed surd radicands {sorted(radicands)}")
    if d_value is not None and radicands and radicands != {d_value}:
        raise SpecFileError(
            f"declared d = {d_value} but entries use sqrt({radicands.pop()})"
        )

    return SpecFile(
        var_names=var_names,
        theta_bar=theta_bar,
        g=tuple(g_list),
        v_identity=v_identity,
        v_rows=tuple(v_rows) if v_rows else None,
        d=d_value,
        # raises NonSpdError for an unusable covariance
        covariance=Covariance.identity(p) if v_identity else Covariance(v_rows),
    )


# -- JSON serialisation -------------------------------------------------------


def scalar_to_json(value: Scalar):
    if value.is_rational():
        return str(value.a)
    return {"a": str(value.a), "b": str(value.b), "d": value.d}


def _degree_json(m):
    return "inf" if m == math.inf else int(m)


def _spec_json(spec: SpecFile) -> dict:
    return {
        "vars": list(spec.var_names),
        "theta_bar": [scalar_to_json(t) for t in spec.theta_bar],
        "g": [poly.to_text(spec.var_names) for poly in spec.g],
        "V": "identity" if spec.v_identity else [
            [scalar_to_json(v) for v in row] for row in spec.v_rows
        ],
        "d": spec.d,
    }


def _frald_json(report: FraldVerdict | RateReport, q: int, var_names) -> dict:
    ech = report.echelon
    return {
        "rank": report.rank_r,
        "q": q,
        "frald_t_holds": report.rank_r == q,
        "blocks": [{"rows": n, "degree": s} for n, s in ech.blocks],
        "row_degrees": list(ech.row_degrees),
        "S": [[scalar_to_json(v) for v in row] for row in ech.S],
        "low_matrix": [
            [ech.low_matrix.entry(i, j).to_text(var_names)
             for j in range(ech.low_matrix.cols)]
            for i in range(ech.low_matrix.rows)
        ],
    }


def _rates_json(report: RateReport, generic_m=None, samples=None) -> dict:
    out = {
        "m_at_v": [_degree_json(m) for m in report.char_m],
        "gamma": [str(gk) for gk in report.gamma],
        "beta": [str(bk) for bk in report.beta],
        "beta_bar": str(report.beta_bar),
        "divergence_predicted": report.divergence_predicted,
        "indeterminate": list(report.indeterminate),
    }
    if generic_m is not None:
        out["m_generic"] = [_degree_json(m) for m in generic_m]
        out["samples"] = samples
    return out


def _sim_json(res: SimResult, prediction: Fraction, matches: bool,
              vhat: str, reps: int) -> dict:
    return {
        "grid": list(res.t_grid),
        "reps": reps,
        "vhat": vhat,
        "median_w": [float(m) for m in res.median_wald],
        "median_w_over_t": [float(m) / t for m, t in zip(res.median_wald, res.t_grid)],
        "slope": res.median_log_slope,
        "slope_stderr": res.slope_stderr,
        "predicted_beta_bar": str(prediction),
        "prediction_matches": matches,
        "slope_tolerance": SLOPE_TOLERANCE,
        "mu_median": list(res.mu_samples),
        "eig_medians": [[float(v) for v in row] for row in res.eig_trajectories],
        "singular_fraction": res.singular_fraction,
        "bound_violations": res.bound_violations,
    }


def _write_report(report: dict, json_path: str) -> None:
    import json  # only a --json run needs it

    Path(json_path).write_text(
        json.dumps(report, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )


def _base_report(command: str, spec_path: str, spec: SpecFile, seed: int) -> dict:
    return {
        "tool": {"name": "waldrates", "version": __version__},
        "command": command,
        "spec_path": str(spec_path),
        "seed": seed,
        "spec": _spec_json(spec),
    }


# -- subcommands ---------------------------------------------------------------


def _blocks_text(blocks) -> str:
    return "".join(f"({n} rows deg {s})" if n > 1 else f"({n} row deg {s})"
                   for n, s in blocks)


def cmd_analyze(args) -> int:
    spec = parse_spec(args.spec)
    system = spec.to_restriction_system()
    verdict = frald_check(system, rng=random.Random(args.seed))
    ech = verdict.echelon
    q = system.q
    print(f"system: {q} restrictions in {system.p} parameters "
          f"(seed {args.seed}, rank trials {RANK_POINTS})")
    print("echelon transformation S (rows):")
    for row in ech.S:
        print("  [" + ", ".join(v.to_text() for v in row) + "]")
    names = spec.var_names
    print("lowest-degree rows of S*G (deviation coordinates):")
    for i in range(q):
        entries = ", ".join(ech.low_matrix.entry(i, j).to_text(names)
                            for j in range(ech.low_matrix.cols))
        print(f"  deg {ech.row_degrees[i]}: [{entries}]")
    word = "HOLDS" if verdict.frald_t_holds else "FAILS"
    print(f"rank of the lowest-degree matrix: r = {verdict.rank_r} (q = {q})")
    print(f"FRALD-T: {word}, r = {verdict.rank_r}, blocks {_blocks_text(ech.blocks)}")
    if args.json:
        out = _base_report("analyze", args.spec, spec, args.seed)
        out["frald"] = _frald_json(verdict, q, spec.var_names)
        _write_report(out, args.json)
    return EXIT_OK


def cmd_rates(args) -> int:
    spec = parse_spec(args.spec)
    system = spec.to_restriction_system()
    U = spec.covariance
    report = rate_report(system, U, rng=random.Random(args.seed))
    q = system.q
    m_text = ", ".join(f"m_{k + 1} = {_degree_json(m)}" for k, m in enumerate(report.char_m))
    print(f"minimal degrees at V: {m_text}")
    generic_m = None
    if args.samples:
        generic_m = min_degree_generic(report.jacobian, samples=args.samples,
                                       rng_seed=args.seed + 17)
        print("generic minimal degrees over random SPD covariances "
              f"({args.samples} samples): "
              + ", ".join(f"m_{k + 1} = {_degree_json(m)}" for k, m in enumerate(generic_m)))
    print("gamma: " + ", ".join(str(gk) for gk in report.gamma))
    print("beta:  " + ", ".join(str(bk) for bk in report.beta))
    if report.indeterminate:
        print("note: coefficients "
              + ", ".join(f"a_{k}" for k in report.indeterminate)
              + " vanish identically; their exponents inherit the previous "
                "value (conservative bound)")
    print(f"predicted divergence exponent β̄ = {report.beta_bar}")
    if not report.divergence_predicted:
        rank = ("full rank" if report.rank_r == q
                else f"r = {report.rank_r} of q = {q}")
        print(f"no divergence predicted ({rank} at lowest degrees)")
    if args.json:
        out = _base_report("rates", args.spec, spec, args.seed)
        out["frald"] = _frald_json(report, q, spec.var_names)
        out["rates"] = _rates_json(report, generic_m, args.samples or None)
        _write_report(out, args.json)
    return EXIT_OK


def _parse_vhat(text: str) -> tuple[str, float]:
    if text == "exact":
        return "exact", 0.0
    mode, _, scale = text.partition(":")
    if mode == "perturbed":
        try:
            return "perturbed", float(scale)
        except ValueError:
            pass
    raise SpecFileError(f"invalid --vhat value {text!r}")


def cmd_simulate(args) -> int:
    import numpy as np

    from .simulate import EstimatorModel, _validate_grid, chi_square_median, divergence_experiment

    spec = parse_spec(args.spec)
    system = spec.to_restriction_system()
    U = spec.covariance
    try:
        grid = [int(t) for t in args.grid.split(",")]
    except ValueError:
        raise SpecFileError(f"invalid --grid value {args.grid!r}") from None
    _validate_grid(grid, args.reps)
    vhat_mode, vhat_scale = _parse_vhat(args.vhat)
    theta_bar = np.array([float(t) for t in spec.theta_bar])
    model = EstimatorModel(theta_bar, U.to_float(), vhat_mode, vhat_scale)
    report = rate_report(system, U, rng=random.Random(args.seed))
    res = divergence_experiment(system, model, grid, args.reps, args.seed, report=report)
    print(f"grid {grid}, reps {args.reps}, seed {args.seed}, vhat {args.vhat}")
    for T, med in zip(res.t_grid, res.median_wald):
        print(f"  T = {T:>8d}: median W = {med:.6g}   W/T = {med / T:.6g}")
    print(f"fitted log-log slope: {res.median_log_slope:.4f} "
          f"(stderr {res.slope_stderr:.4f})")
    matches = abs(res.median_log_slope - float(report.beta_bar)) <= SLOPE_TOLERANCE
    word = "MATCHES" if matches else "DOES NOT MATCH"
    print(f"{word} prediction β̄ = {report.beta_bar} "
          f"(tolerance ±{SLOPE_TOLERANCE})")
    row_degrees = report.echelon.row_degrees
    if not report.divergence_predicted and any(row_degrees):
        # W's limit is then a nonstandard law of the rows' lowest parts
        print(f"chi-square sanity: not applicable, the chi2({system.q}) reference "
              f"does not apply because an echelon degree s_i > 0 (s = {list(row_degrees)})")
    elif not report.divergence_predicted:
        med = chi_square_median(system.q)
        pooled = float(np.median(np.concatenate(
            [w[np.isfinite(w)] for w in res.wald_samples])))
        print(f"chi-square sanity: pooled median W = {pooled:.4f}, "
              f"chi2({system.q}) median = {med:.4f} "
              f"(relative deviation {abs(pooled - med) / med:.2%})")
    if res.singular_fraction:
        print(f"singular inner-matrix draws: {res.singular_fraction:.2%}")
    if res.bound_violations:
        print(f"WARNING: lower-bound violations on {res.bound_violations} draws")
    if args.json:
        out = _base_report("simulate", args.spec, spec, args.seed)
        out["frald"] = _frald_json(report, system.q, spec.var_names)
        out["rates"] = _rates_json(report)
        out["sim"] = _sim_json(res, report.beta_bar, matches, args.vhat, args.reps)
        _write_report(out, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all

    spec = parse_spec(args.spec)
    system = spec.to_restriction_system()
    results = run_all(system, seed=args.seed)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        all_passed = all_passed and res.passed
    if args.json:
        out = _base_report("verify", args.spec, spec, args.seed)
        out["checks"] = [
            {"name": r.name, "passed": r.passed, "skipped": r.skipped, "detail": r.detail}
            for r in results
        ]
        out["all_passed"] = all_passed
        _write_report(out, args.json)
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def _non_negative_int(text: str) -> int:
    """argparse type of --seed and --samples, checked before any work."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waldrates",
        description="FRALD analysis and Wald-divergence rates for polynomial restrictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="restriction spec file")
        p.add_argument("--seed", type=_non_negative_int, default=42,
                       help="seed for all randomness (default 42)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write a JSON report to PATH")

    p_analyze = sub.add_parser("analyze", help="echelon form and FRALD-T verdict")
    common(p_analyze)

    p_rates = sub.add_parser("rates", help="degree invariants and divergence exponents")
    common(p_rates)
    p_rates.add_argument("--samples", type=_non_negative_int, default=0,
                         help="also estimate generic minimal degrees from N random covariances")

    p_sim = sub.add_parser("simulate", help="Monte Carlo divergence experiment")
    common(p_sim)
    p_sim.add_argument("--grid", default="100,1000,10000,100000",
                       help="comma-separated strictly increasing T values, each >= 1")
    p_sim.add_argument("--reps", type=int, default=2000,
                       help="replications per grid point (>= 200)")
    p_sim.add_argument("--vhat", default="exact",
                       help="'exact' or 'perturbed:SCALE' covariance estimate")

    p_verify = sub.add_parser("verify", help="cross-module consistency checks")
    common(p_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``main`` dispatches on the subcommand
    name at call time, so a rebound ``cmd_<name>`` still runs."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (NullViolatedError, NonSpdError, RankDeficientError) as exc:
        # NonSpdError covers simulate's CholeskyFailureError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
