"""Command-line front end.

Subcommands: fringes (Monte Carlo fringe scans per post-selection angle),
sweep-mu (interrogation probability versus transmittance with noise columns),
estimate (invert a visibility for the object transmittance), and compare
(scheme efficiency table). Outputs are deterministic under a fixed seed and
config: CSV files carry a schema tag comment, JSON reports sort their keys.

Exit codes: 0 success, 2 infeasible estimate, 3 validation or parse error,
4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from ._validate import finite
from .analysis import (
    estimate_mu,
    estimate_mu_two_arm,
    fit_fringe,
    visibility_one_arm,
    visibility_two_arm,
)
from .bench import BenchConfig, NO_ABSORBER, OneArmAbsorber, TwoArmAbsorber, i_prob
from .calibration import load_calibration, mu_at
from .exceptions import DomainError, InfeasibleError, QInterroError, UndefinedVisibilityError
from .noise import i_prob_jitter, i_prob_reflectivity
from .schemes import compare_schemes
from .sources import (
    CoherentSource,
    FringeScan,
    HeraldedSource,
    simulate_fringe_scan,
    simulate_interrogation_prob,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

DEFAULT_THETAS = "0,pi/8,pi/4,3pi/8,pi/2"
DEFAULT_PHASE_GRID = "0:2pi:25"

_NEGATIVE_VALUE_RE = re.compile(r"-(?:[\d.]|pi)")
_ANGLE_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$"
)

# Column order of each report schema. The writers emit these headers and
# _read_scan_csv recognises scan files and the summary section by them.
_FRINGES_COLUMNS = ("theta_rad", "phase_rad", "counts", "expected_prob")
_SUMMARY_COLUMNS = (
    "theta_rad", "visibility", "std_error", "d_max", "d_min", "fit_offset",
    "fit_amplitude", "fit_phase_rad", "used_fallback",
)
_SWEEP_MU_COLUMNS = (
    "mu", "i_prob_ideal", "i_prob_measured_mc", "i_prob_reflectivity", "i_prob_jitter",
)
_COMPARE_COLUMNS = ("scheme", "parameter", "eta")
# A bare scan file is phase_rad,counts[,...]; a fringes file puts theta_rad first.
_BARE_HEADER = _FRINGES_COLUMNS[1:3]
_THETA_HEADER = _FRINGES_COLUMNS[:3]


class CliError(DomainError):
    """Bad command-line input."""


def parse_angle(text: str) -> float:
    """Parse a plain float or a pi expression like 'pi/8', '3pi/8', '0.5*pi'.

    The angle must come out finite: nan, inf and pi/0 are rejected.
    """
    text = text.strip()
    try:
        angle = float(text)
    except ValueError:
        m = _ANGLE_RE.match(text)
        if not m:
            raise CliError(f"could not parse angle {text!r}") from None
        coef = m.group(1)
        sign = -1.0 if coef == "-" else 1.0
        value = 1.0 if coef in ("", "+", "-") else float(coef)
        angle = sign * abs(value) * math.pi if coef == "-" else value * math.pi
        if m.group(2):
            if float(m.group(2)) == 0.0:
                raise CliError(f"angle {text!r} divides by zero") from None
            angle /= float(m.group(2))
    return finite("angle", angle)


def parse_angle_list(text: str) -> list[float]:
    items = [tok for tok in text.split(",") if tok.strip()]
    if not items:
        raise CliError(f"empty angle list {text!r}")
    return [parse_angle(tok) for tok in items]


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' with pi expressions into an inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"grid spec must be start:stop:count, got {text!r}")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise CliError(f"grid count must be an integer, got {parts[2]!r}") from None
    if count < 2:
        raise CliError(f"grid needs at least 2 points, got {count}")
    return np.linspace(start, stop, count)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _config_comment(pairs: dict) -> str:
    body = " ".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return f"# config: {body}"


def _csv_section(schema: str, columns: Sequence[str], rows, *comments: str) -> str:
    """One CSV section: schema tag, comment lines, header, then the rows."""
    lines = [f"# schema={schema}", *comments, ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_report(schema: str, columns: Sequence[str], rows, **fields) -> str:
    """A JSON report: schema tag, extra top-level fields, rows as objects."""
    records = [dict(zip(columns, row)) for row in rows]
    payload = {"schema": schema, "rows": records, **fields}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _source_from_args(args) -> HeraldedSource | CoherentSource:
    if args.source == "heralded":
        return HeraldedSource(pairs_per_window=args.pairs, background_rate=args.background)
    return CoherentSource(nbar=args.nbar, background_rate=args.background)


def _absorber_from_args(args):
    mu2 = getattr(args, "mu2", None)
    mu = getattr(args, "mu", None)
    if mu2 is not None:
        mu1 = getattr(args, "mu1", None)
        if mu1 is None:
            raise CliError("--mu2 requires --mu1")
        return TwoArmAbsorber(mu1=mu1, mu2=mu2, delta=parse_angle(args.delta))
    if mu is not None:
        return OneArmAbsorber(mu=mu, delta=parse_angle(args.delta))
    return NO_ABSORBER


def cmd_fringes(args) -> int:
    source = _source_from_args(args)
    absorber = _absorber_from_args(args)
    thetas = parse_angle_list(args.thetas)
    grid = parse_grid(args.phase_grid)

    meta = {
        "source": args.source,
        "rate": source.mean_rate,
        "epsilon": args.epsilon,
        "background": args.background,
        "windows": args.windows,
        "seed": args.seed,
        "gamma": args.gamma,
        "phase_grid": args.phase_grid,
        "thetas": args.thetas,
    }
    points = []
    summaries = []
    for k, theta in enumerate(thetas):
        cfg = BenchConfig(
            epsilon=args.epsilon,
            theta_post=theta,
            contrast_envelope=args.gamma,
        )
        scan = simulate_fringe_scan(
            source,
            cfg,
            absorber,
            phase_grid=grid,
            windows_per_point=args.windows,
            seed=(args.seed, k),
        )
        points.extend(
            (theta, phase, int(counts), prob)
            for phase, counts, prob in zip(
                scan.phases.tolist(), scan.counts.tolist(), scan.expected_probs.tolist()
            )
        )
        try:
            res = fit_fringe(scan)
        except UndefinedVisibilityError as exc:
            # e.g. theta = 0 behind an opaque object: nothing survives to post-select
            summaries.append((theta,) + (None,) * (len(_SUMMARY_COLUMNS) - 1))
            print(f"warning: theta={theta:.6g}: no fit, {exc}", file=sys.stderr)
            continue
        summaries.append((
            theta, res.visibility, res.std_error, res.d_max, res.d_min,
            res.fit_offset, res.fit_amplitude, res.fit_phase, res.used_fallback,
        ))
        print(
            f"theta={theta:.6g}: V={res.visibility:.6g} +- {res.std_error:.2g}"
            + (" (fallback)" if res.used_fallback else "")
        )

    _write_text(
        args.output,
        _csv_section("qinterro.fringes/1", _FRINGES_COLUMNS, points, _config_comment(meta))
        + _csv_section("qinterro.fringes.summary/1", _SUMMARY_COLUMNS, summaries),
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def _mu_grid_from_args(args) -> np.ndarray:
    if args.calibration is not None:
        if args.positions is None:
            raise CliError("--calibration requires --positions start:stop:count")
        table = load_calibration(args.calibration)
        positions = parse_grid(args.positions)
        return np.array([mu_at(table, p) for p in positions])
    if args.mu_grid is None:
        raise CliError("provide --mu-grid or --calibration with --positions")
    grid = parse_grid(args.mu_grid)
    if (grid < 0).any() or (grid > 1).any():
        raise CliError("mu grid values must lie in [0, 1]")
    return grid


def cmd_sweep_mu(args) -> int:
    source = _source_from_args(args)
    mu_grid = _mu_grid_from_args(args)

    meta = {
        "source": args.source,
        "rate": source.mean_rate,
        "epsilon": args.epsilon,
        "lambda": args.lambda_total,
        "dphi2": args.dphi2,
        "windows": args.windows,
        "seed": args.seed,
    }
    rows = []
    for i, mu in enumerate(mu_grid):
        mu = float(mu)
        ideal = i_prob(mu, args.epsilon)
        measured = simulate_interrogation_prob(
            source, mu, windows=args.windows, seed=(args.seed, i), epsilon=args.epsilon
        )
        with_refl = i_prob_reflectivity(mu, args.epsilon, args.lambda_total)
        with_jitter = i_prob_jitter(mu, args.epsilon, args.dphi2)
        rows.append((mu, ideal, measured, with_refl, with_jitter))

    schema = "qinterro.sweep_mu/1"
    if args.format == "json":
        text = _json_report(schema, _SWEEP_MU_COLUMNS, rows, config=meta)
    else:
        text = _csv_section(schema, _SWEEP_MU_COLUMNS, rows, _config_comment(meta))
    _write_text(args.output, text)
    print(f"wrote {args.output} ({len(rows)} points)")
    return EXIT_OK


def _read_scan_csv(path: str, theta: Optional[float]) -> FringeScan:
    """Read the scan points of a bare scan, or of one theta of a fringes file.

    Reading stops at the fringes summary header.
    """
    phases = []
    counts = []
    per_theta: Optional[bool] = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if per_theta is None:
                header = tuple(c.lower() for c in cells)
                per_theta = header[:3] == _THETA_HEADER
                if not per_theta and header[:2] != _BARE_HEADER:
                    raise CliError(
                        f"unrecognized scan header {','.join(cells)!r}; expected "
                        f"{','.join(_BARE_HEADER)}[,...] or {','.join(_THETA_HEADER)}[,...]"
                    )
                if per_theta and theta is None:
                    raise CliError("scan file has per-theta rows; select one with --theta")
                continue
            try:
                if per_theta:
                    row_theta = float(cells[0])
                    # negated so that a nan theta in the file matches nothing
                    if not abs(row_theta - theta) <= 1e-9:
                        continue
                    phases.append(float(cells[1]))
                    counts.append(float(cells[2]))
                else:
                    phases.append(float(cells[0]))
                    counts.append(float(cells[1]))
            except (ValueError, IndexError):
                if tuple(c.lower() for c in cells) == _SUMMARY_COLUMNS:
                    break
                raise CliError(f"could not parse scan row {line!r}") from None
    if not phases:
        raise CliError(f"no scan points found in {path}")
    return FringeScan(phases=np.array(phases), counts=np.array(counts))


def cmd_estimate(args) -> int:
    report: dict = {"schema": "qinterro.estimate/1"}
    std_error = args.std_error

    if args.scan is not None:
        theta = None if args.theta is None else parse_angle(args.theta)
        scan = _read_scan_csv(args.scan, theta)
        res = fit_fringe(scan)
        visibility = res.visibility
        std_error = res.std_error
    elif args.visibility is not None:
        visibility = args.visibility
    else:
        raise CliError("provide --visibility or --scan")

    if args.epsilon is not None:
        epsilon = args.epsilon
    elif args.equal_arm_visibility is not None:
        # With equal arms the fringe visibility equals the purity itself.
        epsilon = args.equal_arm_visibility
    else:
        raise CliError("provide --epsilon or --equal-arm-visibility")

    report["visibility"] = visibility
    report["std_error"] = std_error
    report["epsilon_used"] = epsilon
    report["branch"] = args.branch

    two_arm = args.mu1 is not None
    report["mode"] = "two_arm" if two_arm else "one_arm"
    try:
        if two_arm:
            report["mu1"] = args.mu1
            mu2 = estimate_mu_two_arm(
                visibility, args.mu1, epsilon, larger_branch=(args.branch == "high")
            )
            report["mu2_hat"] = mu2
            if mu2 <= 1.0:
                vis_check = visibility_two_arm(args.mu1, mu2, epsilon)
                report["residual"] = abs(vis_check - visibility)
            else:
                report["residual"] = None
        else:
            mu = estimate_mu(visibility, epsilon)
            report["mu_hat"] = mu
            report["residual"] = abs(visibility_one_arm(mu, epsilon) - visibility)
        report["feasible"] = True
        code = EXIT_OK
    except InfeasibleError as exc:
        report["feasible"] = False
        report["reason"] = str(exc)
        code = EXIT_INFEASIBLE

    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.output:
        _write_text(args.output, text + "\n")
    return code


def _number_list(flag: str, text: str, kind) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"{flag} needs a comma list of numbers, got {text!r}") from None


def cmd_compare(args) -> int:
    n_values = _number_list("--n-values", args.n_values, int)
    mu_values = _number_list("--mu-values", args.mu_values, float)
    table = compare_schemes(n_values, mu_values, epsilon=args.epsilon)

    schema = "qinterro.compare/1"
    rows = [(r.scheme, r.parameter, r.eta) for r in table.rows]
    if args.format == "json":
        text = _json_report(schema, _COMPARE_COLUMNS, rows, footnote=table.footnote)
    else:
        text = _csv_section(schema, _COMPARE_COLUMNS, rows, f"# note: {table.footnote}")
    _write_text(args.output, text)
    print(f"wrote {args.output} ({len(table.rows)} rows)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route that to the validation code.
    def error(self, message):
        raise CliError(message)

    # argparse reads "-3:9:101" or "-pi/4" as an unknown flag; no flag of this
    # CLI starts with "-" and a digit, "." or "pi", so such a token is a value.
    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE_RE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _add_source_flags(p: _Parser) -> None:
    p.add_argument("--source", choices=("heralded", "coherent"), default="heralded")
    p.add_argument("--pairs", type=int, default=800, help="heralded pairs per window")
    p.add_argument("--nbar", type=float, default=800.0, help="coherent mean photons per window")
    p.add_argument("--background", type=float, default=0.0, help="background counts per window")
    p.add_argument("--windows", type=int, default=25, help="counting windows per point")
    p.add_argument("--seed", type=int, default=42)


def build_parser() -> _Parser:
    parser = _Parser(prog="qinterro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("fringes", help="Monte Carlo fringe scans per post-selection angle")
    pf.add_argument("--config", help="key=value file supplying flag defaults")
    pf.add_argument("--epsilon", type=float, default=1.0)
    pf.add_argument("--thetas", default=DEFAULT_THETAS, help="comma list of post-selection angles")
    pf.add_argument("--phase-grid", default=DEFAULT_PHASE_GRID, help="start:stop:count")
    pf.add_argument("--gamma", type=float, default=1.0, help="contrast envelope in [0, 1]")
    pf.add_argument("--mu", type=float, default=None, help="one-arm object transmittance")
    pf.add_argument("--mu1", type=float, default=None, help="two-arm transmittance, H path")
    pf.add_argument("--mu2", type=float, default=None, help="two-arm transmittance, V path")
    pf.add_argument("--delta", default="0", help="object phase")
    _add_source_flags(pf)
    pf.add_argument("--output", "-o", required=True)
    pf.set_defaults(func=cmd_fringes)

    ps = sub.add_parser("sweep-mu", help="interrogation probability versus transmittance")
    ps.add_argument("--config", help="key=value file supplying flag defaults")
    ps.add_argument("--epsilon", type=float, default=1.0)
    ps.add_argument("--mu-grid", default=None, help="start:stop:count over [0, 1]")
    ps.add_argument("--calibration", default=None, help="calibration CSV path")
    ps.add_argument("--positions", default=None, help="start:stop:count in mm")
    ps.add_argument("--lambda", dest="lambda_total", type=float, default=0.0,
                    help="summed surface reflectivity")
    ps.add_argument("--dphi2", type=float, default=0.0, help="phase jitter variance, rad^2")
    _add_source_flags(ps)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--output", "-o", required=True)
    ps.set_defaults(func=cmd_sweep_mu)

    pe = sub.add_parser("estimate", help="invert a visibility for the object transmittance")
    pe.add_argument("--config", help="key=value file supplying flag defaults")
    pe.add_argument("--visibility", type=float, default=None)
    pe.add_argument("--std-error", type=float, default=None)
    pe.add_argument("--scan", default=None, help="CSV of phase_rad,counts (or fringes output)")
    pe.add_argument("--theta", default=None,
                    help="select this theta from a fringes CSV")
    pe.add_argument("--epsilon", type=float, default=None)
    pe.add_argument("--equal-arm-visibility", type=float, default=None,
                    help="visibility measured with equal arms; used as epsilon")
    pe.add_argument("--mu1", type=float, default=None,
                    help="known arm transmittance; switches to two-arm estimation")
    pe.add_argument("--branch", choices=("low", "high"), default="low")
    pe.add_argument("--output", "-o", default=None)
    pe.set_defaults(func=cmd_estimate)

    pc = sub.add_parser("compare", help="scheme efficiency table")
    pc.add_argument("--config", help="key=value file supplying flag defaults")
    pc.add_argument("--n-values", default="2,5,10", help="comma list of pass counts")
    pc.add_argument("--mu-values", default="0,0.25,0.5,0.75,1", help="comma list of mu")
    pc.add_argument("--epsilon", type=float, default=1.0)
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.add_argument("--output", "-o", required=True)
    pc.set_defaults(func=cmd_compare)

    return parser


def _load_config_flags(path: str) -> list[str]:
    flags = []
    with open(path) as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(
                    f"{path}:{line_number}: expected key=value, got {line!r}"
                )
            key = key.strip().replace("_", "-")
            flags.append(f"--{key}={value.strip()}")
    return flags


def _inject_config(argv: list[str]) -> list[str]:
    """Insert config-file values as flags right after the subcommand.

    Explicit command-line flags come later in argv and therefore win.
    """
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise CliError("--config needs a path")
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    else:
        return argv
    return [argv[0]] + _load_config_flags(path) + argv[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and not argv[0].startswith("-"):
            argv = _inject_config(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (QInterroError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error{where}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
