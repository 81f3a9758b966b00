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
import functools
import math
import re
import sys
import warnings
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from ._validate import each, finite, non_negative, unit_interval
from .analysis import (
    estimate_mu,
    estimate_mu_two_arm,
    fit_fringe,
    visibility_one_arm,
    visibility_two_arm,
)
from .bench import BenchConfig, NO_ABSORBER, OneArmAbsorber, TwoArmAbsorber, i_prob
from .calibration import load_calibration, mu_at
from .exceptions import (
    CliError,
    DomainError,
    InfeasibleError,
    QInterroError,
    UndefinedVisibilityError,
)
from .noise import i_prob_jitter, i_prob_reflectivity
from .report import (
    _COMPARE_COLUMNS,
    _FRINGES_COLUMNS,
    _SUMMARY_COLUMNS,
    _SWEEP_MU_COLUMNS,
    _config_comment,
    _csv_section,
    _json_report,
    _json_text,
    _read_scan_csv,
    _report_record,
    _text_lines,
    _write_text,
)
from .schemes import compare_schemes
from .sources import (
    CoherentSource,
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
# The most points a grid may have; the largest grid any documented run uses is 401.
MAX_GRID_POINTS = 10**6

_NEGATIVE_VALUE_RE = re.compile(r"-(?:[\d.]|pi)")
_ANGLE_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$"
)


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
        angle = float(coef + "1" if coef in ("", "+", "-") else coef) * math.pi
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
    """Parse 'start:stop:count' with pi expressions into an inclusive grid.

    A count above MAX_GRID_POINTS is refused before anything is allocated.
    """
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
    if count > MAX_GRID_POINTS:
        raise CliError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return np.linspace(start, stop, count)


def _source_from_args(args) -> HeraldedSource | CoherentSource:
    """The source; its rate flag, 800 when not given, is filled in for the record."""
    if args.source == "heralded":
        if args.nbar is not None:
            raise CliError(
                "--nbar cannot be used with --source heralded: it sets a coherent source"
            )
        args.pairs = 800 if args.pairs is None else args.pairs
        return HeraldedSource(pairs_per_window=args.pairs, background_rate=args.background)
    if args.pairs is not None:
        raise CliError(
            "--pairs cannot be used with --source coherent: it sets a heralded source"
        )
    args.nbar = 800.0 if args.nbar is None else args.nbar
    return CoherentSource(nbar=args.nbar, background_rate=args.background)


def _run_record(args) -> dict:
    """The run record: every parsed flag that has a value, under its flag name.

    argparse's own entries, --config and --output are left out; --format is
    kept, since it sets the report's bytes. Read it after the resolvers have
    filled in the source's rate flag and an object's delta in radians.
    """
    skip = ("command", "func", "config", "output")
    return {k: v for k, v in vars(args).items() if v is not None and k not in skip}


def _absorber_from_args(args):
    """The object; its delta, 0 when not given, is filled in in radians for the record."""
    if args.mu1 is None and args.mu2 is None:
        if args.mu is None:
            if args.delta is not None:
                raise CliError("--delta needs an object: give --mu, or --mu1 with --mu2")
            return NO_ABSORBER
    elif args.mu is not None:
        raise CliError("--mu cannot be combined with --mu1/--mu2")
    elif args.mu1 is None:
        raise CliError("--mu2 requires --mu1")
    elif args.mu2 is None:
        raise CliError("--mu1 requires --mu2")
    args.delta = parse_angle("0" if args.delta is None else args.delta)
    if args.mu is not None:
        return OneArmAbsorber(mu=args.mu, delta=args.delta)
    return TwoArmAbsorber(mu1=args.mu1, mu2=args.mu2, delta=args.delta)


def cmd_fringes(args) -> int:
    source = _source_from_args(args)
    absorber = _absorber_from_args(args)
    thetas = parse_angle_list(args.thetas)
    grid = parse_grid(args.phase_grid)

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
        points.extend(zip(
            [repr(theta)] * len(scan),  # _fmt(theta), formatted once per theta
            scan.phases.tolist(),
            list(map(int, scan.counts.tolist())),
            scan.expected_probs.tolist(),
        ))
        try:
            res = fit_fringe(scan)
        except UndefinedVisibilityError as exc:
            # e.g. theta = 0 behind an opaque object: nothing survives to post-select
            summaries.append((theta,) + (None,) * (len(_SUMMARY_COLUMNS) - 1))
            warnings.warn(f"theta={theta:.6g}: no fit, {exc}")
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
        _csv_section(
            "qinterro.fringes/1", _FRINGES_COLUMNS, points, _config_comment(_run_record(args))
        )
        + _csv_section("qinterro.fringes.summary/1", _SUMMARY_COLUMNS, summaries),
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def _mu_grid_from_args(args) -> np.ndarray:
    if args.calibration is not None:
        if args.positions is None:
            raise CliError("--calibration requires --positions start:stop:count")
        if args.mu_grid is not None:
            raise CliError("--mu-grid cannot be used with --calibration: both set the mu values")
        table = load_calibration(args.calibration)
        positions = parse_grid(args.positions)
        return np.array([mu_at(table, p) for p in positions])
    if args.mu_grid is None:
        raise CliError("provide --mu-grid or --calibration with --positions")
    if args.positions is not None:
        raise CliError("--positions needs --calibration: it selects points of a calibration table")
    grid = parse_grid(args.mu_grid)
    try:
        each(unit_interval, "mu grid values", grid)
    except DomainError as exc:
        raise CliError(str(exc)) from None
    return grid


def _write_report(args, schema: str, columns, rows, *comments: str, **fields) -> None:
    """Write a report as --format asks: JSON with the fields and the run record
    as config, or CSV with the comment lines and the record's # config: line."""
    record = _run_record(args)
    if args.format == "json":
        text = _json_report(schema, columns, rows, config=record, **fields)
    else:
        text = _csv_section(schema, columns, rows, *comments, _config_comment(record))
    _write_text(args.output, text)


def cmd_sweep_mu(args) -> int:
    source = _source_from_args(args)
    mu_grid = _mu_grid_from_args(args)
    rows = []
    negative = []  # mu values whose i_prob_jitter is below 0
    for i, mu in enumerate(mu_grid):
        mu = float(mu)
        ideal = i_prob(mu, args.epsilon)
        measured = simulate_interrogation_prob(
            source, mu, windows=args.windows, seed=(args.seed, i), epsilon=args.epsilon
        )
        with_refl = i_prob_reflectivity(mu, args.epsilon, getattr(args, "lambda"))
        with_jitter = i_prob_jitter(mu, args.epsilon, args.dphi2)
        rows.append((mu, ideal, measured, with_refl, with_jitter))
        if with_jitter < 0.0:
            negative.append(f"{mu:.6g}")
    # The jitter law is the paper's and assumes epsilon = 1; below that it can
    # go negative. Its values are written as they are, and named here.
    if negative:
        warnings.warn(
            f"i_prob_jitter is below 0 at mu = {', '.join(negative)}; "
            "its law (1 + 2 epsilon - mu - dphi2) / 4 assumes epsilon = 1"
        )

    _write_report(args, "qinterro.sweep_mu/1", _SWEEP_MU_COLUMNS, rows)
    print(f"wrote {args.output} ({len(rows)} points)")
    return EXIT_OK


def cmd_estimate(args) -> int:
    report: dict = {"schema": "qinterro.estimate/1", "config": _run_record(args)}
    # a flag that would be dropped is refused, before any input is read
    if args.scan is not None:
        if args.std_error is not None:
            raise CliError(
                "--std-error cannot be used with --scan: the fit supplies the standard error"
            )
        if args.visibility is not None:
            raise CliError(
                "--visibility cannot be used with --scan: the fit supplies the visibility"
            )
    elif args.theta is not None:
        raise CliError("--theta needs --scan: it selects the rows of one angle in a scan file")
    if args.epsilon is not None and args.equal_arm_visibility is not None:
        raise CliError("--equal-arm-visibility cannot be used with --epsilon: both set the purity")
    std_error = args.std_error
    if std_error is not None:
        # also keeps nan and inf, which JSON cannot carry, out of the report
        std_error = non_negative("std_error", std_error)
    if args.scan is None and args.visibility is None:
        raise CliError("provide --visibility or --scan")
    if args.epsilon is None and args.equal_arm_visibility is None:
        raise CliError("provide --epsilon or --equal-arm-visibility")
    if args.branch is not None and args.mu1 is None:
        raise CliError("--branch needs --mu1: the one-arm estimate has one root")

    if args.scan is not None:
        theta = None if args.theta is None else parse_angle(args.theta)
        scan = _read_scan_csv(args.scan, theta)
        try:
            res = fit_fringe(scan)
        except ArithmeticError:
            raise CliError(f"counts too large or too small to fit in {args.scan}") from None
        visibility = res.visibility
        std_error = res.std_error
        report["points"] = len(scan)
        report["used_fallback"] = res.used_fallback
    else:
        visibility = args.visibility
    # With equal arms the fringe visibility equals the purity itself.
    epsilon = args.epsilon if args.epsilon is not None else args.equal_arm_visibility

    report["visibility"] = visibility
    report["std_error"] = std_error
    report["epsilon_used"] = epsilon
    report["branch"] = args.branch or "low"

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

    text = _json_text(report)
    print(text, end="")
    if args.output:
        _write_text(args.output, text)
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

    rows = [(r.scheme, r.parameter, r.eta) for r in table.rows]
    _write_report(
        args, "qinterro.compare/1", _COMPARE_COLUMNS, rows, f"# note: {table.footnote}",
        footnote=table.footnote,
    )
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
    p.add_argument("--pairs", type=int, default=None,
                   help="heralded pairs per window (800 if not given)")
    p.add_argument("--nbar", type=float, default=None,
                   help="coherent mean photons per window (800 if not given)")
    p.add_argument("--background", type=float, default=0.0, help="background counts per window")
    p.add_argument("--windows", type=int, default=25, help="counting windows per point")
    p.add_argument("--seed", type=int, default=42)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's argument parser, built once per process.

    argparse keeps no state from one parse_args call to the next (each call
    fills a new Namespace), so main reuses this one parser for every call.
    Its `commands` attribute maps each subcommand name to that subcommand's
    parser, which main calls directly for an argv that starts with the name.
    """
    parser = _Parser(prog="qinterro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("fringes", help="Monte Carlo fringe scans per post-selection angle")
    pf.add_argument("--config", help="key=value file, or a report, supplying flag defaults")
    pf.add_argument("--epsilon", type=float, default=1.0)
    pf.add_argument("--thetas", default=DEFAULT_THETAS, help="comma list of post-selection angles")
    pf.add_argument("--phase-grid", default=DEFAULT_PHASE_GRID, help="start:stop:count")
    pf.add_argument("--gamma", type=float, default=1.0, help="contrast envelope in [0, 1]")
    pf.add_argument("--mu", type=float, default=None, help="one-arm object transmittance")
    pf.add_argument("--mu1", type=float, default=None, help="two-arm transmittance, H path")
    pf.add_argument("--mu2", type=float, default=None, help="two-arm transmittance, V path")
    pf.add_argument("--delta", default=None, help="object phase")
    _add_source_flags(pf)
    pf.add_argument("--output", "-o", required=True)
    pf.set_defaults(func=cmd_fringes)

    ps = sub.add_parser("sweep-mu", help="interrogation probability versus transmittance")
    ps.add_argument("--config", help="key=value file, or a report, supplying flag defaults")
    ps.add_argument("--epsilon", type=float, default=1.0)
    ps.add_argument("--mu-grid", default=None, help="start:stop:count over [0, 1]")
    ps.add_argument("--calibration", default=None, help="calibration CSV path")
    ps.add_argument("--positions", default=None, help="start:stop:count in mm")
    ps.add_argument("--lambda", type=float, default=0.0, help="summed surface reflectivity")
    ps.add_argument("--dphi2", type=float, default=0.0, help="phase jitter variance, rad^2")
    _add_source_flags(ps)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--output", "-o", required=True)
    ps.set_defaults(func=cmd_sweep_mu)

    pe = sub.add_parser("estimate", help="invert a visibility for the object transmittance")
    pe.add_argument("--config", help="key=value file, or a report, supplying flag defaults")
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
    pe.add_argument("--branch", choices=("low", "high"), default=None)
    pe.add_argument("--output", "-o", default=None)
    pe.set_defaults(func=cmd_estimate)

    pc = sub.add_parser("compare", help="scheme efficiency table")
    pc.add_argument("--config", help="key=value file, or a report, supplying flag defaults")
    pc.add_argument("--n-values", default="2,5,10", help="comma list of pass counts")
    pc.add_argument("--mu-values", default="0,0.25,0.5,0.75,1", help="comma list of mu")
    pc.add_argument("--epsilon", type=float, default=1.0)
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.add_argument("--output", "-o", required=True)
    pc.set_defaults(func=cmd_compare)

    parser.commands = sub.choices
    return parser


@functools.cache
def _config_flags(command: str) -> frozenset[str]:
    """--config and each prefix of it that argparse takes for it in the
    subcommand: one that starts no other option (--c also starts
    --calibration in sweep-mu, so argparse refuses it there as ambiguous)."""
    options = build_parser().commands[command]._option_string_actions
    prefixes = ("--config"[:n] for n in range(3, 9))
    return frozenset(p for p in prefixes if [o for o in options if o.startswith(p)] == ["--config"])


def _load_config_flags(path: str, config_flags: frozenset[str]) -> list[str]:
    """The flags of a key=value config file, read line by line, or of a
    report's run record, which report._report_record finds."""
    with open(path, "rb") as fh:
        lines = _text_lines(path, fh)
        first = next(lines, "")
        if first.startswith(("# schema=", "{")):  # a CSV or a JSON report
            record = _report_record(first, lines)
            if record is None:
                raise CliError(f"{path} is a report with no readable run record")
            return [_config_flag(path, k, str(v), config_flags) for k, v in record.items()]
        flags = []
        for line_number, raw in enumerate(chain((first,), lines), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{path}:{line_number}: expected key=value, got {line!r}")
            flags.append(_config_flag(f"{path}:{line_number}", key, value.strip(), config_flags))
        return flags


def _config_flag(where: str, key: str, value: str, config_flags: frozenset[str]) -> str:
    """--key=value, with - for _ in the key; a key that names --config is refused."""
    flag = "--" + key.strip().replace("_", "-")
    if flag in config_flags:
        raise CliError(f"{where}: a config file cannot read another one")
    return f"{flag}={value}"


def _inject_config(command: str, argv: list[str]) -> list[str]:
    """argv after the subcommand, with config-file values put first as flags.

    Explicit command-line flags come later and therefore win. Like argparse,
    this takes a prefix of --config for the flag where the prefix is not
    ambiguous; a run reads one config file.
    """
    config_flags = _config_flags(command)
    paths = []
    for i, tok in enumerate(argv):
        flag, eq, path = tok.partition("=")
        if flag in config_flags:
            if not eq:
                if i + 1 >= len(argv):
                    raise CliError("--config needs a path")
                path = argv[i + 1]
            paths.append(path)
    if len(paths) > 1:
        raise CliError("--config is given more than once: a run reads one config file")
    return _load_config_flags(paths[0], config_flags) + argv if paths else argv


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI call and return its exit code.

    When argv starts with a subcommand's name, the rest of argv is parsed by
    that subcommand's parser alone, in one pass. Anything else (an empty
    argv, -h, an unknown command) goes through the top-level parser, so its
    usage and error messages are argparse's own.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(_inject_config(argv[0], argv[1:]))
        # every warning of the call, from the package or from a subcommand, is
        # printed here: each distinct message once, as one stable line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.func(args)
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except QInterroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error{where}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
