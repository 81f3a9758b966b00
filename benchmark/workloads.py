"""The benchmark's workloads: generated inputs, CLI arguments and output checks.

Inputs are made from the workload seed with numpy and the paper's closed
forms only, never with qinterro, so the program under test receives nothing
it computed itself. Each invocation records the true parameters of its inputs
so that its output can be checked against them. No check compares against a
stored hash of count streams: a faster sampler may change those streams on
purpose while keeping their distribution.

A workload's tail_pct is the percentile that run.py reports as call_tail_ms,
over the calls it keeps from the quieter half of the run (run.quiet_calls).
sweep-deep keeps ~60 calls in 30 s, so p80 is the highest with ten beyond it.
The faster workloads keep 300-900 calls but stay at p90: across six runs of
the same code p95 spread 0.11-0.16 of its median and p98 up to 0.28, against
0.08 for p90.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

QUARTER_PI = math.pi / 4
TWO_PI = 2 * math.pi


def _num(x) -> str:
    """Shortest round-tripping text of a float, as the CLI will parse it."""
    return repr(float(x))


def _visibility_sigma(points: int, offset_counts: float, visibility: float) -> float:
    """Standard error of V = b/a fitted as a + b cos(phase) over a full period.

    With M points of count variance s^2, Var(a) = s^2/M and Var(b) = 2 s^2/M;
    the Poisson variance s^2 = a bounds the binomial one from above. The
    checks use this rather than the error the program reports, so that a
    program that inflates its error bars cannot widen its own tolerance.
    """
    return math.sqrt((2.0 + visibility**2) / (points * offset_counts))


@dataclass
class Invocation:
    """One CLI call: its arguments (without -o), inputs and expected results."""

    args: list[str]
    points: int
    truth: dict
    inputs: list[Path] = field(default_factory=list)
    rows_read: int = 0


class FringeDense:
    """fringes at one angle on a dense phase grid, heralded source."""

    name = "fringe-dense"
    suffix = ".csv"
    tail_pct = 90
    trace_pairs = 20
    grid = 401
    windows = 25
    pairs = 800

    def draw(self, rng: np.random.Generator, workdir: Path, index: int) -> Invocation:
        eps = rng.uniform(0.85, 1.0)
        seed = int(rng.integers(2**32))
        if rng.random() < 0.75:
            mu1, mu2, gamma = 1.0, rng.uniform(0.05, 0.95), 1.0
            absorber = ["--mu", _num(mu2)]
        else:
            mu1, mu2 = rng.uniform(0.2, 1.0, size=2)
            gamma = rng.uniform(0.6, 0.95)
            absorber = ["--mu1", _num(mu1), "--mu2", _num(mu2), "--gamma", _num(gamma)]
        args = [
            "fringes", "--thetas", "pi/4", "--phase-grid", f"0:2pi:{self.grid}",
            "--windows", str(self.windows), "--source", "heralded",
            "--pairs", str(self.pairs), "--epsilon", _num(eps), *absorber,
            "--seed", str(seed),
        ]
        truth = {"epsilon": float(eps), "mu1": float(mu1), "mu2": float(mu2),
                 "gamma": float(gamma)}
        return Invocation(args=args, points=self.grid, truth=truth)

    def check(self, inv: Invocation, text: str) -> Optional[str]:
        t = inv.truth
        lines = text.splitlines()
        head = lines.index("theta_rad,phase_rad,counts,expected_prob")
        body = lines[head + 1 : head + 1 + self.grid]
        rows = [[float(c) for c in line.split(",")] for line in body]
        phases = np.linspace(0.0, TWO_PI, self.grid)
        root = math.sqrt(t["mu1"] * t["mu2"])
        amp = 2.0 * t["epsilon"] * t["gamma"] * root
        n_max = self.pairs * self.windows
        if len(rows) != self.grid:
            return f"{len(rows)} scan rows, expected {self.grid}"
        for (theta, phase, counts, prob), want_phase in zip(rows, phases):
            if abs(theta - QUARTER_PI) > 1e-12 or abs(phase - want_phase) > 1e-12:
                return f"unexpected grid point theta={theta} phase={phase}"
            want = (t["mu1"] + t["mu2"] + amp * math.cos(phase)) / 4.0
            if abs(prob - want) > 1e-9:
                return f"expected_prob {prob} != closed form {want} at phase {phase}"
            if counts != int(counts) or not 0 <= counts <= n_max:
                return f"counts {counts} not an integer in [0, {n_max}]"
        summary = lines[lines.index("# schema=qinterro.fringes.summary/1") + 2].split(",")
        visibility = float(summary[1])
        v_true = amp / (t["mu1"] + t["mu2"])
        sigma = _visibility_sigma(self.grid, n_max * (t["mu1"] + t["mu2"]) / 4.0, v_true)
        if abs(visibility - v_true) > 5.0 * sigma:
            return f"fitted V {visibility} vs closed form {v_true} (sigma {sigma})"
        return None


class SweepDeep:
    """sweep-mu over calibration positions with a deep window count."""

    name = "sweep-deep"
    suffix = ".csv"
    tail_pct = 80
    trace_pairs = 20
    rows = 5
    nbar = 800.0
    background = 5.0
    windows = 400_000
    lambda_total = 0.1
    dphi2 = 0.05

    def draw(self, rng: np.random.Generator, workdir: Path, index: int) -> Invocation:
        eps = rng.uniform(0.8, 1.0)
        seed = int(rng.integers(2**32))
        # A smoothstep transmittance curve from 0.98 down to 0.02 over 0-12 mm.
        positions = np.linspace(0.0, 12.0, 25)
        center, width = rng.uniform(4.0, 8.0), rng.uniform(3.0, 6.0)
        x = np.clip((positions - center) / width + 0.5, 0.0, 1.0)
        mus = 0.98 - 0.96 * x * x * (3.0 - 2.0 * x)
        table = workdir / f"calibration-{index}.csv"
        body = "".join(f"{_num(p)},{_num(m)}\n" for p, m in zip(positions, mus))
        table.write_text("# wavelength: synthetic\nposition_mm,transmittance\n" + body)
        a, b = rng.uniform(0.0, 4.0), rng.uniform(8.0, 12.0)
        args = [
            "sweep-mu", "--source", "coherent", "--nbar", _num(self.nbar),
            "--background", _num(self.background), "--windows", str(self.windows),
            "--lambda", _num(self.lambda_total), "--dphi2", _num(self.dphi2),
            "--epsilon", _num(eps), "--calibration", str(table),
            "--positions", f"{_num(a)}:{_num(b)}:{self.rows}", "--seed", str(seed),
        ]
        mu_true = np.interp(np.linspace(a, b, self.rows), positions, mus)
        return Invocation(
            args=args, points=self.rows, inputs=[table],
            truth={"epsilon": float(eps), "mu": mu_true.tolist()},
        )

    def check(self, inv: Invocation, text: str) -> Optional[str]:
        eps = inv.truth["epsilon"]
        lines = text.splitlines()
        head = lines.index(
            "mu,i_prob_ideal,i_prob_measured_mc,i_prob_reflectivity,i_prob_jitter"
        )
        rows = [[float(c) for c in line.split(",")] for line in lines[head + 1 :]]
        if len(rows) != self.rows:
            return f"{len(rows)} sweep rows, expected {self.rows}"
        offered = self.nbar * self.windows
        for (mu, ideal, mc, refl, jitter), mu_true in zip(rows, inv.truth["mu"]):
            if abs(mu - mu_true) > 1e-12:
                return f"mu {mu} != interpolated calibration {mu_true}"
            want = (1.0 + 2.0 * eps - mu) / 4.0
            if abs(ideal - want) > 1e-12:
                return f"i_prob_ideal {ideal} != (1 + 2 eps - mu)/4 = {want}"
            if abs(refl - (1.0 - self.lambda_total) * want) > 1e-12:
                return f"i_prob_reflectivity {refl} off its closed form"
            if abs(jitter - (want - self.dphi2 / 4.0)) > 1e-12:
                return f"i_prob_jitter {jitter} off its closed form"
            # Both legs are Poisson; the background cancels in the mean only.
            p_ref, p_obj = (1.0 + eps) / 2.0, (1.0 + mu) / 4.0
            var = offered * (p_ref + p_obj) + 2.0 * self.background * self.windows
            if abs(mc - want) > 6.0 * math.sqrt(var) / offered:
                return f"i_prob_measured_mc {mc} more than 6 sigma from {want}"
        return None


class ScanEstimate:
    """estimate --scan on a fringes-format file with four angles."""

    name = "scan-estimate"
    suffix = ".json"
    tail_pct = 90
    trace_pairs = 200
    phases = 2001
    thetas = (0.0, math.pi / 8, QUARTER_PI, 3 * math.pi / 8)
    trials = 800 * 25

    def draw(self, rng: np.random.Generator, workdir: Path, index: int) -> Invocation:
        eps, mu = rng.uniform(0.85, 1.0), rng.uniform(0.05, 0.7)
        phase = np.linspace(0.0, TWO_PI, self.phases)
        phase_text = [_num(p) for p in phase]
        lines = [
            "# schema=qinterro.fringes/1",
            f"# config: epsilon={_num(eps)} mu={_num(mu)} windows=25 pairs=800",
            "theta_rad,phase_rad,counts,expected_prob",
        ]
        summary = []
        root = math.sqrt(mu)
        for theta in self.thetas:
            c, s = math.cos(theta), math.sin(theta)
            offset, amp = 0.5 * (mu * c * c + s * s), eps * root * s * c
            prob = offset + amp * np.cos(phase)
            counts = rng.binomial(self.trials, prob)
            th = _num(theta)
            lines.extend(
                f"{th},{ph},{n},{_num(p)}"
                for ph, n, p in zip(phase_text, counts.tolist(), prob.tolist())
            )
            # The closed-form fringe, in the summary section a reader skips.
            a, b = self.trials * offset, self.trials * amp
            fit = (b / a, 0.0, a + b, a - b, a, b, 0.0)
            summary.append(",".join([th, *map(_num, fit), "false"]))
        lines.append("# schema=qinterro.fringes.summary/1")
        lines.append(
            "theta_rad,visibility,std_error,d_max,d_min,fit_offset,"
            "fit_amplitude,fit_phase_rad,used_fallback"
        )
        lines.extend(summary)
        scan = workdir / f"scan-{index}.csv"
        scan.write_text("\n".join(lines) + "\n")
        args = ["estimate", "--scan", str(scan), "--theta", "pi/4", "--epsilon", _num(eps)]
        rows = self.phases * len(self.thetas)
        return Invocation(
            args=args, points=rows, inputs=[scan], rows_read=rows,
            truth={"epsilon": float(eps), "mu": float(mu)},
        )

    def check(self, inv: Invocation, text: str) -> Optional[str]:
        report = json.loads(text)
        eps, mu = inv.truth["epsilon"], inv.truth["mu"]
        if report.get("feasible") is not True or report.get("mode") != "one_arm":
            return f"estimate not feasible one-arm: {report}"
        v_true = 2.0 * eps * math.sqrt(mu) / (1.0 + mu)
        sigma_v = _visibility_sigma(self.phases, self.trials * (1.0 + mu) / 4.0, v_true)
        # sigma_mu = sigma_V / (dV/dmu), with dV/dmu of 2 eps sqrt(mu)/(1 + mu).
        slope = eps * (1.0 - mu) / (math.sqrt(mu) * (1.0 + mu) ** 2)
        tolerance = 6.0 * sigma_v / slope
        if abs(report["mu_hat"] - mu) > tolerance:
            return f"mu_hat {report['mu_hat']} vs true {mu} (tolerance {tolerance})"
        return None


WORKLOADS = {w.name: w for w in (FringeDense(), SweepDeep(), ScanEstimate())}
