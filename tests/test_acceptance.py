"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them alongside the test results).
"""
import json
import math
import time

import numpy as np

from qinterro.analysis import (
    estimate_mu,
    fit_epsilon_iprob,
    fit_epsilon_visibility,
    fit_fringe,
    visibility_one_arm,
    visibility_two_arm,
    weak_value_detection_identity,
    weak_value_visibility,
)
from qinterro.bench import (
    BenchConfig,
    NO_ABSORBER,
    OneArmAbsorber,
    TwoArmAbsorber,
    detection_prob,
    i_prob,
)
from qinterro.cli import main as cli_main
from qinterro.noise import i_prob_jitter, i_prob_reflectivity
from qinterro.schemes import eta_npass
from qinterro.sources import CoherentSource, HeraldedSource, simulate_fringe_scan

RNG = np.random.default_rng(20260818)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _close(a, b, tol):
    return abs(a - b) <= tol


def test_criterion_1_closed_form_anchors():
    t0 = time.perf_counter()
    failures = []
    if not _close(i_prob(0.0, 1.0), 0.75, 1e-12):
        failures.append("opaque-object interrogation probability")
    if not _close(i_prob(1.0, 1.0), 0.5, 1e-12):
        failures.append("transparent-object interrogation probability")
    cfg = BenchConfig(epsilon=1.0)
    if not _close(detection_prob(cfg, OneArmAbsorber(1.0)), 1.0, 1e-12):
        failures.append("unit detection at zero phase")
    for eps in np.linspace(0.05, 1.0, 20):
        if not _close(visibility_one_arm(1.0, eps), eps, 1e-12):
            failures.append(f"one-arm visibility at mu=1, eps={eps}")
        mu = float(RNG.uniform(0.05, 1.0))
        if not _close(visibility_two_arm(mu, mu, eps), eps, 1e-12):
            failures.append(f"equal-arm visibility at mu={mu}")
    if not _close(eta_npass(2), 0.25, 1e-12):
        failures.append("two-pass efficiency")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s")
    _report(
        1,
        not failures,
        "closed-form anchors at 1e-12"
        + (f" ({elapsed * 1e3:.0f} ms)" if not failures else f": {failures}"),
    )


def closed_form_detection(theta, mu1, mu2, eps, phase, gamma):
    # independent hand-derived law for the post-selected detection probability
    c, s = math.cos(theta), math.sin(theta)
    direct = 0.5 * (mu2 * c * c + mu1 * s * s)
    cross = 0.5 * gamma * eps * math.sqrt(mu1 * mu2) * math.sin(2 * theta)
    return direct + cross * math.cos(phase)


def test_criterion_2_pipeline_matches_closed_form():
    t0 = time.perf_counter()
    n = 10_000
    worst = 0.0
    for _ in range(n):
        mu = float(RNG.uniform(0, 1))
        eps = float(RNG.uniform(0, 1))
        delta = float(RNG.uniform(-math.pi, math.pi))
        phi1 = float(RNG.uniform(-2 * math.pi, 2 * math.pi))
        phi2 = float(RNG.uniform(-2 * math.pi, 2 * math.pi))
        theta = float(RNG.uniform(0, math.pi))
        cfg = BenchConfig(epsilon=eps, phi1=phi1, phi2=phi2, theta_post=theta)
        got = detection_prob(cfg, OneArmAbsorber(mu, delta))
        want = closed_form_detection(theta, 1.0, mu, eps, phi1 + phi2 + delta, 1.0)
        worst = max(worst, abs(got - want))
    # two-arm generalization with a contrast envelope, same tolerance
    for _ in range(2_000):
        mu1, mu2 = (float(x) for x in RNG.uniform(0, 1, 2))
        eps = float(RNG.uniform(0, 1))
        gamma = float(RNG.uniform(0, 1))
        delta = float(RNG.uniform(-math.pi, math.pi))
        phi1 = float(RNG.uniform(-2 * math.pi, 2 * math.pi))
        theta = float(RNG.uniform(0, math.pi))
        cfg = BenchConfig(
            epsilon=eps, phi1=phi1, theta_post=theta, contrast_envelope=gamma
        )
        # the two-arm object phase is common to both paths and drops out
        got = detection_prob(cfg, TwoArmAbsorber(mu1, mu2, delta))
        want = closed_form_detection(theta, mu1, mu2, eps, phi1, gamma)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        2,
        ok,
        f"pipeline vs closed form on 12000 tuples, worst |diff|={worst:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_3_noise_scaling_laws():
    failures = []
    for _ in range(2_000):
        mu = float(RNG.uniform(0, 1))
        eps = float(RNG.uniform(0, 1))
        lam = float(RNG.uniform(0, 0.9))
        dphi2 = float(RNG.uniform(0, 0.19))
        base = i_prob(mu, eps)
        if abs(i_prob_reflectivity(mu, eps, lam) - (1 - lam) * base) > 1e-12:
            failures.append(f"reflectivity scaling at mu={mu}, lam={lam}")
            break
        if abs(base - i_prob_jitter(mu, eps, dphi2) - dphi2 / 4) > 1e-12:
            failures.append(f"jitter offset at dphi2={dphi2}")
            break
    # a 10 percent summed reflectivity drags the near-transparent end below 1/2
    mus = np.linspace(0.9, 1.0, 21)
    curve = [i_prob_reflectivity(m, 1.0, 0.1) for m in mus]
    if not (min(curve) < 0.5 and curve[-1] < 0.5):
        failures.append("lambda=0.1 curve fails to dip below 0.5 near mu=1")
    _report(3, not failures, "noise scaling laws exact at 1e-12"
            if not failures else str(failures))


def test_criterion_4_estimator_round_trips():
    failures = []
    for eps in (1.0, 0.8, 0.63, 0.4):
        for mu in np.linspace(0.01, 1.0, 100):
            back = estimate_mu(visibility_one_arm(mu, eps), eps)
            if abs(back - mu) > 1e-9:
                failures.append(f"mu round trip at mu={mu}, eps={eps}")
                break
    mus = np.linspace(0, 1, 11)
    for eps in (1.0, 0.92, 0.77):
        eps_hat, _ = fit_epsilon_iprob([(m, i_prob(m, eps)) for m in mus])
        if abs(eps_hat - eps) > 1e-12:
            failures.append(f"iprob fit at eps={eps} gave {eps_hat}")
    mu1 = 0.861
    mu2s = np.linspace(0.05, mu1, 9)
    for eps in (0.63, 0.51):
        data = [(m2, visibility_two_arm(mu1, m2, eps)) for m2 in mu2s]
        eps_hat, _ = fit_epsilon_visibility(data, mu1)
        if abs(eps_hat - eps) > 1e-12:
            failures.append(f"visibility fit at eps={eps} gave {eps_hat}")
    _report(4, not failures, "estimator round trips (mu to 1e-9, eps to 1e-12)"
            if not failures else str(failures))


def test_criterion_5_weak_value_identities():
    worst_d = 0.0
    worst_v = 0.0
    for _ in range(2_000):
        mu = float(RNG.uniform(0, 1))
        phase = float(RNG.uniform(-2 * math.pi, 2 * math.pi))
        cfg = BenchConfig(epsilon=1.0, phi1=phase)
        diff = abs(
            weak_value_detection_identity(phase, mu)
            - detection_prob(cfg, OneArmAbsorber(mu))
        )
        worst_d = max(worst_d, diff)
        worst_v = max(worst_v, abs(weak_value_visibility(mu) - visibility_one_arm(mu, 1.0)))
    ok = worst_d <= 1e-12 and worst_v <= 1e-12
    _report(
        5, ok,
        f"weak-value identities, worst diffs {worst_d:.2e} (detection) "
        f"{worst_v:.2e} (visibility)",
    )


def _fringe_coverage(source, eps_target, n_reps=100):
    grid = np.linspace(0.0, 2 * math.pi, 25)
    cfg = BenchConfig(epsilon=eps_target)
    hits = 0
    for rep in range(n_reps):
        scan = simulate_fringe_scan(
            source, cfg, phase_grid=grid, windows_per_point=25, seed=(1234, rep)
        )
        res = fit_fringe(scan)
        if abs(res.visibility - eps_target) <= 3.0 * res.std_error:
            hits += 1
    return hits


def test_criterion_6_monte_carlo_visibility_reproduction():
    failures = []
    details = []
    protocols = (
        ("heralded", HeraldedSource(pairs_per_window=800), 0.8827),
        ("coherent", CoherentSource(nbar=800.0), 0.7713),
    )
    for name, source, target in protocols:
        # 800 per window x 25 windows puts the fringe offset near 1e4 counts
        assert source.mean_rate * 25 >= 2e4
        t0 = time.perf_counter()
        hits = _fringe_coverage(source, target)
        elapsed = time.perf_counter() - t0
        details.append(f"{name}: {hits}/100 within 3 sigma of {target}, {elapsed:.1f} s")
        if hits < 99:
            failures.append(f"{name} coverage {hits}/100")
        if elapsed >= 60.0:
            failures.append(f"{name} runtime {elapsed:.1f} s")
    _report(6, not failures, "; ".join(details))


def test_criterion_7_byte_identical_reruns(tmp_path, capsys):
    specs = {
        "fringes": ["fringes", "--epsilon", "0.8827", "--thetas", "0,pi/4",
                    "--seed", "21", "-o", None],
        "sweep": ["sweep-mu", "--mu-grid", "0:1:9", "--lambda", "0.05",
                  "--dphi2", "0.01", "--seed", "21", "-o", None],
        "estimate": ["estimate", "--visibility", "0.8", "--epsilon", "1.0",
                     "-o", None],
        "compare": ["compare", "-o", None],
    }
    failures = []
    for name, argv in specs.items():
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}.out"
            argv[-1] = str(path)
            if cli_main([str(a) for a in argv]) != 0:
                failures.append(f"{name} exited nonzero")
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            failures.append(f"{name} rerun differs")
    capsys.readouterr()
    _report(7, not failures, "all four commands byte-identical under rerun"
            if not failures else str(failures))


def test_criterion_8_csv_emission_shapes(tmp_path, capsys):
    failures = []
    # sweep curves: interrogation probability decreasing in mu, correct endpoints
    for eps in (1.0, 0.92, 0.77):
        out = tmp_path / f"sweep_{eps}.csv"
        code = cli_main(["sweep-mu", "--epsilon", str(eps), "--mu-grid", "0:1:21",
                         "--seed", "8", "-o", str(out)])
        if code != 0:
            failures.append(f"sweep eps={eps} exited {code}")
            continue
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "mu,"))
        ]
        ideal = np.array([r[1] for r in rows])
        if not (np.diff(ideal) < 0).all():
            failures.append(f"sweep eps={eps} ideal column not strictly decreasing")
        if abs(ideal[0] - (1 + 2 * eps) / 4) > 1e-12 or abs(ideal[-1] - eps / 2) > 1e-12:
            failures.append(f"sweep eps={eps} endpoint mismatch")
        mc = np.array([r[2] for r in rows])
        if np.max(np.abs(mc - ideal)) > 0.03:
            failures.append(f"sweep eps={eps} Monte Carlo column off the ideal curve")

    # fringes defaults: periodic expected-probability columns per angle
    out = tmp_path / "fringes.csv"
    if cli_main(["fringes", "-o", str(out)]) != 0:
        failures.append("fringes defaults exited nonzero")
    else:
        per_theta: dict = {}
        section = "points"
        for line in out.read_text().splitlines():
            if line.startswith("#"):
                if "summary" in line:
                    section = "summary"
                continue
            if section != "points" or line.startswith("theta_rad"):
                continue
            cells = line.split(",")
            per_theta.setdefault(cells[0], []).append(
                (float(cells[1]), float(cells[3]))
            )
        if len(per_theta) != 5:
            failures.append(f"expected 5 angles, saw {len(per_theta)}")
        for theta, pts in per_theta.items():
            probs = [p for _, p in pts]
            if abs(probs[0] - probs[-1]) > 1e-12:
                failures.append(f"theta={theta} fringe not periodic over one turn")
            span = max(probs) - min(probs)
            t = float(theta)
            if abs(span - abs(math.sin(2 * t))) > 1e-9:
                failures.append(f"theta={theta} fringe amplitude off")
    capsys.readouterr()
    _report(8, not failures, "sweep and fringe CSV emissions parse with the "
            "expected monotone/periodic shapes" if not failures else str(failures))
