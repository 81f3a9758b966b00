import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qinterro.analysis import visibility_no_absorber
from qinterro.cli import (
    _read_scan_csv,
    main,
    parse_angle,
    parse_angle_list,
    parse_grid,
)
from qinterro.exceptions import DomainError


def run(args):
    return main([str(a) for a in args])


def read_fringe_sections(path):
    points = []
    summary = []
    section = "points"
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "summary" in line:
                section = "summary"
            continue
        cells = line.split(",")
        if not cells[0].replace(".", "").replace("-", "").lstrip().isdigit():
            continue  # header row
        (points if section == "points" else summary).append(cells)
    return points, summary


def test_parse_angle_forms():
    assert parse_angle("0.25") == 0.25
    assert parse_angle("pi") == pytest.approx(math.pi, abs=1e-15)
    assert parse_angle("pi/8") == pytest.approx(math.pi / 8, abs=1e-15)
    assert parse_angle("3pi/8") == pytest.approx(3 * math.pi / 8, abs=1e-15)
    assert parse_angle("0.5*pi") == pytest.approx(math.pi / 2, abs=1e-15)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2, abs=1e-15)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi, abs=1e-15)
    for bad in ("half a turn", "nan", "inf", "-inf", "1e400", "pi/0", "3pi/0.0"):
        with pytest.raises(DomainError):
            parse_angle(bad)
    assert parse_angle_list("0,pi/4") == [0.0, pytest.approx(math.pi / 4)]


def test_parse_grid():
    grid = parse_grid("0:2pi:25")
    assert grid.size == 25
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2 * math.pi, abs=1e-15)
    with pytest.raises(DomainError):
        parse_grid("0:1")
    with pytest.raises(DomainError):
        parse_grid("0:1:1")
    with pytest.raises(DomainError):
        parse_grid("0:1:x")


def test_fringes_deterministic_bytes(tmp_path, capsys):
    args = [
        "fringes", "--epsilon", 0.8827, "--thetas", "0,pi/8,pi/4",
        "--seed", 11, "-o", None,
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args[-1] = out_a
    assert run(args) == 0
    args[-1] = out_b
    assert run(args) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    out_c = tmp_path / "c.csv"
    assert run(["fringes", "--epsilon", 0.8827, "--thetas", "0,pi/8,pi/4",
                "--seed", 12, "-o", out_c]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()
    capsys.readouterr()


def test_fringes_schema_and_fit_quality(tmp_path, capsys):
    out = tmp_path / "fringe.csv"
    eps = 0.8827
    assert run(["fringes", "--epsilon", eps, "--thetas", "0,pi/8,pi/4",
                "--seed", 5, "-o", out]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("# schema=qinterro.fringes/1\n")
    assert "# schema=qinterro.fringes.summary/1" in text
    assert "# config:" in text

    points, summary = read_fringe_sections(out)
    assert len(points) == 3 * 25
    assert len(summary) == 3
    # expected_prob column reproduces the configured fringe law
    for cells in points:
        theta, phase, _, prob = (float(cells[0]), float(cells[1]),
                                 int(cells[2]), float(cells[3]))
        want = 0.5 * (1 + eps * math.sin(2 * theta) * math.cos(phase))
        assert prob == pytest.approx(want, abs=1e-12)
    # fitted visibility lands near the ideal law for each angle
    for cells in summary:
        theta = float(cells[0])
        v_hat, sigma = float(cells[1]), float(cells[2])
        v_true = visibility_no_absorber(theta, eps)
        assert abs(v_hat - v_true) <= 4.5 * max(sigma, 1e-6)


def test_sweep_mu_columns(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep-mu", "--mu-grid", "0:1:5", "--lambda", 0.1,
                "--seed", 3, "-o", out]) == 0
    capsys.readouterr()
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("mu,")
    ]
    assert len(rows) == 5
    mus = [float(r[0]) for r in rows]
    assert mus == pytest.approx([0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)
    ideal = [float(r[1]) for r in rows]
    assert ideal[0] == pytest.approx(0.75, abs=1e-12)
    assert ideal[-1] == pytest.approx(0.5, abs=1e-12)
    for r in rows:
        mu, ideal_v, mc, refl, jit = map(float, r)
        assert refl == pytest.approx(0.9 * ideal_v, abs=1e-12)
        assert jit == pytest.approx(ideal_v, abs=1e-12)  # dphi2 defaults to 0
        assert abs(mc - ideal_v) < 0.02


def test_sweep_mu_json_and_calibration(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run(["sweep-mu", "--calibration", "data/calibration_synthetic_635nm.csv",
                "--positions", "0:12:4", "--format", "json", "-o", out]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["schema"] == "qinterro.sweep_mu/1"
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["mu"] == pytest.approx(0.0, abs=1e-12)
    assert payload["rows"][-1]["mu"] == pytest.approx(0.526, abs=1e-12)


def test_fringes_opaque_object_keeps_the_other_thetas(tmp_path, capsys):
    # theta = 0 behind an opaque object posts nothing: no fit, but a file
    out = tmp_path / "opaque.csv"
    assert run(["fringes", "--mu", 0, "--seed", 4, "-o", out]) == 0
    captured = capsys.readouterr()
    assert "warning: theta=0: no fit" in captured.err
    points, summary = read_fringe_sections(out)
    assert len(points) == 5 * 25 and len(summary) == 5
    assert summary[0] == ["0.0"] + [""] * 8
    assert all(float(cells[2]) == 0.0 for cells in points if float(cells[0]) == 0.0)
    for cells in summary[1:]:
        assert float(cells[1]) >= 0.0 and cells[8] in ("true", "false")


def test_fringes_round_trip_through_scan_reader(tmp_path, capsys):
    out = tmp_path / "fringes.csv"
    assert run(["fringes", "--thetas", "pi/8,pi/4,3pi/8", "--mu", 0.4,
                "--phase-grid", "0:2pi:9", "--seed", 3, "-o", out]) == 0
    capsys.readouterr()
    points, summary = read_fringe_sections(out)
    assert len(points) == 3 * 9 and len(summary) == 3
    for theta in parse_angle_list("pi/8,pi/4,3pi/8"):
        rows = [cells for cells in points if float(cells[0]) == theta]
        scan = _read_scan_csv(str(out), theta)
        # equal to the written rows, so nothing from the summary was read
        assert scan.phases.tolist() == [float(c[1]) for c in rows]
        assert scan.counts.tolist() == [float(c[2]) for c in rows]


def test_estimate_from_visibility(tmp_path, capsys):
    out = tmp_path / "est.json"
    assert run(["estimate", "--visibility", 0.8, "--epsilon", 1.0, "-o", out]) == 0
    captured = capsys.readouterr().out
    report = json.loads(captured)
    assert report["mode"] == "one_arm"
    assert report["mu_hat"] == pytest.approx(0.25, abs=1e-12)
    assert report["feasible"] is True
    assert report["residual"] <= 1e-12
    assert out.read_bytes() == (captured.rstrip("\n") + "\n").encode()


def test_estimate_two_arm_and_branches(capsys):
    v = 0.5261724030305734
    assert run(["estimate", "--visibility", v, "--equal-arm-visibility", 0.63,
                "--mu1", 0.861]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "two_arm"
    assert report["epsilon_used"] == 0.63
    assert report["mu2_hat"] == pytest.approx(0.25, abs=1e-9)
    assert report["residual"] <= 1e-9

    assert run(["estimate", "--visibility", v, "--equal-arm-visibility", 0.63,
                "--mu1", 0.861, "--branch", "high"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu2_hat"] == pytest.approx(0.861 ** 2 / 0.25, rel=1e-9)
    assert report["residual"] is None  # unphysical branch, no consistency check


def test_estimate_from_scan_file(tmp_path, capsys):
    fringe_csv = tmp_path / "scan.csv"
    assert run(["fringes", "--epsilon", 0.8827, "--mu", 0.25,
                "--thetas", "pi/4", "--seed", 9, "-o", fringe_csv]) == 0
    capsys.readouterr()
    assert run(["estimate", "--scan", fringe_csv, "--theta", "pi/4",
                "--epsilon", 0.8827]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["std_error"] > 0
    assert abs(report["mu_hat"] - 0.25) < 0.05

    # bare two-column scans work without --theta
    bare = tmp_path / "bare.csv"
    phases = np.linspace(0, 2 * math.pi, 25)
    counts = 1000 * (1 + 0.8 * np.cos(phases)) / 2
    lines = ["phase_rad,counts"] + [
        f"{float(p)!r},{float(c)!r}" for p, c in zip(phases, counts)
    ]
    bare.write_text("\n".join(lines) + "\n")
    assert run(["estimate", "--scan", bare, "--epsilon", 1.0]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["visibility"] == pytest.approx(0.8, abs=1e-9)
    assert report["mu_hat"] == pytest.approx(0.25, abs=1e-7)


def test_estimate_infeasible_exit_code(capsys):
    code = run(["estimate", "--visibility", 0.9, "--epsilon", 0.63])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False
    assert "reason" in report


def test_compare_output(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--n-values", "2,5,10", "--mu-values", "0,0.5,1",
                "-o", out]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("# schema=qinterro.compare/1\n# note:")
    rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
    # one bound row, n_pass and zeno per N, single_pass per mu
    assert len(rows) == 1 + 3 + 3 + 3
    assert rows[0].startswith("ev_bound,,")

    out_json = tmp_path / "cmp.json"
    assert run(["compare", "--format", "json", "-o", out_json]) == 0
    capsys.readouterr()
    payload = json.loads(out_json.read_text())
    assert "not directly comparable" in payload["footnote"]


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the bench\nepsilon=0.5\nseed=7\nthetas=pi/4\n")
    out_a = tmp_path / "a.csv"
    assert run(["fringes", "--config", cfg, "-o", out_a]) == 0
    assert "epsilon=0.5" in out_a.read_text() and "seed=7" in out_a.read_text()

    out_b = tmp_path / "b.csv"
    assert run(["fringes", "--config", cfg, "--epsilon", 0.8, "-o", out_b]) == 0
    text = out_b.read_text()
    assert "epsilon=0.8" in text and "seed=7" in text  # explicit flag wins
    capsys.readouterr()


def test_validation_exit_codes(tmp_path, capsys):
    assert run(["fringes", "--thetas", "junk", "-o", tmp_path / "x.csv"]) == 3
    assert run(["fringes", "--no-such-flag", "-o", tmp_path / "x.csv"]) == 3
    assert run(["sweep-mu", "-o", tmp_path / "x.csv"]) == 3  # no mu source given
    assert run(["estimate", "--visibility", 0.5]) == 3  # no epsilon route

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("epsilon 0.5\n")
    assert run(["fringes", "--config", bad_cfg, "-o", tmp_path / "x.csv"]) == 3

    bad_cal = tmp_path / "bad.csv"
    bad_cal.write_text("position_mm,transmittance\n0,0\nnope,0.3\n")
    assert run(["sweep-mu", "--calibration", bad_cal, "--positions", "0:1:3",
                "-o", tmp_path / "x.csv"]) == 3

    # non-finite angles and zero denominators; a nan theta used to merge
    # the rows of every angle into one scan
    scan = tmp_path / "scan.csv"
    assert run(["fringes", "--thetas", "pi/8,pi/4", "--mu", 0.4, "-o", scan]) == 0
    for theta in ("nan", "inf", "pi/0"):
        assert run(["estimate", "--scan", scan, "--theta", theta, "--epsilon", 1]) == 3
    capsys.readouterr()
    # the reason reaches stderr rather than argparse's "invalid ... value"
    assert run(["estimate", "--scan", scan, "--theta", "nan", "--epsilon", 1]) == 3
    assert "angle must be finite, got nan" in capsys.readouterr().err
    assert run(["fringes", "--mu", 0.4, "--delta", "inf", "-o", tmp_path / "x.csv"]) == 3
    assert "angle must be finite, got inf" in capsys.readouterr().err
    for thetas in ("inf", "pi/0", "pi/4,nan"):
        assert run(["fringes", "--thetas", thetas, "-o", tmp_path / "x.csv"]) == 3

    # noise settings outside their closed forms' domains
    capsys.readouterr()
    assert run(["sweep-mu", "--mu-grid", "0:1:3", "--lambda", 1, "-o", tmp_path / "x.csv"]) == 3
    assert "lambda_total must be in [0, 1), got 1.0" in capsys.readouterr().err
    assert run(["sweep-mu", "--mu-grid", "0:1:3", "--dphi2", 0.7, "-o", tmp_path / "x.csv"]) == 3
    assert "outside the small-jitter regime" in capsys.readouterr().err

    assert run(["compare", "--n-values", "2,x", "-o", tmp_path / "x.csv"]) == 3
    assert run(["compare", "--mu-values", "0,half", "-o", tmp_path / "x.csv"]) == 3

    # totals beyond numpy's int64 sampler
    assert run(["sweep-mu", "--mu-grid", "0:1:2", "--source", "coherent", "--nbar", 1e18,
                "--windows", 100, "-o", tmp_path / "x.csv"]) == 3
    assert run(["fringes", "--pairs", 2**40, "--windows", 2**30, "--thetas", "pi/4",
                "-o", tmp_path / "x.csv"]) == 3
    assert "int64" in capsys.readouterr().err


def test_values_that_start_with_a_minus(tmp_path, capsys):
    # "-3:9:101" and "-pi/4" are values, both as a separate token and after "="
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run(["fringes", "--phase-grid", "-3:9:101", "--thetas", "-pi/4,pi/4",
                "--mu", 0.4, "--delta", "-pi/4", "-o", spaced]) == 0
    assert run(["fringes", "--phase-grid=-3:9:101", "--thetas=-pi/4,pi/4",
                "--mu", 0.4, "--delta=-pi/4", "-o", joined]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    points, summary = read_fringe_sections(spaced)
    assert len(points) == 2 * 101 and len(summary) == 2
    assert float(points[0][0]) == -math.pi / 4 and float(points[0][1]) == -3.0
    capsys.readouterr()

    assert run(["estimate", "--scan", spaced, "--theta", "-pi/4", "--epsilon", 1]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    # a negative value now reaches its own check instead of "expected one argument"
    assert run(["sweep-mu", "--calibration", "data/calibration_synthetic_635nm.csv",
                "--positions", "-1:12:4", "-o", tmp_path / "x.csv"]) == 3
    assert "outside calibrated range" in capsys.readouterr().err
    assert run(["fringes", "--mu", 0.4, "--delta", "-x", "-o", tmp_path / "x.csv"]) == 3
    assert "expected one argument" in capsys.readouterr().err


def test_sweep_mu_warns_once_for_large_jitter(tmp_path):
    # with Python's default warning filters, one run prints the dphi2 warning once
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run(
        [sys.executable, "-m", "qinterro.cli", "sweep-mu", "--mu-grid", "0:1:5",
         "--dphi2", "0.45", "-o", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("UserWarning") == 1, done.stderr


def test_io_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope" / "cal.csv"
    assert run(["sweep-mu", "--calibration", missing, "--positions", "0:1:3",
                "-o", tmp_path / "x.csv"]) == 4
    assert run(["compare", "-o", tmp_path / "nodir" / "cmp.csv"]) == 4
    capsys.readouterr()
