import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinterro.analysis import visibility_no_absorber
from qinterro.cli import (
    MAX_GRID_POINTS,
    build_parser,
    main,
    parse_angle,
    parse_angle_list,
    parse_grid,
)
from qinterro.exceptions import DomainError
from qinterro.report import _SUMMARY_COLUMNS, _csv_section, _fmt, _read_scan_csv


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


def read_record(path):
    """The run record: the JSON on a CSV report's # config: line."""
    line = next(line for line in path.read_text().splitlines() if line.startswith("# config: "))
    return json.loads(line.removeprefix("# config: "))


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
    assert parse_grid(f"0:1:{MAX_GRID_POINTS}").size == MAX_GRID_POINTS
    with pytest.raises(DomainError, match=f"more than {MAX_GRID_POINTS} points"):
        parse_grid(f"0:1:{MAX_GRID_POINTS + 1}")


def test_a_huge_grid_count_is_refused_before_it_is_allocated(tmp_path, capsys):
    # 10**13 float64 points would take 72.8 TiB
    out = tmp_path / "out.csv"
    cal = Path(__file__).resolve().parents[1] / "data" / "calibration_synthetic_635nm.csv"
    for args, spec in [
        (["fringes", "--phase-grid", "0:1:10000000000000"], "0:1:10000000000000"),
        (["sweep-mu", "--mu-grid", "0:1:10000000000000"], "0:1:10000000000000"),
        (["sweep-mu", "--calibration", cal, "--positions", "0:12:10000000000000"],
         "0:12:10000000000000"),
    ]:
        assert run(args + ["-o", out]) == 3
        assert capsys.readouterr().err == (
            f"error: grid {spec!r} has more than {MAX_GRID_POINTS} points\n"
        )
        assert not out.exists()


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


def test_fringes_two_arm_object(tmp_path, capsys):
    out = tmp_path / "two.csv"
    eps, gamma, mu1, mu2 = 0.9, 0.8, 0.5, 0.7
    assert run(["fringes", "--epsilon", eps, "--gamma", gamma, "--mu1", mu1, "--mu2", mu2,
                "--thetas", "pi/4", "--seed", 2, "-o", out]) == 0
    capsys.readouterr()
    points, _ = read_fringe_sections(out)
    assert len(points) == 25
    for cells in points:
        phase, prob = float(cells[1]), float(cells[3])
        want = (mu1 + mu2 + 2 * eps * gamma * math.sqrt(mu1 * mu2) * math.cos(phase)) / 4
        assert abs(prob - want) <= 1e-12
    record = read_record(out)
    assert (record["mu1"], record["mu2"], record["delta"]) == (0.5, 0.7, 0.0)
    assert "mu" not in record


def test_config_line_records_the_run_on_one_line(tmp_path, capsys):
    out = tmp_path / "fringes.csv"
    assert run(["fringes", "--thetas", " pi/4 ", "--phase-grid", "0:2pi\n:9",
                "--mu", 0.4, "--delta", "pi / 3", "-o", out]) == 0
    lines = out.read_text().splitlines()
    # sorted-key JSON: each value as given, and its escapes keep the newline on the line
    assert lines[1] == (
        '# config: {"background": 0.0, "delta": 1.0471975511965976, "epsilon": 1.0, '
        '"gamma": 1.0, "mu": 0.4, "pairs": 800, "phase_grid": "0:2pi\\n:9", "seed": 42, '
        '"source": "heralded", "thetas": " pi/4 ", "windows": 25}'
    )
    record = json.loads(lines[1].removeprefix("# config: "))
    assert lines[1] == "# config: " + json.dumps(record, sort_keys=True)
    assert record["phase_grid"] == "0:2pi\n:9" and record["thetas"] == " pi/4 "
    assert lines[2] == ",".join(("theta_rad", "phase_rad", "counts", "expected_prob"))
    capsys.readouterr()
    assert run(["estimate", "--scan", out, "--theta", "pi/4", "--epsilon", 1]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 9

    # --background changes the Monte Carlo column, so sweep-mu records it;
    # --format sets the report's bytes, so it is recorded too
    sweep = tmp_path / "sweep"
    assert run(["sweep-mu", "--mu-grid", "0:1:3", "--background", 2, "-o", sweep]) == 0
    record = read_record(sweep)
    assert (record["background"], record["mu_grid"], record["format"]) == (2.0, "0:1:3", "csv")
    assert run(["sweep-mu", "--mu-grid", "0:1:3", "--background", 2, "--format", "json",
                "-o", sweep]) == 0
    # a JSON report's config is the same record
    config = json.loads(sweep.read_text())["config"]
    assert config == {**record, "format": "json"}
    assert "calibration" not in config and "positions" not in config
    # so are the mu values, from a grid or from a table at given positions
    table = "data/calibration_synthetic_635nm.csv"
    assert run(["sweep-mu", "--calibration", table, "--positions", "0:12:4", "-o", sweep]) == 0
    record = read_record(sweep)
    assert (record["calibration"], record["positions"]) == (table, "0:12:4")
    assert "mu_grid" not in record
    # a path keeps its whitespace as given, on the line and in the JSON config
    spaced = tmp_path / "sp dir" / "my table.csv"
    spaced.parent.mkdir()
    shutil.copyfile(table, spaced)
    assert run(["sweep-mu", "--calibration", spaced, "--positions", "0:12:3", "-o", sweep]) == 0
    assert read_record(sweep)["calibration"] == str(spaced)
    assert f'"calibration": "{tmp_path}/sp dir/my table.csv"' in sweep.read_text()
    assert run(["sweep-mu", "--calibration", spaced, "--positions", "0:12:3",
                "--format", "json", "-o", sweep]) == 0
    assert json.loads(sweep.read_text())["config"]["calibration"] == str(spaced)
    capsys.readouterr()


def test_every_report_replays_from_its_run_record(tmp_path, capsys):
    table = tmp_path / "sp dir" / "my table.csv"
    table.parent.mkdir()
    shutil.copyfile("data/calibration_synthetic_635nm.csv", table)
    scan = tmp_path / "scan.csv"
    assert run(["fringes", "--thetas", "pi/8,pi/4", "--mu", 0.3, "-o", scan]) == 0
    cases = [
        ["fringes"],
        ["fringes", "--mu", 0.4, "--delta", "pi / 3"],
        ["fringes", "--mu1", 0.5, "--mu2", 0.8],
        ["fringes", "--source", "coherent", "--nbar", 50, "--gamma", 0.8, "--background", 3],
        ["fringes", "--thetas", " pi/4 ", "--phase-grid", "0:2pi\n:9"],
        ["sweep-mu", "--mu-grid", "0:1:5", "--lambda", 0.05, "--dphi2", 0.1, "--epsilon", 0.7],
        ["sweep-mu", "--calibration", table, "--positions", "0:12:4"],
        ["sweep-mu", "--mu-grid", "0:1:3", "--source", "coherent", "--format", "json"],
        ["compare", "--epsilon", 0.5],
        ["compare", "--epsilon", 0.5, "--format", "json"],
        ["estimate", "--scan", scan, "--theta", "pi/4", "--epsilon", 0.9],
        ["estimate", "--visibility", 0.5261724030305734, "--std-error", 0.01,
         "--equal-arm-visibility", 0.63, "--mu1", 0.861, "--branch", "high"],
    ]
    out, again = tmp_path / "out", tmp_path / "again"
    for argv in cases:
        assert run([*argv, "-o", out]) == 0, argv
        # the report itself is the config file
        assert run([argv[0], "--config", out, "-o", again]) == 0, (argv, capsys.readouterr().err)
        assert again.read_bytes() == out.read_bytes(), argv
    capsys.readouterr()


def test_a_report_without_a_readable_record_is_refused(tmp_path, capsys):
    report = tmp_path / "fringes.csv"
    assert run(["fringes", "--thetas", "pi/4", "--phase-grid", "0:2pi:5", "-o", report]) == 0
    text = report.read_text()
    head, record_line, rest = text.split("\n", 2)
    assert record_line.startswith('# config: {"background": 0.0, ')
    bad, out = tmp_path / "bad", tmp_path / "again.csv"
    no_record = f"{bad} is a report with no readable run record"
    nested = f"{bad}: a config file cannot read another one"
    for bad_text, reason in (
        (f"{head}\n{rest}", no_record),  # the # config: line removed
        (text.replace('"seed": 42', '"seed" 42'), no_record),  # malformed JSON
        (f'{head}\n# config: ["seed", 42]\n{rest}', no_record),  # not an object
        (text.replace('"seed": 42', '"config": "other.cfg", "seed": 42'), nested),
        ('{\n  "rows": [],\n  "schema": "qinterro.compare/1"\n}\n', no_record),
        ('{\n  "config": {"config": "other.cfg"},\n  "rows": []\n}\n', nested),
        ('{\n  "config": "epsilon=0.5"\n}\n', no_record),
        ('{"config": ' + "[" * 100000 + "]" * 100000 + "}", no_record),  # too deep to parse
    ):
        bad.write_text(bad_text)
        assert run(["fringes", "--config", bad, "-o", out]) == 3, bad_text
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()


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
    assert "points" not in report and "used_fallback" not in report  # --scan only
    assert out.read_bytes() == (captured.rstrip("\n") + "\n").encode()


def test_estimate_two_arm_and_branches(capsys):
    v = 0.5261724030305734
    assert run(["estimate", "--visibility", v, "--equal-arm-visibility", 0.63,
                "--mu1", 0.861]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "two_arm"
    assert report["branch"] == "low"
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
    assert report["points"] == 25 and report["used_fallback"] is False

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
    assert report["points"] == 25 and report["used_fallback"] is False

    # a square wave is no sinusoid: the raw extrema are used, and the report says so
    bare.write_text("phase_rad,counts\n" + "".join(
        f"{k * math.pi / 4!r},{1000 * (k % 2)}\n" for k in range(8)))
    assert run(["estimate", "--scan", bare, "--epsilon", 1.0]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["points"] == 8 and report["used_fallback"] is True


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
    record = read_record(out_a)
    assert (record["epsilon"], record["seed"], record["thetas"]) == (0.5, 7, "pi/4")

    out_b = tmp_path / "b.csv"
    assert run(["fringes", "--config", cfg, "--epsilon", 0.8, "-o", out_b]) == 0
    record = read_record(out_b)
    assert (record["epsilon"], record["seed"]) == (0.8, 7)  # explicit flag wins

    out_c = tmp_path / "c.csv"
    assert run(["fringes", f"--config={cfg}", "-o", out_c]) == 0
    assert out_c.read_bytes() == out_a.read_bytes()
    capsys.readouterr()
    # --config as the last token has no path to read
    assert run(["fringes", "-o", out_c, "--config"]) == 3
    assert "error: --config needs a path" in capsys.readouterr().err
    # an abbreviation that argparse takes for --config reads the file too
    assert run(["fringes", "--conf", cfg, "-o", out_c]) == 0
    assert out_c.read_bytes() == out_a.read_bytes()
    capsys.readouterr()
    # a run reads one config file: a second one, or one named inside a config
    # file, would be dropped without a word, so it is refused
    other, nested = tmp_path / "other.cfg", tmp_path / "nested.cfg"
    other.write_text("seed=9\n")
    nested.write_text("epsilon=0.5\nconfig=other.cfg\n")
    out_d = tmp_path / "d.csv"
    for argv, reason in (
        (["--config", cfg, "--config", other], "--config is given more than once"),
        ([f"--config={cfg}", "--conf", other], "--config is given more than once"),
        (["--config", nested], f"{nested}:2: a config file cannot read another one"),
    ):
        assert run(["fringes", *argv, "--thetas", "pi/4", "-o", out_d]) == 3
        assert f"error: {reason}" in capsys.readouterr().err
        assert not out_d.exists()


def test_validation_exit_codes(tmp_path, capsys):
    assert run(["fringes", "--thetas", "junk", "-o", tmp_path / "x.csv"]) == 3
    assert run(["fringes", "--no-such-flag", "-o", tmp_path / "x.csv"]) == 3
    assert run(["sweep-mu", "-o", tmp_path / "x.csv"]) == 3  # no mu source given
    assert run(["estimate", "--visibility", 0.5]) == 3  # no epsilon route
    capsys.readouterr()
    for argv, reason in (
        (["fringes", "--thetas", ","], "empty angle list ','"),
        (["fringes", "--mu2", 0.5], "--mu2 requires --mu1"),
        (["sweep-mu", "--calibration", "data/calibration_synthetic_635nm.csv"],
         "--calibration requires --positions start:stop:count"),
        (["sweep-mu", "--mu-grid", "0:1.5:3"], "mu grid values must lie in [0, 1]"),
    ):
        assert run([*argv, "-o", tmp_path / "x.csv"]) == 3
        assert f"error: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
    assert run(["estimate", "--epsilon", 1]) == 3
    assert "error: provide --visibility or --scan" in capsys.readouterr().err

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
    # a scan's standard error comes from its fit; a given one is refused, not dropped
    assert run(["estimate", "--scan", scan, "--theta", "pi/4", "--epsilon", 1,
                "--std-error", 5, "-o", tmp_path / "e.json"]) == 3
    assert "the fit supplies the standard error" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()
    # other flags that would be dropped without a word are refused the same way
    for flags, reason in (
        (["--scan", scan, "--theta", "pi/4", "--epsilon", 1, "--visibility", 0.3],
         "--visibility cannot be used with --scan"),
        (["--visibility", 0.5, "--epsilon", 1, "--equal-arm-visibility", 0.6],
         "--equal-arm-visibility cannot be used with --epsilon"),
        (["--visibility", 0.5, "--epsilon", 1, "--theta", "pi/4"], "--theta needs --scan"),
    ):
        assert run(["estimate", *flags, "-o", tmp_path / "e.json"]) == 3
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()
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

    # input that is not UTF-8 is named and refused, not a UnicodeDecodeError traceback
    capsys.readouterr()
    latin, q = tmp_path / "latin1.txt", repr(math.pi / 4)
    for text, argv in (
        (f"theta_rad,phase_rad,counts\n{q},1.0,2,0\n{q},\xff,2,0\n",
         ["estimate", "--scan", latin, "--theta", "pi/4", "--epsilon", 1, "-o", tmp_path / "e.json"]),
        ("position_mm,transmittance\n0,1\n12,0\n# \xb5m\n",
         ["sweep-mu", "--calibration", latin, "--positions", "0:1:3", "-o", tmp_path / "e.json"]),
        ("epsilon=0.5\n# \xe9\n", ["compare", "--config", latin, "-o", tmp_path / "e.json"]),
    ):
        latin.write_bytes(text.encode("latin-1"))
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {latin} is not UTF-8 text: ")
        assert "Traceback" not in err
        assert not (tmp_path / "e.json").exists()

    # totals beyond numpy's int64 sampler
    assert run(["sweep-mu", "--mu-grid", "0:1:2", "--source", "coherent", "--nbar", 1e18,
                "--windows", 100, "-o", tmp_path / "x.csv"]) == 3
    assert run(["fringes", "--pairs", 2**40, "--windows", 2**30, "--thetas", "pi/4",
                "-o", tmp_path / "x.csv"]) == 3
    assert "int64" in capsys.readouterr().err

    # counts whose squares overflow a float (or underflow to 0) are refused
    # with the file's name, not an ArithmeticError traceback or a RuntimeWarning
    phases = np.linspace(0.0, 2 * math.pi, 25)
    huge = tmp_path / "huge.csv"
    wave = 1 + 0.5 * np.cos(phases)
    for counts in ([1e160] * 25, (7e153 * wave).tolist(), (1e300 * wave).tolist(), [1e-200] * 25):
        rows = "".join(f"{p!r},{n!r}\n" for p, n in zip(phases.tolist(), counts))
        huge.write_text("phase_rad,counts\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["estimate", "--scan", huge, "--epsilon", 1, "-o", tmp_path / "e.json"]) == 3
        assert capsys.readouterr().err == f"error: counts too large or too small to fit in {huge}\n"
        assert not (tmp_path / "e.json").exists()

    # a standard error must be a finite non-negative number; nan and inf
    # would reach the JSON report as NaN and Infinity, which JSON forbids
    for std_error in ("-1", "nan", "inf"):
        assert run(["estimate", "--visibility", 0.5, "--epsilon", 1,
                    "--std-error", std_error, "-o", tmp_path / "e.json"]) == 3
        assert "std_error must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()


def test_dropped_absorber_flags_and_a_missing_purity_are_refused(tmp_path, capsys):
    out = tmp_path / "x.csv"
    both = "--mu cannot be combined with --mu1/--mu2"
    no_object = "--delta needs an object: give --mu, or --mu1 with --mu2"
    cfg = tmp_path / "delta.cfg"
    cfg.write_text("delta=pi/3\n")
    # a source flag of the other source, on the command line or in a --config file
    pairs = "--pairs cannot be used with --source coherent: it sets a heralded source"
    nbar = "--nbar cannot be used with --source heralded: it sets a coherent source"
    pairs_cfg, nbar_cfg = tmp_path / "pairs.cfg", tmp_path / "nbar.cfg"
    pairs_cfg.write_text("source=coherent\npairs=5\n")
    nbar_cfg.write_text("nbar=50\n")
    table = "data/calibration_synthetic_635nm.csv"
    for argv, reason in (
        (["fringes", "--mu1", 0.3], "--mu1 requires --mu2"),
        (["fringes", "--mu", 0.3, "--mu1", 0.5, "--mu2", 0.7], both),
        (["fringes", "--mu", 0.3, "--mu1", 0.5], both),
        (["fringes", "--mu", 0.3, "--mu2", 0.5], both),
        (["fringes", "--delta", "junk"], no_object),
        (["fringes", "--config", cfg], no_object),
        (["fringes", "--source", "coherent", "--pairs", 5, "--thetas", "pi/4"], pairs),
        (["fringes", "--nbar", 50], nbar),
        (["fringes", "--config", pairs_cfg], pairs),
        (["sweep-mu", "--mu-grid", "0:1:3", "--source", "coherent", "--pairs", 5], pairs),
        (["sweep-mu", "--mu-grid", "0:1:3", "--config", nbar_cfg], nbar),
        # one source of mu values; the older messages keep their precedence
        (["sweep-mu", "--mu-grid", "0:1:3", "--calibration", table, "--positions", "0:12:3"],
         "--mu-grid cannot be used with --calibration: both set the mu values"),
        (["sweep-mu", "--mu-grid", "0:1:3", "--positions", "0:12:3"],
         "--positions needs --calibration: it selects points of a calibration table"),
        (["sweep-mu", "--mu-grid", "0:1:3", "--calibration", table],
         "--calibration requires --positions start:stop:count"),
        (["sweep-mu", "--positions", "0:12:3"],
         "provide --mu-grid or --calibration with --positions"),
    ):
        assert run([*argv, "-o", out]) == 3
        assert f"error: {reason}" in capsys.readouterr().err
        assert not out.exists()
    # estimate refuses a missing purity before it opens the scan
    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,scan\n")
    for scan in (tmp_path / "missing.csv", junk):
        assert run(["estimate", "--scan", scan, "--theta", "pi/4"]) == 3
        assert "error: provide --epsilon or --equal-arm-visibility" in capsys.readouterr().err
    # the one-arm estimate has one root, so --branch would be dropped
    assert run(["estimate", "--visibility", 0.8, "--epsilon", 1, "--branch", "high",
                "-o", tmp_path / "e.json"]) == 3
    assert "error: --branch needs --mu1" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon=0.5\nseed=7\nthetas=pi/4\n")
    out = tmp_path / "out"
    calls = [
        ["fringes", "--mu", 0.4, "--thetas", "pi/4", "-o", out],
        ["fringes", "--thetas", "pi/4", "-o", out],  # no absorber flag
        ["fringes", "--config", cfg, "-o", out],
        ["fringes", "-o", out],  # the config's values must not linger
        ["fringes", "--no-such-flag", "-o", out],
        ["fringes", "--thetas", "junk", "-o", out],
        ["fringes", "--thetas", "0,pi/4", "--epsilon", 0.8, "-o", out],
        ["sweep-mu", "--mu-grid", "0:1:3", "--format", "json", "-o", out],
        ["sweep-mu", "--mu-grid", "0:1:3", "-o", out],  # CSV by default
    ]

    def outcome(args):
        code = run(args)
        std = capsys.readouterr()
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, std.out, std.err, data

    build_parser.cache_clear()
    parser = build_parser()
    shared = [outcome(args) for args in calls]
    assert build_parser() is parser
    assert [code for code, *_ in shared] == [0, 0, 0, 0, 3, 3, 0, 0, 0]
    for args, got in zip(calls, shared):
        build_parser.cache_clear()
        assert outcome(args) == got, args
    assert build_parser() is build_parser()


def test_argparse_outcomes_are_the_top_level_parsers(tmp_path, capsys):
    # main parses an argv that starts with a subcommand by that subcommand's
    # parser alone; the exit code and message must be as through the top level
    out = tmp_path / "out.csv"
    pinned = [
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from "),
        (["fringes", "--no-such-flag", "-o", out],
         "error: unrecognized arguments: --no-such-flag\n"),
        (["fringes"], "error: the following arguments are required: --output/-o\n"),
        (["fringes", "--source", "laser", "-o", out],
         "error: argument --source: invalid choice: 'laser' (choose from "),
    ]
    for args, err in pinned:
        argv = [str(a) for a in args]
        assert main(argv) == 3, args
        got = capsys.readouterr()
        assert got.out == "" and got.err.startswith(err), (args, got.err)
        # the choices are quoted or not as the running argparse formats them
        for name in ("fringes", "sweep-mu", "estimate", "compare") if args == ["bogus"] else ():
            assert name in got.err
        try:
            build_parser().parse_args(argv)
        except DomainError as exc:
            assert got.err == f"error: {exc}\n", args
        else:
            raise AssertionError(f"the top-level parser accepted {args}")
        assert not out.exists()

    with pytest.raises(SystemExit) as exc:
        main(["sweep-mu", "--help"])
    assert exc.value.code == 0
    got = capsys.readouterr()
    assert got.out.startswith("usage: qinterro sweep-mu") and got.err == ""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep-mu", "--help"])
    assert capsys.readouterr().out == got.out


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


def jitter_warning(dphi2):
    """The stderr line of the dphi2 warning: stable, with no path or source line."""
    return (f"warning: dphi2 = {dphi2} exceeds 0.2; the second-order jitter expansion "
            "is inaccurate there\n")


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
    assert done.stderr == jitter_warning(0.45)


def test_each_main_call_warns_once_for_large_jitter(tmp_path, capsys):
    # each main() call prints its own dphi2 warning once, and the warning
    # itself does not escape main
    argv = ["sweep-mu", "--mu-grid", "0:1:3", "--dphi2", 0.3, "-o", tmp_path / "sweep.csv"]
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        for _ in (1, 2):
            assert run(argv) == 0
            assert capsys.readouterr().err == jitter_warning(0.3)
    assert shown == []


def test_sweep_mu_names_negative_jitter_values(tmp_path, capsys):
    # the jitter law assumes epsilon = 1; at epsilon 0 it goes below 0 for
    # mu > 1 - dphi2, and those values are written unchanged but named
    out = tmp_path / "sweep.csv"
    assert run(["sweep-mu", "--epsilon", 0, "--dphi2", 0.45, "--mu-grid", "0:1:11",
                "-o", out]) == 0
    err = capsys.readouterr().err
    assert err.count(jitter_warning(0.45)) == 1
    assert err.count("i_prob_jitter is below 0") == 1
    assert "at mu = 0.6, 0.7, 0.8, 0.9, 1;" in err
    last = out.read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 1.0 and last[4] == "-0.1125"


def test_sweep_mu_at_full_purity_has_no_negative_jitter(tmp_path, capsys):
    assert run(["sweep-mu", "--epsilon", 1, "--dphi2", 0.45, "--mu-grid", "0:1:11",
                "-o", tmp_path / "sweep.csv"]) == 0
    assert capsys.readouterr().err == jitter_warning(0.45)


def _reference_csv_section(schema, columns, rows, *comments):
    # the cell-by-cell writer that _csv_section must match byte for byte
    lines = [f"# schema={schema}", *comments, ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


_CELLS = (
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.booleans(),
    st.text(),
    st.none(),
)
# a column draws all its cells from one of these
_COLUMN = st.sampled_from(
    [*_CELLS, st.one_of(_CELLS[1], _CELLS[4]), st.one_of(*_CELLS)]
)


@st.composite
def _tables(draw):
    columns = draw(st.lists(_COLUMN, min_size=1, max_size=6))
    n_rows = draw(st.integers(0, 12))
    return [tuple(draw(cell) for cell in columns) for _ in range(n_rows)]


@settings(max_examples=300, deadline=None)
@given(rows=_tables())
@example(rows=[(0.25,) + (None,) * (len(_SUMMARY_COLUMNS) - 1)])  # opaque-theta summary
@example(rows=[(1, True), (0, 2), (False, 3)])  # int and bool in one column
@example(rows=[("0.5", 0.25, 3), ("x", -0.0, 0), ("", 1e300, -7)])  # str beside float and int
@example(rows=[])
def test_csv_section_matches_the_cell_by_cell_writer(rows):
    want = _reference_csv_section("s/1", ("a", "b"), rows, "# note: x")
    assert _csv_section("s/1", ("a", "b"), iter(rows), "# note: x") == want


def test_source_that_emits_no_photons(tmp_path, capsys):
    # background alone carries no fringe and offers nothing to normalize by
    out = tmp_path / "x.csv"
    for source in (["--source", "coherent", "--nbar", 0], ["--pairs", 0],
                   ["--pairs", 0, "--background", 2]):
        for command in (["fringes"], ["sweep-mu", "--mu-grid", "0:1:3"]):
            assert run(command + source + ["-o", out]) == 3
            assert "error: source emits no photons; cannot normalize" in capsys.readouterr().err
            assert not out.exists()


def test_io_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope" / "cal.csv"
    assert run(["sweep-mu", "--calibration", missing, "--positions", "0:1:3",
                "-o", tmp_path / "x.csv"]) == 4
    assert run(["compare", "-o", tmp_path / "nodir" / "cmp.csv"]) == 4
    capsys.readouterr()
