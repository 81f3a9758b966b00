"""The contract of `estimate --scan` input: which rows are read, and how bad input fails."""
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinterro import cli
from qinterro.cli import (
    _FRINGES_COLUMNS,
    _SUMMARY_COLUMNS,
    _csv_section,
    _read_scan_csv,
    main,
)

HEADER = "theta_rad,phase_rad,counts,expected_prob"
SUMMARY = "# schema=qinterro.fringes.summary/1\n" + ",".join(_SUMMARY_COLUMNS) + "\n"
Q = repr(math.pi / 4)


def write(tmp_path, text, newline="\n"):
    path = tmp_path / "scan.csv"
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("text, theta, want", [
    # bare file: --theta is ignored and extra cells are not read
    ("phase_rad,counts,extra\n0.0,10,x\n1.5,4,y\n", math.pi / 4, ([0.0, 1.5], [10.0, 4.0])),
    ("PHASE_RAD , Counts\n 0.0 , 10 \n", None, ([0.0], [10.0])),
    # blank lines and comments in the middle of the body
    (f"# c\n{HEADER}\n\n0.0,0.0,1,0.5\n# mid\n   \n{Q},1.0,2,0.5\n\n{Q},2.0,3,0.5\n",
     math.pi / 4, ([1.0, 2.0], [2.0, 3.0])),
    # angles interleaved rather than in blocks, and spaces around cells
    (f"{HEADER}\n{Q},0.5,7,0\n0.1,9,9,0\n {Q} , 1.5 , 8 ,0\n0.1,9,9,0\n{Q},2.5,9\n",
     math.pi / 4, ([0.5, 1.5, 2.5], [7.0, 8.0, 9.0])),
    # another angle's phase and count cells are never parsed
    (f"{HEADER}\n0.1,junk,junk\n0.1\n{Q},1.0,2,0\n0.2,,\n", math.pi / 4, ([1.0], [2.0])),
    # theta matches within 1e-9
    (f"{HEADER}\n0.7853981638,1.0,2,0\n0.78539817,3.0,4,0\n", math.pi / 4, ([1.0], [2.0])),
    # reading stops at the summary header, in any case and with spaces around cells
    (f"{HEADER}\n{Q},1.0,2,0\n{SUMMARY}{Q},0.5,0.1,1,1,1,1,0,false\n{Q},junk\n",
     math.pi / 4, ([1.0], [2.0])),
    (f"{HEADER}\n{Q},1.0,2,0\n" + " , ".join(c.upper() for c in _SUMMARY_COLUMNS)
     + f"\n{Q},junk\n", math.pi / 4, ([1.0], [2.0])),
    ("phase_rad,counts\n1.0,2\n" + ",".join(_SUMMARY_COLUMNS) + "\n0.1,0.5\n",
     None, ([1.0], [2.0])),
])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_scan_reader_selects_rows(tmp_path, text, theta, want, newline):
    scan = _read_scan_csv(str(write(tmp_path, text, newline)), theta)
    assert (scan.phases.tolist(), scan.counts.tolist()) == want


@pytest.mark.parametrize("text, theta, message", [
    ("phase,counts\n0,1\n", None, "unrecognized scan header 'phase,counts'"),
    ("theta_rad,counts\n0,1\n", None, "unrecognized scan header"),
    (f"{HEADER}\n{Q},1.0,2,0\n", None, "scan file has per-theta rows; select one with --theta"),
    (f"{HEADER}\n{Q},1.0,2,0\n{Q},x,2,0\n", "pi/4", f"could not parse scan row '{Q},x,2,0'"),
    (f"{HEADER}\n{Q}, 1.0 ,2 x,0\n", "pi/4", f"could not parse scan row '{Q}, 1.0 ,2 x,0'"),
    (f"{HEADER}\n{Q},1.0,2,0\nzero,1.0,2,0\n", "pi/4", "could not parse scan row 'zero,1.0,2,0'"),
    (f"{HEADER}\n{Q},1.0\n", "pi/4", f"could not parse scan row '{Q},1.0'"),
    (f"{HEADER}\n{Q}\n", "pi/4", f"could not parse scan row '{Q}'"),
    # the first bad row in file order is the one reported
    (f"{HEADER}\n{Q},x,2,0\nzero,1,2,0\n", "pi/4", f"could not parse scan row '{Q},x,2,0'"),
    ("phase_rad,counts\n1.0\n", None, "could not parse scan row '1.0'"),
    (f"{HEADER}\n" + ",".join(_SUMMARY_COLUMNS) + "\n", "pi/4", "no scan points found in"),
    ("# only a comment\n", None, "no scan points found in"),
])
def test_scan_reader_errors(tmp_path, capsys, text, theta, message):
    path = write(tmp_path, text)
    args = ["estimate", "--scan", str(path), "--epsilon", "1"]
    assert main(args + (["--theta", theta] if theta else [])) == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_scan_reader_names_the_angles_when_none_matches(tmp_path, capsys):
    path = write(tmp_path, f"{HEADER}\n0.0,1,2,0\n{Q},1,2,0\n 0.0 ,1,2,0\nnan,1,2,0\n")
    assert main(["estimate", "--scan", str(path), "--theta", "pi/5", "--epsilon", "1"]) == 3
    err = capsys.readouterr().err
    assert f"no scan points with theta_rad within 1e-09 of {math.pi / 5!r} in {path}" in err
    assert f"found theta_rad 0.0, {Q}, nan\n" in err

    many = "".join(f"{k}.0,1,2,0\n" for k in range(20))
    path = write(tmp_path, f"{HEADER}\n{many}")
    assert main(["estimate", "--scan", str(path), "--theta", "pi/5", "--epsilon", "1"]) == 3
    assert "found theta_rad 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, ... (20 in all)\n" in (
        capsys.readouterr().err
    )


_angle = st.floats(-10.0, 10.0, allow_nan=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    thetas=st.lists(_angle, min_size=1, max_size=5, unique=True).filter(
        lambda ts: all(abs(a - b) > 1e-9 for i, a in enumerate(ts) for b in ts[:i])
    ),
    rows=st.lists(
        st.tuples(
            st.integers(0, 4),
            _finite,
            st.one_of(st.integers(0, 2**53), st.floats(0.0, 1e300)),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_fringes_section_round_trips_through_the_reader(thetas, rows):
    rows = [(thetas[k % len(thetas)], phase, n, p) for k, phase, n, p in rows]
    text = _csv_section("qinterro.fringes/1", _FRINGES_COLUMNS, rows, "# config: x=1")
    text += _csv_section("qinterro.fringes.summary/1", _SUMMARY_COLUMNS,
                         [(t, 0.5, 0.1, 1.0, 0.0, 0.5, 0.5, 0.0, False) for t in thetas])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fringes.csv"
        path.write_text(text)
        for theta in {row[0] for row in rows}:
            scan = _read_scan_csv(str(path), theta)
            assert scan.phases.tolist() == [r[1] for r in rows if r[0] == theta]
            assert scan.counts.tolist() == [float(r[2]) for r in rows if r[0] == theta]


def test_scan_reader_parses_each_theta_text_once(tmp_path, monkeypatch):
    # float() sees each distinct theta text once, then only the selected rows' cells
    seen = []

    def counting_float(text):
        seen.append(text)
        return float(text)

    body = "".join(f"{t},{k}.5,{k},0\n" for k in range(5) for t in ("0.0", Q, " 0.0", "1.0"))
    path = write(tmp_path, f"{HEADER}\n{body}")
    monkeypatch.setattr(cli, "float", counting_float, raising=False)
    scan = cli._read_scan_csv(str(path), math.pi / 4)
    assert scan.phases.tolist() == [0.5, 1.5, 2.5, 3.5, 4.5]
    assert len(seen) == 4 + 2 * 5
