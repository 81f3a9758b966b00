"""The contract of `estimate --scan` input: which rows are read, and how bad input fails."""
import math
import tempfile
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from qinterro import report
from qinterro.cli import main
from qinterro.exceptions import CliError, DomainError
from qinterro.report import (
    _BARE_HEADER,
    _FRINGES_COLUMNS,
    _SUMMARY_COLUMNS,
    _THETA_HEADER,
    _THETA_MATCH,
    _cells,
    _csv_section,
    _read_scan_csv,
)
from qinterro.sources import FringeScan

HEADER = "theta_rad,phase_rad,counts,expected_prob"
SUMMARY = "# schema=qinterro.fringes.summary/1\n" + ",".join(_SUMMARY_COLUMNS) + "\n"
Q = repr(math.pi / 4)


def write(tmp_path, text, newline="\n"):
    path = tmp_path / "scan.csv"
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("text, theta, want", [
    # bare file: extra cells are not read
    ("phase_rad,counts,extra\n0.0,10,x\n1.5,4,y\n", None, ([0.0, 1.5], [10.0, 4.0])),
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
    # a bare file has no theta to select, so --theta is refused rather than ignored
    ("phase_rad,counts,extra\n0.0,10,x\n1.5,4,y\n", "pi/4",
     "--theta cannot be used with a bare scan: "),
    # a used row that parses but that FringeScan refuses
    (f"{HEADER}\n{Q},nan,3,0\n", "pi/4", "phases must be finite, got nan in "),
    (f"{HEADER}\n{Q},1.0,1e400,0\n", "pi/4", "counts must be >= 0, got inf in "),
    ("phase_rad,counts\n1.0,-1\n", None, "counts must be >= 0, got -1.0 in "),
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
    monkeypatch.setattr(report, "float", counting_float, raising=False)
    scan = report._read_scan_csv(str(path), math.pi / 4)
    assert scan.phases.tolist() == [0.5, 1.5, 2.5, 3.5, 4.5]
    assert len(seen) == 4 + 2 * 5


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_scan_reader_holds_a_piece_and_one_line_at_most(tmp_path, monkeypatch, newline):
    # A file of lone-\r line ends has no \n to end a piece at, so it is read
    # as one piece; only \n and \r\n files are bounded by the piece size.
    piece_bytes = 4096
    rows = [(t, 0.001 * k, k, 0.25) for t in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)
            for k in range(2001)]
    text = _csv_section("qinterro.fringes/1", _FRINGES_COLUMNS, rows, "# config: x=1")
    text += _csv_section("qinterro.fringes.summary/1", _SUMMARY_COLUMNS,
                         [(math.pi / 4, 0.5, 0.1, 1.0, 0.0, 0.5, 0.5, 0.0, False)])
    path = write(tmp_path, text, newline)
    longest = max(map(len, path.read_bytes().splitlines(keepends=True)))
    pieces = []
    feed = report._ScanReader.feed

    def spy(reader, piece):
        pieces.append(piece)
        return feed(reader, piece)

    monkeypatch.setattr(report._ScanReader, "feed", spy)
    monkeypatch.setattr(report, "_PIECE_BYTES", piece_bytes)
    for theta in (0.0, math.pi / 4):
        pieces.clear()
        scan = _read_scan_csv(str(path), theta)
        assert scan.counts.tolist() == [float(k) for k in range(2001)]
        assert len(pieces) > 10
        assert all(piece.endswith(b"\n") for piece in pieces)
        assert max(map(len, pieces)) <= piece_bytes + longest


def _reference_read_scan_csv(path: str, theta: Optional[float]) -> FringeScan:
    """The per-line reader that _read_scan_csv replaced, kept as its reference.

    It reads decoded text line by line. It differs only in the explicit
    UTF-8 encoding, which the reader under test assumes, and in naming the
    file when FringeScan refuses a phase or a count, as the reader does.
    """
    phases = []
    counts = []
    selected: dict[str, bool] = {}
    per_theta: Optional[bool] = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            head, _, rest = raw.partition(",")
            use = selected.get(head)
            if use is False:
                continue
            if use is None:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if per_theta is None:
                    cells = _cells(line)
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
                if not per_theta:
                    rest = raw
            try:
                if use is None and per_theta:
                    use = selected[head] = abs(float(head) - theta) <= _THETA_MATCH
                    if not use:
                        continue
                phase, count = rest.split(",", 2)[:2]
                phases.append(float(phase))
                counts.append(float(count))
            except ValueError:
                line = raw.strip()
                if tuple(c.lower() for c in _cells(line)) == _SUMMARY_COLUMNS:
                    break
                raise CliError(f"could not parse scan row {line!r}") from None
    if not phases and selected:
        found = list(dict.fromkeys(text.strip() for text in selected))
        listed = ", ".join(found[:8]) + (f", ... ({len(found)} in all)" if len(found) > 8 else "")
        raise CliError(
            f"no scan points with theta_rad within {_THETA_MATCH:g} of {theta!r} in {path}; "
            f"found theta_rad {listed}"
        )
    if not phases:
        raise CliError(f"no scan points found in {path}")
    try:
        return FringeScan(phases=np.array(phases), counts=np.array(counts))
    except DomainError as exc:
        raise CliError(f"{exc} in {path}") from None


def _outcome(read, path, theta):
    try:
        scan = read(path, theta)
    except CliError as exc:
        return f"{type(exc).__name__}: {exc}"
    # repr tells nan from nan and -0.0 from 0.0
    return repr((scan.phases.tolist(), scan.counts.tolist()))


# theta texts, the selected pi/4 most often: one within 1e-9 of it, other
# angles (one a prefix of it), a spaced one and Unicode digits; then nan and junk
_THETAS = [Q, Q, Q, repr(math.pi / 4 + 5e-10), "0.78539", "0.0", " 0.0", "0.1", "\u0660.\u0661"]
_BAD_THETAS = ["nan", "junk"]
# cells that parse as text but not all as bytes: spaces, underscores,
# Unicode digits and whitespace, and a separator control character
_ODD_NUMBERS = [" 2 ", "1_0", "\u0663", "\u2003 4", "\x1c5", "+7"]
_BAD_CELLS = ["", "x", "\xe9", "nan", "-inf", "1e400", "-1"]
_number = st.one_of(
    st.floats(0.0, 1e9).map(repr), st.integers(0, 10**6).map(str), st.sampled_from(_ODD_NUMBERS)
)
_LINES = ["", "   ", "# note", "# a,b,c", " , ".join(c.upper() for c in _SUMMARY_COLUMNS)]
_BAD_LINES = [Q, ",1.0,2,0", ",".join(_SUMMARY_COLUMNS)]


def _body(clean: bool):
    """Runs of rows that share one theta text, with blank, comment and summary lines.

    A run's rows mostly have one width, which the reader parses by column;
    a clean body has only numbers in them and no line that fails to parse.
    """
    cell = _number if clean else st.one_of(*[_number] * 5, st.sampled_from(_BAD_CELLS))
    rows = st.one_of(
        st.integers(2 if clean else 0, 4).flatmap(
            lambda width: st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=8)
        ),
        st.lists(st.lists(cell, min_size=2 if clean else 0, max_size=5), min_size=1, max_size=8),
    )
    run = st.builds(
        lambda theta, rows: [",".join([theta, *cells]) for cells in rows],
        st.sampled_from(_THETAS if clean else _THETAS + _BAD_THETAS),
        rows,
    )
    line = st.sampled_from(_LINES if clean else _LINES + _BAD_LINES).map(lambda line: [line])
    return st.lists(st.one_of(run, run, run, line), max_size=12)


_header = st.sampled_from([
    *[",".join(_FRINGES_COLUMNS)] * 3, " THETA_RAD , phase_rad,counts", "phase_rad,counts",
    "phase_rad,counts,extra", "phase,counts",
])


def _fringes_example(*runs, newline="\n", piece_bytes=1 << 20):
    return example(
        preamble=[], header=",".join(_FRINGES_COLUMNS), body=list(runs), theta=math.pi / 4,
        newline=newline, final_newline=True, piece_bytes=piece_bytes,
    )


@settings(max_examples=300, deadline=None)
# (a theta text's first row is read on its own, and its run starts after it)
# rows of 4 and 2 commas fill 3 * 2 + 1 cells, but a newline falls in column 1
@_fringes_example([f"{Q},0,0,0", f"{Q},1,2,3,", f"{Q},5,6"])
# rows of 2 commas: the counts cell of the first holds the newline
@_fringes_example([f"{Q},0,0", f"{Q},1,", f"{Q},2,3"])
# a theta text that is a prefix of the next run's text ends its run there
@_fringes_example(["0.78539,1,2,0", "0.78539,1,2,0"], [f"{Q},1,2,0", f"{Q},3,4,0"])
# a \r\n split across two pieces
@_fringes_example([f"{Q},1,2,0", f"{Q},3,4,0"], newline="\r\n", piece_bytes=1)
# interleaved angles, whose selected rows go down the per-line path: cells
# that only a text parse reads (Arabic-Indic digits, no-break space padding)
@_fringes_example([f"{Q},\u0661.5,\u0662,0"], ["0.0,1,2,0"], [f"{Q},\xa03\xa0,\xa04,0"],
                  ["0.1,x,y"], [f"{Q},5,\u0666\u0667"])
# and a cell that a text parse refuses too: digits split by a no-break space
@_fringes_example([f"{Q},\u0661,\u0662,0"], ["0.0,1,2,0"], [f"{Q},\u0661\xa0\u0662,3,0"],
                  ["0.0,1,2,0"])
@given(
    preamble=st.lists(st.sampled_from(["", "# schema=qinterro.fringes/1", "  "]), max_size=2),
    header=_header,
    body=st.booleans().flatmap(_body),
    theta=st.sampled_from([math.pi / 4, math.pi / 4, math.pi / 4, 0.0, 0.1, None]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
    piece_bytes=st.sampled_from([1, 2, 3, 7, 37, 1 << 20]),
)
def test_scan_reader_matches_the_per_line_reference(
    preamble, header, body, theta, newline, final_newline, piece_bytes
):
    # a bare file takes no --theta, which the reference ignored and the reader refuses
    if header.startswith("phase_rad"):
        theta = None
    lines = [*preamble, header, *(line for run in body for line in run)]
    text = newline.join(lines) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scan.csv")
        Path(path).write_bytes(text.encode())
        want = _outcome(_reference_read_scan_csv, path, theta)
        # tiny pieces make runs and line ends cross piece boundaries
        with mock.patch.object(report, "_PIECE_BYTES", piece_bytes):
            assert _outcome(_read_scan_csv, path, theta) == want
