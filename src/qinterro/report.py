"""Report formats: the CSV and JSON writers and the scan-file reader.

fringes, sweep-mu and compare write their reports with _csv_section or
_json_report, and estimate writes its JSON with the same serializer.
estimate --scan reads a bare scan, or one theta of a fringes file, back
with _read_scan_csv, and --config reads a report's run record back with
_report_record.
"""
from __future__ import annotations

import json
import os
import re
from itertools import chain, takewhile
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .exceptions import CliError, DomainError, NotUtf8Error
from .sources import FringeScan

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
# A fringes row belongs to the selected theta when it lies this close to it.
_THETA_MATCH = 1e-9


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


_CONFIG_PREFIX = "# config: "


def _config_comment(record: dict) -> str:
    """The run-record line: the object a JSON report stores as config, as
    sorted-key JSON, which escapes control characters, so it is one line."""
    return _CONFIG_PREFIX + json.dumps(record, sort_keys=True)


def _report_record(first: str, lines: Iterator[str]) -> Optional[dict]:
    """The run record of a report whose first line is `first` and whose next
    lines `lines` yields, or None when it has none that reads as an object.

    A JSON report is parsed whole for its "config" object. A CSV report's
    record is the JSON on its "# config: " line, which lies among the
    report's leading # lines, so no line after them is read.
    """
    is_json = first.startswith("{")
    if is_json:
        text = "\n".join(chain((first,), lines))
    else:
        head = takewhile(lambda line: line.startswith("#"), lines)
        line = next((line for line in head if line.startswith(_CONFIG_PREFIX)), _CONFIG_PREFIX)
        text = line[len(_CONFIG_PREFIX):]
    try:
        record = json.loads(text)
        if is_json:
            record = record["config"]
    except (ValueError, KeyError, TypeError, RecursionError):  # the last: too deeply nested
        return None
    return record if isinstance(record, dict) else None


def _text_lines(path: str, fh: BinaryIO) -> Iterator[str]:
    """The lines of a binary file without their ends, each decoded only when
    it is reached; \\r\\n and a lone \\r end a line, as in text mode."""
    for raw in fh:
        try:
            text = _universal_newlines(raw).decode()
        except UnicodeDecodeError as exc:
            raise NotUtf8Error(path, exc) from None
        yield from text.removesuffix("\n").split("\n")


# A column whose cells all have one of these exact types skips _fmt's checks;
# bool, numpy scalars and None are not among them.
_PLAIN_FORMAT = {float: repr, int: str, str: str}


def _format_column(cells: tuple) -> Iterator[str]:
    """The cells of one column as _fmt writes them, formatted column-wise."""
    kinds = set(map(type, cells))
    fmt = _PLAIN_FORMAT.get(kinds.pop(), _fmt) if len(kinds) == 1 else _fmt
    return map(fmt, cells)


def _csv_section(schema: str, columns: Sequence[str], rows, *comments: str) -> str:
    """One CSV section: schema tag, comment lines, header, then the rows.

    Each row's cell i reads as _fmt(row[i]); the rows are formatted one
    column at a time, and rows must all have the same length.
    """
    lines = [f"# schema={schema}", *comments, ",".join(columns)]
    lines.extend(map(",".join, zip(*map(_format_column, zip(*rows)))))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    """JSON text with sorted keys, a two-space indent and a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _json_report(schema: str, columns: Sequence[str], rows, **fields) -> str:
    """A JSON report: schema tag, extra top-level fields, rows as objects."""
    records = [dict(zip(columns, row)) for row in rows]
    payload = {"schema": schema, "rows": records, **fields}
    return _json_text(payload)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cells(line: str) -> list[str]:
    return [c.strip() for c in line.split(",")]


# The scan reader holds about this many bytes of a file at a time, plus one line.
_PIECE_BYTES = 1 << 20


def _universal_newlines(data: bytes) -> bytes:
    if b"\r" not in data:  # a quick scan that spares the slower two-byte replace
        return data
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


class _ScanReader:
    """One pass over a scan file: its header, its theta texts and the rows used.

    A run is a stretch of lines that start with one theta text and a comma.
    A line whose theta text is not classified yet goes down the per-line
    path (lines), which decodes it and parses its theta once. That path
    parses each selected row once, from its decoded text. The run that
    starts with a classified text is found in one regex search: another
    angle's run is skipped without being decoded, and the selected angle's
    run is parsed by column (rows). A run of one line means the angles are
    interleaved, so the rest of that piece goes down the per-line path, as
    does all of a bare file, which has no theta column.
    """

    def __init__(self, path: str, theta: Optional[float]):
        self.path = path
        self.theta = theta
        self.per_theta: Optional[bool] = None
        # theta text as written -> whether its rows are the selected theta
        self.selected: dict[bytes, bool] = {}
        self.phases: list[float] = []
        self.counts: list[float] = []

    def feed(self, piece: bytes) -> bool:
        """Read a piece of whole lines; False once the summary header is reached."""
        pos, size = 0, len(piece)
        while pos < size and self.per_theta is not False:
            eol = piece.find(b"\n", pos)
            if eol < 0:
                eol = size
            comma = piece.find(b",", pos, eol)
            head = piece[pos:comma] if comma >= 0 else None
            use = self.selected.get(head)
            if use is None:
                if not self.lines((piece[pos:eol],)):
                    return False
                pos = eol + 1
                continue
            # the first newline not followed by this theta text and a comma
            # (re caches the compiled pattern)
            found = re.compile(b"\n(?!" + re.escape(head) + b",)").search(piece, pos)
            end = found.start() if found else size
            if use:
                self.rows(piece[pos:end])
            pos = end + 1
            if end == eol:
                break
        return self.lines(piece[pos:].split(b"\n"))

    def rows(self, run: bytes) -> None:
        """Append the phase and counts cells of a run of selected rows.

        The run is split once at its commas. Every row starts with the theta
        text and a comma, so when there are c * rows + 1 cells and no newline
        lies outside the cells of columns 0 mod c, each row has exactly c
        commas, and with c >= 3 the phases and counts are cells[1::c] and
        cells[2::c]. Uneven rows, or a cell that does not parse, go down the
        per-line path, which reports the first bad row.
        """
        cells = run.split(b",")
        rows = run.count(b"\n") + 1
        c, extra = divmod(len(cells) - 1, rows)
        if not extra and c >= 3 and b"".join(cells[::c]).count(b"\n") == rows - 1:
            try:
                phases = list(map(float, cells[1::c]))
                counts = list(map(float, cells[2::c]))
            except ValueError:
                pass
            else:
                self.phases += phases
                self.counts += counts
                return
        self.lines(run.split(b"\n"))

    def lines(self, lines: Iterable[bytes]) -> bool:
        """The per-line path; False once the summary header is reached."""
        selected, phases, counts = self.selected, self.phases, self.counts
        for raw in lines:
            use = selected.get(raw.partition(b",")[0]) if selected else None
            if use is False:
                continue
            try:
                text = raw.decode()
            except UnicodeDecodeError as exc:
                raise NotUtf8Error(self.path, exc) from None
            if use is None:
                # a blank, comment, header or bare row, or a theta text not seen yet
                line = text.strip()
                if not line or line.startswith("#"):
                    continue
                if self.per_theta is None:
                    self.header(line)
                    continue
            try:
                rest = text
                if self.per_theta:
                    theta_text, _, rest = text.partition(",")
                    if use is None:
                        # negated so that a nan theta in the file matches nothing
                        use = abs(float(theta_text) - self.theta) <= _THETA_MATCH
                        selected[raw.partition(b",")[0]] = use
                        if not use:
                            continue
                phase, count = rest.split(",", 2)[:2]
                phases.append(float(phase))
                counts.append(float(count))
            except ValueError:
                line = text.strip()
                if tuple(c.lower() for c in _cells(line)) == _SUMMARY_COLUMNS:
                    return False
                raise CliError(f"could not parse scan row {line!r}") from None
        return True

    def header(self, line: str) -> None:
        cells = _cells(line)
        header = tuple(c.lower() for c in cells)
        self.per_theta = header[:3] == _THETA_HEADER
        if not self.per_theta and header[:2] != _BARE_HEADER:
            raise CliError(
                f"unrecognized scan header {','.join(cells)!r}; expected "
                f"{','.join(_BARE_HEADER)}[,...] or {','.join(_THETA_HEADER)}[,...]"
            )
        if self.per_theta and self.theta is None:
            raise CliError("scan file has per-theta rows; select one with --theta")
        if not self.per_theta and self.theta is not None:
            raise CliError(
                f"--theta cannot be used with a bare scan: {self.path} has no theta_rad column"
            )


def _read_scan_csv(path: str, theta: Optional[float]) -> FringeScan:
    """Read the scan points of a bare scan, or of one theta of a fringes file.

    One pass over the file's bytes, a piece of whole lines at a time, as
    _ScanReader describes. readline ends each piece at the next \\n, so a
    file whose lines end in a lone \\r is read as one piece. Each distinct
    theta text goes through float() once; only the selected theta's phase
    and counts cells are parsed, and other angles' runs of rows are never
    decoded. Reading stops at the fringes summary header. Each read asks
    for at most the bytes the file has left.
    """
    reader = _ScanReader(path, theta)
    with open(path, "rb") as fh:
        # read(n) allocates n bytes before reading, so n is at most what is
        # left; a pipe's size reads 0, so a pipe is read in whole pieces
        left = os.fstat(fh.fileno()).st_size
        while piece := fh.read(min(left, _PIECE_BYTES) if left > 0 else _PIECE_BYTES):
            piece += fh.readline()
            left -= len(piece)
            if not reader.feed(_universal_newlines(piece)):
                break
    phases, counts, selected = reader.phases, reader.counts, reader.selected
    if not phases and selected:
        found = list(dict.fromkeys(text.decode().strip() for text in selected))
        listed = ", ".join(found[:8]) + (f", ... ({len(found)} in all)" if len(found) > 8 else "")
        raise CliError(
            f"no scan points with theta_rad within {_THETA_MATCH:g} of {theta!r} in {path}; "
            f"found theta_rad {listed}"
        )
    if not phases:
        raise CliError(f"no scan points found in {path}")
    try:
        return FringeScan(phases=np.array(phases), counts=np.array(counts))
    except DomainError as exc:  # a non-finite phase, or a non-finite or negative count
        raise CliError(f"{exc} in {path}") from None
