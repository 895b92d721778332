"""Load, validate, and clean per-instrument close-price CSV data."""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import re
from array import array
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError, UnusableSeriesError

REQUIRED_COLUMNS = ("code", "date", "close")

# A series is discarded as unusable when cleaning drops more than this
# fraction of its rows.
MAX_DROP_FRACTION = 0.5


@dataclass
class PriceSeries:
    """Ordered trading-day closes for one instrument.

    Dates are strictly increasing. Closes may still contain missing or
    non-positive values until ``clean`` has been applied.
    """

    code: str
    dates: list[date]
    closes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.closes = np.asarray(self.closes, dtype=float)
        if len(self.dates) != len(self.closes):
            raise DataError(
                f"instrument {self.code!r}: {len(self.dates)} dates but {len(self.closes)} closes"
            )
        dates = self.dates
        if any(map(operator.ge, dates, dates[1:])):
            bad = next(b for a, b in zip(dates, dates[1:]) if a >= b)
            raise DataError(f"instrument {self.code!r}: dates not strictly increasing at {bad}")

    def __len__(self) -> int:
        return len(self.closes)

    @property
    def span_days(self) -> int:
        """Number of trading days the series covers."""
        return len(self.closes)


def _blank(row: list[str]) -> bool:
    return all(not cell.strip() for cell in row)


# Rows of the csv tail (_read) read and parsed at a time, each held as a
# list of str cells at ~15x the memory of its parsed columns until then:
# 4,096 rows raised the peak RSS of an optimize command on 4 x 2,500 rows
# by ~0.8 MB, when every row went through csv.reader.
BLOCK_ROWS = 512

# Characters of the body read at a time, cut after the last newline, for
# _Columns.add_plain up to the first block it rejects (csv.reader reads
# the rest). A block's cells are held as str objects until parsed, and
# larger blocks parse no faster: 32 KiB ones took the same time on a
# 100 x 1,500-row panel but raised a command's peak RSS by 0.1-0.25 MB
# (2-core x86_64, Python 3.11).
TEXT_BLOCK = 8 * 1024


class _Columns:
    """The rows of one CSV file as compact columns, block by block: the
    id of each row's code (`ids`, stripped code -> id, in order of first
    appearance), its date as a proleptic ordinal, and its close, each
    column one growing array.

    The text of each distinct date cell is parsed once. A row of blank
    cells is skipped, and the first bad row raises a DataError naming it.
    """

    def __init__(self, path: Path, i_code: int, i_date: int, i_close: int) -> None:
        self.path = path
        self.i_code, self.i_date, self.i_close = i_code, i_date, i_close
        self.min_len = max(i_code, i_date, i_close) + 1
        self.ids: dict[str, int] = {}
        self.ordinal: dict[str, int] = {}  # each distinct date text -> ordinal
        self.code_id: dict[str, int] = {}  # each distinct code text of a plain block -> id
        self.codes, self.days, self.closes = array("i"), array("i"), array("d")

    def _day(self, raw_date: str) -> int:
        """The ordinal of a date cell's text, cached; ValueError if it is no date."""
        text = raw_date.strip()
        # fromisoformat reads more forms from Python 3.11 on
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            raise ValueError("not YYYY-MM-DD")
        day = self.ordinal[raw_date] = date.fromisoformat(text).toordinal()
        return day

    def _code(self, raw_code: str) -> int:
        """The id of a code cell's text, cached; ValueError if it is blank."""
        code = raw_code.strip()
        if not code:
            raise ValueError("empty instrument code")
        code_id = self.code_id[raw_code] = self.ids.setdefault(code, len(self.ids))
        return code_id

    @staticmethod
    def _lookup(cache: dict, cells: list[str], parse) -> list:
        """`cache`'s value of each cell, `parse(cell)` filling it for a
        distinct cell it lacks."""
        try:
            return list(map(cache.__getitem__, cells))
        except KeyError:
            for cell in set(cells).difference(cache):
                parse(cell)
            return list(map(cache.__getitem__, cells))

    def add(self, rows: list[list[str]], lineno: int) -> None:
        """Parse `rows`, the first of them on record `lineno` of the file,
        one row at a time into the three columns."""
        path, codes, days, closes = self.path, [], [], []
        for lineno, row in enumerate(rows, start=lineno):
            if len(row) < self.min_len:
                if _blank(row):
                    continue
                raise DataError(f"{path}:{lineno}: too few columns")
            code = row[self.i_code].strip()
            if not code:
                if _blank(row):
                    continue
                raise DataError(f"{path}:{lineno}: empty instrument code")
            raw_date = row[self.i_date]
            day = self.ordinal.get(raw_date)
            if day is None:
                try:
                    day = self._day(raw_date)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad date {raw_date!r}: {exc}") from None
            try:
                # float() ignores the same surrounding whitespace str.strip() removes
                close = float(row[self.i_close])
            except ValueError:
                raw_close = row[self.i_close].strip()
                if raw_close:
                    raise DataError(f"{path}:{lineno}: bad close {raw_close!r}") from None
                close = math.nan
            codes.append(self.ids.setdefault(code, len(self.ids)))
            days.append(day)
            closes.append(close)
        self.codes.fromlist(codes)
        self.days.fromlist(days)
        self.closes.fromlist(closes)

    def add_plain(self, text: str, width: int) -> bool:
        """Parse `text`, whole lines, as `add` parses csv's rows of it, when
        that needs none of csv's quoting or `add`'s row checks: True, or
        False, with nothing added, when a line is not `width` cells, a
        code is blank, a date or a close bad, or the text holds a `"`, a
        NUL, a lone CR or more characters than csv reads in a field.

        The lines are cut into cells by one split, with a newline cell
        after each line's last: a line of any other width moves those
        markers off their stride, though the cell total may still add up.
        Each distinct code is stripped once, each distinct date parsed
        once, and a blank close is NaN, as in `add`.
        """
        if '"' in text or "\0" in text or len(text) > csv.field_size_limit():
            return False  # csv unquotes a `"`, and before 3.11 rejects a NUL
        if "\r" in text:
            if text.count("\r") != text.count("\r\n"):
                return False
            text = text.replace("\r\n", "\n")  # csv ends a line at CRLF as at LF
        if not text.endswith("\n"):
            text += "\n"  # the file's last line
        lines, stride = text.count("\n"), width + 1
        cells = text.replace("\n", ",\n,").split(",")
        cells.pop()  # the empty cell after the last newline
        if len(cells) != lines * stride or cells[width::stride].count("\n") != lines:
            return False
        close_cells = cells[self.i_close::stride]
        try:
            at = -1
            while True:
                at = close_cells.index("", at + 1)
                close_cells[at] = "nan"
        except ValueError:
            pass
        try:
            closes = list(map(float, close_cells))
            days = self._lookup(self.ordinal, cells[self.i_date::stride], self._day)
            codes = self._lookup(self.code_id, cells[self.i_code::stride], self._code)
        except ValueError:
            return False
        self.codes.fromlist(codes)
        self.days.fromlist(days)
        self.closes.fromlist(closes)
        return True

    def series(self) -> list[PriceSeries]:
        """One PriceSeries per code, sorted by code, each by date. A code
        with two rows for one date is an error."""
        if not self.ids:
            return []
        names = sorted(self.ids)
        rank = np.empty(len(names), np.int32)
        rank[[self.ids[name] for name in names]] = np.arange(len(names), dtype=np.int32)
        # Each column's buffer is let go once it is sorted, so the sort
        # holds at most one column twice.
        codes = rank[np.frombuffer(self.codes, np.intc)]
        self.codes = None
        order = np.lexsort((np.frombuffer(self.days, np.intc), codes))
        codes = codes[order]
        days = np.frombuffer(self.days, np.intc)[order]
        self.days = None
        closes = np.frombuffer(self.closes)[order]
        self.closes = None
        del order
        twice = np.flatnonzero((codes[1:] == codes[:-1]) & (days[1:] == days[:-1]))
        if twice.size:
            i = twice[0]
            raise DataError(f"{self.path}: instrument {names[codes[i]]!r}: more than one row for "
                            f"{date.fromordinal(int(days[i]))} (dates must be strictly increasing)")
        day_of = {day: date.fromordinal(day) for day in set(self.ordinal.values())}
        bounds = np.searchsorted(codes, np.arange(len(names) + 1)).tolist()
        return [PriceSeries(name, list(map(day_of.__getitem__, days[lo:hi].tolist())),
                            closes[lo:hi])
                for name, lo, hi in zip(names, bounds, bounds[1:])]


def load_csv(path: str | Path) -> list[PriceSeries]:
    """Read a close-price CSV into one date-sorted PriceSeries per instrument.

    The file must carry a header row naming (case-insensitive) columns
    ``code``, ``date`` and ``close`` once each; a UTF-8 byte-order mark
    before it is ignored. Dates are ISO-8601, in any order within an
    instrument; two rows with the same code and date are an error. An empty close field
    is kept as NaN for ``clean`` to drop; anything else unparsable is an
    error naming the offending row, as is text that is not UTF-8 or a
    field longer than csv reads. A path that cannot be opened (missing,
    a directory, unreadable) is an error naming it.

    The body is streamed in blocks of about TEXT_BLOCK characters into
    typed columns (an int32 code id and date ordinal and a float64 close
    per row), so the rows are never all held as Python objects; one sort
    by code and date then splits the columns into the series. Blocks of
    plain lines are cut into cells by one split each, up to the first other
    block, from which one csv.reader reads to the end of the file.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise DataError(f"cannot read data file {path}: {exc.strerror or exc}") from None
    try:
        with fh:
            return _read(path, fh).series()
    except UnicodeDecodeError:
        # Text is decoded 8 KiB at a time, so the first bad byte's line is found
        # in the file's bytes; the lines before it are read again, bad rows first.
        text = path.read_bytes().decode("utf-8-sig", "surrogateescape")
        bad = re.search("[\udc80-\udcff]", text).start()
        *lines, _ = io.StringIO(text[:bad + 1], newline="")  # _: the bad byte's line, up to it
        if lines:
            _read(path, io.StringIO("".join(lines), newline=""))
        raise DataError(f"{path}:{len(lines) + 1}: byte 0x{ord(text[bad]) - 0xdc00:02x} "
                        "is not UTF-8") from None


def _blocks(fh):
    """The rest of the open file `fh` about TEXT_BLOCK characters at a
    time, as (text, carry): the text up to the last newline read (the
    file's last line once it is all read) and what was read past it."""
    carry = ""
    while chunk := fh.read(TEXT_BLOCK):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        text, carry = text[:cut], text[cut:]
        if text:
            yield text, carry
    if carry:
        yield carry, ""


def _read(path: Path, fh) -> _Columns:
    """The rows of the open CSV file `fh` as _Columns, its header checked.
    A record csv cannot read is a DataError naming its line, raised after a
    bad row before it; text that is not UTF-8 raises UnicodeDecodeError.

    Records are numbered as csv.reader yields them, and csv's errors name
    the file's physical line; before the csv tail each line is a record."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, header row required")
    names = [name.strip().lower() for name in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in names]
    if missing:
        raise DataError(f"{path}: missing required column(s): {', '.join(missing)}")
    twice = [c for c in REQUIRED_COLUMNS if names.count(c) > 1]
    if twice:
        raise DataError(f"{path}: required column(s) named more than once: {', '.join(twice)}")
    positions = {name: i for i, name in enumerate(names)}
    columns = _Columns(path, *(positions[c] for c in REQUIRED_COLUMNS))
    plain = 0  # body lines add_plain parsed, each one record
    for text, carry in _blocks(fh):
        if not columns.add_plain(text, len(header)):
            # A `"` may open a quoted field that holds newlines: csv reads the rest.
            rest = io.StringIO(text + carry + fh.readline(), newline="")
            _add_records(path, columns, csv.reader(itertools.chain(rest, fh)),
                         2 + plain, reader.line_num + plain)
            break
        plain += text.count("\n")  # after the file's last line, no count is read
    return columns


def _add_records(path: Path, columns: _Columns, reader, lineno: int, lines: int) -> None:
    """Add the rows of `reader`, the first of them record `lineno` and
    its first line the one after line `lines` of the file, to `columns`
    BLOCK_ROWS at a time. A record csv cannot read is a DataError naming
    its line, raised after any bad row before it."""
    try:
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, BLOCK_ROWS))
            except csv.Error:
                columns.add(rows, lineno)
                raise
            if not rows:
                return
            columns.add(rows, lineno)
            lineno += len(rows)
    except csv.Error as exc:
        raise DataError(f"{path}:{lines + reader.line_num}: {exc}") from None


def save_csv(series_list: list[PriceSeries], path: str | Path) -> None:
    """Write series back to the same CSV schema ``load_csv`` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        for series in series_list:
            for day, close in zip(series.dates, series.closes):
                writer.writerow([series.code, day.isoformat(), repr(float(close))])


def clean(series: PriceSeries) -> PriceSeries:
    """Drop rows with missing or non-positive closes, preserving order.

    Raises UnusableSeriesError when more than half of the rows go: such
    instruments are screened out rather than silently thinned to noise.
    Dropped prices are not interpolated; a fabricated close would be
    indistinguishable from a real one downstream.
    """
    keep = np.isfinite(series.closes) & (series.closes > 0)
    dropped = int(len(series) - keep.sum())
    if dropped > MAX_DROP_FRACTION * len(series):
        raise UnusableSeriesError(series.code, dropped, len(series))
    if dropped == 0:
        return series
    dates = list(itertools.compress(series.dates, keep.tolist()))
    return PriceSeries(series.code, dates, series.closes[keep])
