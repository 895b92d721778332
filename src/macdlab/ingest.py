"""Load, validate, and clean per-instrument close-price CSV data."""

from __future__ import annotations

import csv
import itertools
import math
import operator
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


# csv.reader rows read and parsed per block. A block's rows are held
# whole until parsed, each a list of str cells at ~15x the memory of its
# parsed columns, so blocks stay small: 4,096 rows raised the peak RSS
# of an optimize command on 4 x 2,500 rows by ~0.8 MB.
BLOCK_ROWS = 512


class _Columns:
    """The rows of one CSV file as compact columns, block by block: the
    id of each row's code (`ids`, stripped code -> id, in order of first
    appearance), its date as a proleptic ordinal, and its close.

    The text of each distinct date cell is parsed once. A row of blank
    cells is skipped, and the first bad row raises a DataError naming it.
    """

    def __init__(self, path: Path, i_code: int, i_date: int, i_close: int) -> None:
        self.path = path
        self.i_code, self.i_date, self.i_close = i_code, i_date, i_close
        self.min_len = max(i_code, i_date, i_close) + 1
        self.ids: dict[str, int] = {}
        self.ordinal: dict[str, int] = {}  # each distinct date text -> ordinal
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, rows: list[list[str]], lineno: int) -> None:
        """Parse `rows`, the first of them on record `lineno` of the file,
        one row at a time into three typed columns."""
        path, codes, days, closes = self.path, [], [], []
        for lineno, row in enumerate(rows, start=lineno):
            if not row:
                continue
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
                    day = self.ordinal[raw_date] = date.fromisoformat(raw_date.strip()).toordinal()
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
        self.blocks.append((np.array(codes, np.int32), np.array(days, np.int32),
                            np.array(closes, float)))

    def series(self) -> list[PriceSeries]:
        """One PriceSeries per code, sorted by code, each by date. A code
        with two rows for one date is an error."""
        if not self.ids:
            return []
        names = sorted(self.ids)
        rank = np.empty(len(names), np.int32)
        rank[[self.ids[name] for name in names]] = np.arange(len(names), dtype=np.int32)
        codes, days, closes = map(np.concatenate, zip(*self.blocks))
        self.blocks.clear()
        codes = rank[codes]
        order = np.lexsort((days, codes))
        codes, days, closes = codes[order], days[order], closes[order]
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

    The file must carry a header row with (case-insensitive) columns
    ``code``, ``date`` and ``close``; a UTF-8 byte-order mark before it is
    ignored. Dates are ISO-8601, in any order within an instrument; two
    rows with the same code and date are an error. An empty close field
    is kept as NaN for ``clean`` to drop; anything else unparsable is an
    error naming the offending row. A path that cannot be opened (missing,
    a directory, unreadable) is an error naming it.

    The file is streamed in blocks of BLOCK_ROWS rows into typed columns
    (an int32 code id and date ordinal and a float64 close per row), so
    the rows are never all held as Python objects; one sort by code and
    date then splits the columns into the series.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise DataError(f"cannot read data file {path}: {exc.strerror or exc}") from None

    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        positions = {name.strip().lower(): i for i, name in enumerate(header)}
        missing = [c for c in REQUIRED_COLUMNS if c not in positions]
        if missing:
            raise DataError(f"{path}: missing required column(s): {', '.join(missing)}")
        columns = _Columns(path, *(positions[c] for c in REQUIRED_COLUMNS))
        lineno = 2
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, BLOCK_ROWS))
            except (csv.Error, OSError, ValueError):
                # a file that cannot be read on (bad UTF-8, an over-long
                # field): a bad row before the failure is reported first
                if rows:
                    columns.add(rows, lineno)
                raise
            if not rows:
                break
            columns.add(rows, lineno)
            lineno += len(rows)
    return columns.series()


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
