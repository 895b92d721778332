"""Load, validate, and clean per-instrument close-price CSV data."""

from __future__ import annotations

import csv
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


def load_csv(path: str | Path) -> list[PriceSeries]:
    """Read a close-price CSV into one date-sorted PriceSeries per instrument.

    The file must carry a header row with (case-insensitive) columns
    ``code``, ``date`` and ``close``; a UTF-8 byte-order mark before it is
    ignored. Dates are ISO-8601, in any order within an instrument; two
    rows with the same code and date are an error. An empty close field
    is kept as NaN for ``clean`` to drop; anything else unparsable is an
    error naming the offending row. A path that cannot be opened (missing,
    a directory, unreadable) is an error naming it.
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
        i_code, i_date, i_close = (positions[c] for c in REQUIRED_COLUMNS)
        min_len = max(i_code, i_date, i_close) + 1

        rows: dict[str, list[tuple[date, float]]] = {}
        days: dict[str, date] = {}  # each distinct date text, parsed once
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            # A row of blank cells is skipped; the scan runs only on rows
            # that would otherwise be an error.
            if len(row) < min_len:
                if _blank(row):
                    continue
                raise DataError(f"{path}:{lineno}: too few columns")
            code = row[i_code].strip()
            if not code:
                if _blank(row):
                    continue
                raise DataError(f"{path}:{lineno}: empty instrument code")
            raw_date = row[i_date]
            day = days.get(raw_date)
            if day is None:
                try:
                    day = days[raw_date] = date.fromisoformat(raw_date.strip())
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad date {raw_date!r}: {exc}") from None
            try:
                # float() ignores the same surrounding whitespace str.strip() removes
                close = float(row[i_close])
            except ValueError:
                raw_close = row[i_close].strip()
                if raw_close:
                    raise DataError(f"{path}:{lineno}: bad close {raw_close!r}") from None
                close = math.nan
            rows.setdefault(code, []).append((day, close))

    out = []
    for code in sorted(rows):
        pairs = sorted(rows[code], key=operator.itemgetter(0))
        dates = [p[0] for p in pairs]
        if any(map(operator.eq, dates, dates[1:])):
            twice = next(a for a, b in zip(dates, dates[1:]) if a == b)
            raise DataError(f"{path}: instrument {code!r}: more than one row for {twice} "
                            "(dates must be strictly increasing)")
        out.append(PriceSeries(code, dates, np.array([p[1] for p in pairs])))
    return out


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
    dates = [d for d, k in zip(series.dates, keep) if k]
    return PriceSeries(series.code, dates, series.closes[keep])
