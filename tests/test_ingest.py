import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from macdlab import PriceSeries, clean, ingest, load_csv, save_csv
from macdlab.errors import DataError, UnusableSeriesError

from conftest import series_from_closes
from oracles import load_csv_naive


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_groups_by_code_and_sorts_dates(self, tmp_path):
        path = write(tmp_path, (
            "code,date,close\n"
            "B,2014-01-03,20\n"
            "A,2014-01-02,11\n"
            "A,2014-01-01,10\n"
            "B,2014-01-01,19\n"
            "A,2014-01-03,12\n"
            "B,2014-01-02,21\n"
        ))
        series = load_csv(path)
        assert [s.code for s in series] == ["A", "B"]
        assert all(len(s) == 3 for s in series)
        assert list(series[0].closes) == [10, 11, 12]
        assert series[0].dates[0].isoformat() == "2014-01-01"

    def test_header_only_file_gives_empty_list(self, tmp_path):
        assert load_csv(write(tmp_path, "code,date,close\n")) == []

    def test_invalid_calendar_date_names_row(self, tmp_path):
        path = write(tmp_path, "code,date,close\nA,2014-01-01,10\nA,2014-13-40,11\n")
        with pytest.raises(DataError, match=r":3:"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["20200105", "2020-W01-1", "2020W011"])
    def test_only_yyyy_mm_dd_is_a_date(self, tmp_path, text):
        """Other ISO 8601 date forms, which date.fromisoformat reads from
        Python 3.11 on, are bad dates on every Python."""
        path = write(tmp_path, f"code,date,close\nA,2020-01-06,10\nA, {text} ,11\n")
        with pytest.raises(DataError, match=f":3: bad date ' {text} ': not YYYY-MM-DD$"):
            load_csv(path)
        same_as_naive(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match=f"cannot read data file {tmp_path}: "):
            load_csv(tmp_path)

    def test_missing_column(self, tmp_path):
        with pytest.raises(DataError, match="close"):
            load_csv(write(tmp_path, "code,date,price\nA,2014-01-01,10\n"))

    def test_column_named_twice(self, tmp_path):
        path = write(tmp_path, "code,date,close,Close\nA,2014-01-01,10,11\n")
        with pytest.raises(DataError, match="required column[(]s[)] named more than once: close$"):
            load_csv(path)

    def test_unparsable_price_names_row(self, tmp_path):
        with pytest.raises(DataError, match=r":2:"):
            load_csv(write(tmp_path, "code,date,close\nA,2014-01-01,ten\n"))

    def test_empty_close_kept_as_missing(self, tmp_path):
        series = load_csv(write(tmp_path, "code,date,close\nA,2014-01-01,\nA,2014-01-02,10\n"))
        assert math.isnan(series[0].closes[0])

    def test_header_case_insensitive(self, tmp_path):
        series = load_csv(write(tmp_path, "Code,DATE,Close\nA,2014-01-01,10\n"))
        assert series[0].code == "A"

    def test_duplicate_date_rejected(self, tmp_path):
        path = write(tmp_path, "code,date,close\nA,2014-01-01,10\nA,2014-01-01,11\n")
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(path)

    def test_duplicate_row_names_code_and_date(self, tmp_path):
        path = write(tmp_path, (
            "code,date,close\n"
            "B,2014-01-02,20\n"
            "A,2014-01-03,12\n"
            "A,2014-01-02,11\n"
            "A,2014-01-03,13\n"
        ))
        with pytest.raises(DataError, match=r"instrument 'A': more than one row for 2014-01-03"):
            load_csv(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        rng = np.random.default_rng(8)
        text = "code,date,close\n" + "".join(
            f"{'AB'[i % 2]},{date(2014, 1, 1) + timedelta(days=i // 2)},{c!r}\n"
            for i, c in enumerate(rng.uniform(1, 100, 100).tolist()))
        plain = load_csv(write(tmp_path, text))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        with_bom = load_csv(path)
        assert [s.code for s in with_bom] == [s.code for s in plain] == ["A", "B"]
        for a, b in zip(with_bom, plain):
            assert a.dates == b.dates
            assert np.array_equal(a.closes, b.closes)

    def test_roundtrip_is_fixed_point(self, tmp_path, rng):
        path = write(tmp_path, (
            "code,date,close\n"
            "A,2014-01-01,10.125\n"
            "A,2014-01-02,0\n"
            "A,2014-01-03,\n"
            "B,2014-01-01,3.3333333333333335\n"
        ))
        first = load_csv(path)
        save_csv(first, tmp_path / "again.csv")
        second = load_csv(tmp_path / "again.csv")
        assert [s.code for s in first] == [s.code for s in second]
        for a, b in zip(first, second):
            assert a.dates == b.dates
            assert np.array_equal(a.closes, b.closes, equal_nan=True)


BAD_INPUTS = [
    "",
    "code,date,price\nA,2014-01-01,10\n",
    "code,date,close\nA,2014-13-40,10\n",
    "code,date,close\nA, 2014-01-01x ,10\n",
    "code,date,close\nA,2014-01-01,ten\n",
    "code,date,close\nA,2014-01-01, 1 0 \n",
    "code,date,close\nA,2014-01-01\n",
    "code,date,close\n,2014-01-01,10\n",
    "code,date,close\n  ,2014-01-01,\n",
    "close,code,date\n10,A\n",
    "code,date,close, CLOSE ,Date\nA,2014-01-01,10,11,2014-01-02\n",
    "code,date,close\nA,2014-01-02,1\n,,\n \t, ,\nB,2014-01-01,x\n",
]

GOOD_INPUTS = [
    "code,date,close\n",
    "code,date,close\n\n,,\n  ,  ,  \nA,2014-01-01,10\n",
    "Code , DATE,close,extra\r\n B ,2014-01-02 , 2.5 ,x\r\nB,2014-01-01,\r\nA,2014-01-01,1e3\r\n",
    "date,close,code\n2014-01-03,\u00a07\u2003,A\n2014-01-01,-1,A\n2014-01-02,nan,A\n",
    'code,date,close\n"A,1","2014-01-01","1_000"\nA,2014-01-01,inf\n',
    "\ufeffcode,date,close\nA,2014-01-01,1\n",
]


def same_as_naive(path):
    """load_csv and load_csv_naive agree: equal series, or equal messages."""
    try:
        expected = load_csv_naive(path)
    except ValueError as exc:
        with pytest.raises(DataError) as got:
            load_csv(path)
        assert str(got.value) == str(exc)
        return
    got = load_csv(path)
    assert [(s.code, s.dates) for s in got] == [(c, d) for c, d, _ in expected]
    for series, (_, _, closes) in zip(got, expected):
        assert np.array_equal(series.closes, np.array(closes), equal_nan=True)


# Files whose rows fall across blocks of 1-3 rows: the first error in a
# later block, after an earlier one, blank rows at block edges, and a
# quoted field holding a newline (one record over two lines).
BLOCK_INPUTS = [
    "code,date,close\nA,2014-01-01,1\nA,2014-01-02,2\nA,2014-01-03,3\nA,2014-01-04,4\nB,2014-01-01,x\n",
    "code,date,close\nA,2014-01-01,1\nA,2014-01-02,\nA,bad,3\nA,2014-01-04,y\n",
    "code,date,close\nA,2014-01-01,1\n\n,,\nA,2014-01-02,2\n \nB,2014-01-01,\n\n",
    "code,date,close\n\nA,2014-01-01,1\nB,2014-01-02,2\n,,\n,,\nB,2014-01-01,3\n",
    'code,date,close\n"A\nB",2014-01-01,1\nC,2014-01-01,2\nC,2014-01-02,\nC,2014-01-03,z\n',
    'code,date,close\nA,2014-01-02,1\n"A\nB",2014-01-01,1\nA,2014-01-01,2\nA,2014-01-03,3\n',
    "code,date,close\nA,2014-01-01,1\nA,2014-01-02,2\nB,2014-01-01,1\nB,2014-01-02\n",
    "code,date,close\nB,2014-01-03,1\nA,2014-01-02,2\nB,2014-01-01,3\nA,2014-01-01,4\nB,2014-01-02,\n",
    'code,date,close\nA,2014-01-01,1\nA,2014-01-02,2\nA,2014-01-03,3\n"A\nB",2014-01-01,4\nB,2014-01-02,oops\n',
]


def plain_lines(count, code="A", start=0):
    return "".join(f"{code},{date(2014, 1, 1) + timedelta(days=start + i)},{i + 1}.5\n"
                   for i in range(count))


# Files for the plain-text block path (ingest._Columns.add_plain), cut
# into text blocks of a few characters and at the default size: what
# sends the rest of the file to csv.reader, and what the block path must
# read as csv does.
PLAIN = "code,date,close\n" + plain_lines(40)
TEXT_BLOCK_INPUTS = [
    # a line longer than a block, and one longer than csv's field limit
    "code,date,close\nA,2014-01-01,1\nA,2014-01-02," + " " * 300 + "2\nA,2014-01-03,3\n",
    PLAIN + f"A,2014-03-01,{'1' * 140_000}\nA,2014-03-02,x\n",
    # no final newline, with a blank close on that line
    "code,date,close\nA,2014-01-01,1\nA,2014-01-02,2\nA,2014-01-03,",
    "code,date,close\r\nA,2014-01-01,1\r\nA,2014-01-02,",
    # the first quote, lone CR or NUL in a later block, then a bad row
    PLAIN + '"B\nC",2014-01-01,1\nB,2014-01-02,2\n' + plain_lines(5, "D") + "D,2014-01-0x,1\n",
    PLAIN + 'B,2014-01-01,"1"\n' + plain_lines(5, "D") + f"D,2014-01-09,{'1' * 140_000}\n",
    PLAIN + "B,2014-01-01,1\rB,2014-01-02,2\n" + plain_lines(5, "D") + "D,2014-01-09,z\n",
    PLAIN + "B,2014-01-01,1\rB,2014-01-02,2\n" + plain_lines(5, "D"),
    PLAIN + "B,2014-01-01,1\rB,2014-01-02,2\n" + plain_lines(5, "D") + f"D,2014-01-09,{'1' * 140_000}\n",
    PLAIN + "B\0,2014-01-01,1\n" + plain_lines(5, "D") + "D\0,2014-01-09,\n",
    PLAIN + "B\0,2014-01-01,1\n" + plain_lines(5, "D") + "D,2014-01-09, 7 x\n",
    # ragged rows whose cells add up to whole rows
    "code,date,close\na,b\nc,d,e,f\n",
    PLAIN + "B,2014-01-01\nB,2014-01-02,1,2\n",
    "code,date,close,note\nA,2014-01-01,1\nA,2014-01-02,2,n,x\n" + plain_lines(6, "B"),
    "code,date,close,note\nA,2014-01-01,1\nx,B,2014-01-02,2,n\n",
    "code,date,close,note\nA,2014-01-01,1,n\rx\nA,2014-01-02,2,n\n",
    # whitespace-only closes, and blank closes on many lines
    PLAIN + "B,2014-01-01, \nB,2014-01-02,\t\nB,2014-01-03,3\n",
    "code,date,close\n" + "".join(f"A,{date(2014, 1, 1) + timedelta(days=i)},{'' if i % 3 else i}\n"
                                  for i in range(30)),
    # blank rows in mid-file
    PLAIN + "\n,,\n \t\n" + plain_lines(5, "B"),
    PLAIN + ",,\n" + plain_lines(5, "B") + ", ,x\n",
    # codes that differ only by spaces: one instrument
    PLAIN + " A,2014-03-01,1\nA ,2014-03-02,2\n\tA,2014-03-03,3\n",
    # CRLF line ends, a bad row among them
    PLAIN.replace("\n", "\r\n") + "B,2014-01-01,\r\n",
    PLAIN.replace("\n", "\r\n") + "B,2014-01-01,5\r\nB,2014-02-30,6\r\n",
    # bad cells in a later block: the csv tail from that block checks them
    PLAIN + "B,2014-01-01,x\n",
    PLAIN + ",2014-01-01,1\n",
    PLAIN + "B,2014-13-01,1\n",
    # a header over two lines: a record's number is one less than its line's
    '"code\n",date,close\n' + PLAIN[16:] + "B,2014-01-01,x\n",
    '"code\n",date,close\n' + PLAIN[16:] + f"B,2014-01-01,{'1' * 140_000}\n",
]
CORPUS = BAD_INPUTS + GOOD_INPUTS + BLOCK_INPUTS + [
    pytest.param(text, id=f"text_block_{i}") for i, text in enumerate(TEXT_BLOCK_INPUTS)]


class TestLoadCsvMatchesRowLoop:
    """The block-streaming loader against the naive row loop, at the
    default block sizes, at csv blocks of 1-3 rows and at text blocks of
    a few characters."""

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus(self, tmp_path, text):
        same_as_naive(write(tmp_path, text))

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_in_small_blocks(self, tmp_path, monkeypatch, text, block_rows):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        same_as_naive(write(tmp_path, text))

    @pytest.mark.parametrize("text_block", [1, 7, 40, 100])
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_in_small_text_blocks(self, tmp_path, monkeypatch, text, text_block):
        monkeypatch.setattr(ingest, "TEXT_BLOCK", text_block)
        monkeypatch.setattr(ingest, "BLOCK_ROWS", 2)
        same_as_naive(write(tmp_path, text))

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.permutations(["code", "date", "close", "note"]),
        st.lists(st.tuples(
            st.sampled_from(["A", " B ", "C", "", " "]),
            st.sampled_from(["2014-01-01", "2014-01-02", " 2014-01-03", "2014-02-30", ""]),
            st.sampled_from(["1.5", " 2 ", "", "x", "nan", "-3", "\u00a04"]),
            st.sampled_from(["", "n", '"q,1"']),
        ), max_size=12),
        st.sampled_from(["\n", "\r\n"]),
        st.lists(st.integers(0, 12), max_size=3),
        st.sampled_from([1, 2, 3, ingest.BLOCK_ROWS]),
        st.sampled_from([1, 5, 24, ingest.TEXT_BLOCK]),
    )
    def test_fuzzed_files(self, tmp_path, monkeypatch, columns, rows, newline, blank_at,
                          block_rows, text_block):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(ingest, "TEXT_BLOCK", text_block)
        lines = [",".join(columns)]
        for row in rows:
            cells = dict(zip(("code", "date", "close", "note"), row))
            lines.append(",".join(cells[c] for c in columns))
        for i in sorted(blank_at, reverse=True):
            lines.insert(min(i, len(lines) - 1) + 1, "")
        path = tmp_path / "fuzz.csv"
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        try:
            load_csv_naive(path)
        except ValueError as exc:
            if "strictly increasing" in str(exc):
                # a repeated (code, date) row: the message now names it
                with pytest.raises(DataError, match="more than one row for"):
                    load_csv(path)
                return
        same_as_naive(path)


def test_bad_row_before_undecodable_text_is_reported(tmp_path, monkeypatch):
    """A read that fails part-way through a block (text past the first
    8 KiB that is not UTF-8) comes after the bad rows before it, and is
    a data error naming the bad byte's line."""
    monkeypatch.setattr(ingest, "TEXT_BLOCK", 1 << 20)  # one block holds the whole file
    good = "".join(f"A,{date(2014, 1, 1) + timedelta(days=i)},1\n" for i in range(1, 1000))
    path = tmp_path / "prices.csv"
    path.write_bytes(f"code,date,close\nA,2014-01-01,x\n{good}B,2014-01-01,\xff\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"prices\.csv:2: bad close 'x'$"):
        load_csv(path)
    path.write_bytes(f"code,date,close\n{good}B,2014-01-01,\xff\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"prices\.csv:1001: byte 0xff is not UTF-8$"):
        load_csv(path)


UNDECODABLE = [
    (b"code,date,close\nA,2014-01-01,1\nB\xe9,2014-01-02,2\n", ":3: byte 0xe9 is not UTF-8$"),
    (b"code,d\xe9te,close\nA,2014-01-01,1\n", ":1: byte 0xe9 is not UTF-8$"),
    (b"code,date,close\r\nA,2014-01-01,1\r\rA,2014-01-02,\xff\r\n", ":4: byte 0xff is not UTF-8$"),
    (b"code,date,close\nA,2014-01-01,1\xc3", ":2: byte 0xc3 is not UTF-8$"),
    (b"\xef\xbb\xbfcode,date,close\nA\xff,2014-01-01,1\n", ":2: byte 0xff is not UTF-8$"),
    # a bad row in the same 8 KiB of text as the bad byte, before it
    (b"code,date,close\nA,2014-01-01,x\nB\xe9,2014-01-02,2\n", ":2: bad close 'x'$"),
    (b"code,date\nA,2014-01-01,x\nB\xe9,2014-01-02,2\n", ": missing required column"),
]


@pytest.mark.parametrize("block_rows", [1, ingest.BLOCK_ROWS])
@pytest.mark.parametrize("data, message", UNDECODABLE)
def test_undecodable_text_names_its_line(tmp_path, monkeypatch, data, message, block_rows):
    """Text that is not UTF-8 is a data error naming the line of its first
    bad byte, unless a row before that line is bad; the row loop agrees."""
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=r"prices\.csv" + message):
        load_csv(path)
    same_as_naive(path)


OVERLONG = "1" * 200_000
LIMIT = r"field larger than field limit \(131072\)$"


@pytest.mark.parametrize("block_rows", [1, ingest.BLOCK_ROWS])
@pytest.mark.parametrize("text, message", [
    (f"code,date,close\nA,2014-01-01,1\nA,2014-01-02,{OVERLONG}\n", ":3: " + LIMIT),
    (f"code,date,{OVERLONG}\nA,2014-01-01,1\n", ":1: " + LIMIT),
    (f"code,date,close\nA,2014-01-01,x\nA,2014-01-02,{OVERLONG}\n", ":2: bad close 'x'$"),
], ids=["row", "header", "bad row before it"])
def test_overlong_field_names_its_line(tmp_path, monkeypatch, text, message, block_rows):
    """A field longer than csv reads is a data error naming its line,
    unless a row before it is bad; the row loop agrees."""
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
    path = write(tmp_path, text)
    with pytest.raises(DataError, match=r"prices\.csv" + message):
        load_csv(path)
    same_as_naive(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("text_block", [64, ingest.TEXT_BLOCK])
def test_plain_text_never_reaches_csv(tmp_path, monkeypatch, newline, text_block):
    """Plain lines, blank closes, codes padded with spaces and the last
    line's missing newline included, are read by the block path alone."""
    monkeypatch.setattr(ingest, "TEXT_BLOCK", text_block)
    monkeypatch.setattr(ingest._Columns, "add", None)  # csv's rows would call it
    lines = ["code,date,close"] + [
        f"{' A' if i % 5 else 'B '},{date(2014, 1, 1) + timedelta(days=i)},{i if i % 7 else ''}"
        for i in range(400)]
    path = tmp_path / "plain.csv"
    path.write_text(newline.join(lines), encoding="utf-8", newline="")
    got = load_csv(path)
    assert [(s.code, len(s)) for s in got] == [("A", 320), ("B", 80)]
    assert int(np.isnan(got[0].closes).sum()) + int(np.isnan(got[1].closes).sum()) == 58
    monkeypatch.undo()
    same_as_naive(path)


def test_peak_memory_per_row(tmp_path):
    """The rows are held as typed columns: tracemalloc's peak while
    loading 50 instruments x 2,000 days stays under 64 B a row (a tuple
    of date and float per row took ~106)."""
    rng = np.random.default_rng(14)
    days = [(date(2010, 1, 4) + timedelta(days=i)).isoformat() for i in range(2000)]
    lines = ["code,date,close\n"]
    for k in range(50):
        closes = np.round(50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.015, 2000))), 4)
        lines += [f"I{k:02d},{day},{close!r}\n" for day, close in zip(days, closes.tolist())]
    path = write(tmp_path, "".join(lines))
    tracemalloc.start()
    try:
        series = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, series)) == 100_000
    assert peak <= 64 * 100_000


class TestPriceSeries:
    def test_dates_must_increase(self):
        d = [date(2014, 1, i) for i in (1, 3, 2, 4)]
        with pytest.raises(DataError, match="'A': dates not strictly increasing at 2014-01-02$"):
            PriceSeries("A", d, np.ones(4))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            PriceSeries("A", [__import__("datetime").date(2014, 1, 1)], np.array([1.0, 2.0]))

    def test_span_days(self, make_series):
        assert make_series([1, 2, 3]).span_days == 3


class TestClean:
    def test_drops_zero_rows(self, make_series):
        out = clean(make_series([10, 0, 11]))
        assert list(out.closes) == [10, 11]
        assert len(out.dates) == 2

    def test_identity_on_clean_data(self, make_series):
        s = make_series([10, 11, 12])
        assert clean(s) is s

    def test_over_removal_flags_unusable(self, make_series):
        with pytest.raises(UnusableSeriesError) as exc:
            clean(make_series([0, 0, 0, 5]))
        assert exc.value.dropped == 3
        assert exc.value.total == 4

    def test_exactly_half_dropped_is_still_usable(self, make_series):
        out = clean(make_series([0, 0, 5, 6]))
        assert list(out.closes) == [5, 6]

    def test_negative_and_nan_dropped(self, make_series):
        out = clean(make_series([10, -1, math.nan, 11, 12]))
        assert list(out.closes) == [10, 11, 12]

    @given(st.lists(st.one_of(
        st.floats(min_value=0.01, max_value=1e6),
        st.just(0.0), st.just(-5.0), st.just(math.nan),
    ), min_size=1, max_size=40))
    def test_idempotent_and_subsequence(self, closes):
        s = series_from_closes(closes)
        try:
            once = clean(s)
        except UnusableSeriesError:
            return
        twice = clean(once)
        assert np.array_equal(once.closes, twice.closes)
        assert once.dates == twice.dates
        it = iter(list(s.closes))
        assert all(any(c == x for x in it) for c in once.closes)
