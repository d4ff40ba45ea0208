import importlib.util
import json
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from volmixer import market_data as md
from volmixer.market_data import (EmptyDataError, FormatError, LengthError,
                                  OhlcvSeries, SplitError, ValidationError)

COLUMNS = ("days", "open", "high", "low", "close", "volume")
FIXTURES_DIR = Path(FIXTURES)


def _load_synth():
    """perfbench's seeded chart-document generator, loaded from its file."""
    path = Path(__file__).parent.parent / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def series_of(closes, start_ordinal=738000):
    closes = np.asarray(closes, dtype=np.float64)
    days = np.datetime64(date.fromordinal(start_ordinal)) + np.arange(
        closes.size)
    return OhlcvSeries("TEST", days, closes, closes * 1.01, closes * 0.99,
                       closes, 1000 + np.arange(closes.size))


def assert_same_columns(got, expected):
    assert got.ticker == expected.ticker
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@st.composite
def valid_series(draw, min_size=0):
    n = draw(st.integers(min_size, 30))
    ordinals = sorted(draw(st.sets(st.integers(1, 3_652_059), min_size=n,
                                   max_size=n)))
    price = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
    columns = [draw(st.lists(price, min_size=n, max_size=n)) for _ in range(4)]
    volume = draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=n, max_size=n))
    days = [np.datetime64(date.fromordinal(o)) for o in ordinals]
    return OhlcvSeries("P", np.array(days, dtype="datetime64[D]"), *columns,
                       volume)


class TestCsv:
    def test_two_lines(self):
        text = ("Date,Open,High,Low,Close,Volume\n"
                "2020-01-02,10,11,9,10.5,100\n"
                "2020-01-03,10.5,12,10,11,200\n")
        series = md.parse_ohlcv_csv(text, "X")
        assert len(series) == 2
        assert series.close.tolist() == [10.5, 11.0]
        assert series.days.tolist() == [date(2020, 1, 2), date(2020, 1, 3)]
        assert series.volume.dtype == np.int64

    def test_zero_close_rejected_with_line(self):
        text = ("Date,Open,High,Low,Close,Volume\n"
                "2020-01-02,10,11,9,0,100\n")
        with pytest.raises(ValidationError, match="line 2"):
            md.parse_ohlcv_csv(text)

    def test_wrong_header(self):
        with pytest.raises(FormatError):
            md.parse_ohlcv_csv("Open,Date,High,Low,Close,Volume\n")

    def test_round_trip_identity(self, rng):
        closes = np.exp(rng.normal(0, 0.5, 50)) * 100
        original = series_of(closes)
        parsed = md.parse_ohlcv_csv(md.serialize_ohlcv_csv(original), "TEST")
        assert_same_columns(parsed, original)

    def test_undecodable_bytes_report_offset(self):
        blob = b"Date,Open,High,Low,Close,Volume\n2020-01-02,1\xff,2,1,1,5\n"
        with pytest.raises(FormatError, match="byte offset 44"):
            md.parse_ohlcv_csv(blob, "X")

    def test_volume_beyond_int64_is_format_error(self):
        text = ("Date,Open,High,Low,Close,Volume\n"
                f"2020-01-02,10,11,9,10.5,{2 ** 63}\n")
        with pytest.raises(FormatError, match="volume"):
            md.parse_ohlcv_csv(text)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(valid_series())
    def test_round_trip_property(self, series):
        text = md.serialize_ohlcv_csv(series)
        parsed = md.parse_ohlcv_csv(text, series.ticker)
        assert_same_columns(parsed, series)
        assert md.serialize_ohlcv_csv(parsed) == text

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(valid_series(min_size=1), st.data())
    def test_non_finite_price_rejected_property(self, series, data):
        lines = md.serialize_ohlcv_csv(series).split("\n")
        row = data.draw(st.integers(0, len(series) - 1))
        column = data.draw(st.integers(1, 4))
        fields = lines[row + 1].split(",")
        fields[column] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[row + 1] = ",".join(fields)
        with pytest.raises(ValidationError, match=f"line {row + 2}"):
            md.parse_ohlcv_csv("\n".join(lines), series.ticker)

    def test_unsorted_dates_rejected(self):
        with pytest.raises(ValidationError, match="row 1"):
            OhlcvSeries("X", ["2020-01-03", "2020-01-02"], [1, 1], [1, 1],
                        [1, 1], [1, 1], [0, 0])


class TestSeries:
    def test_take_by_index_and_mask(self):
        series = series_of([1.0, 2.0, 3.0, 4.0])
        assert series.take(np.array([0, 2])).close.tolist() == [1.0, 3.0]
        assert series.take(series.close > 2).days.tolist() == \
            series.days[2:].tolist()
        with pytest.raises(ValidationError, match="row 1"):
            series.take(np.array([2, 0]))

    def test_column_lengths_must_match(self):
        with pytest.raises(ValidationError, match="equal length"):
            OhlcvSeries("X", ["2020-01-02", "2020-01-03"], [1, 1], [1, 1],
                        [1, 1], [1, 1], [0])


def chart_payload(days, quote):
    ts = [int(date.fromisoformat(d).toordinal() - date(1970, 1, 1).toordinal())
          * 86400 + 50000 for d in days]
    return {"chart": {"result": [{"timestamp": ts,
                                  "indicators": {"quote": [quote]}}],
                      "error": None}}


class TestChartParsing:
    def test_missing_field_row_dropped(self):
        payload = chart_payload(
            ["2020-01-02", "2020-01-03"],
            {"open": [1, 1], "high": [2, 2], "low": [0.5, 0.5],
             "close": [1.5, 1.5], "volume": [10, None]})
        result = md.parse_chart_json(json.dumps(payload), "X")
        assert result.dropped_rows == 1
        assert len(result.series) == 1

    def test_shuffled_dates_sorted(self):
        payload = chart_payload(
            ["2020-01-06", "2020-01-02", "2020-01-03"],
            {"open": [1, 1, 1], "high": [2, 2, 2], "low": [0.5] * 3,
             "close": [1.5, 1.6, 1.7], "volume": [1, 2, 3]})
        result = md.parse_chart_json(json.dumps(payload), "X")
        assert result.series.days.tolist() == [
            date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
        assert result.series.close.tolist() == [1.6, 1.7, 1.5]

    def test_invalid_json_reports_offset(self):
        with pytest.raises(FormatError, match="byte offset"):
            md.parse_chart_json('{"chart": nope}', "X")

    def test_undecodable_bytes_report_offset(self):
        with pytest.raises(FormatError, match="byte offset 11"):
            md.parse_chart_json(b'{"chart": "\xff"}', "X")

    def test_empty_result(self):
        payload = chart_payload([], {"open": [], "high": [], "low": [],
                                     "close": [], "volume": []})
        with pytest.raises(EmptyDataError):
            md.parse_chart_json(json.dumps(payload), "X")

    def test_missing_column_drops_every_row(self):
        payload = chart_payload(["2020-01-02"], {"open": [1], "high": [2],
                                                 "low": [0.5], "close": [1.5]})
        with pytest.raises(EmptyDataError):
            md.parse_chart_json(json.dumps(payload), "X")

    def test_short_column_rejected(self):
        payload = chart_payload(
            ["2020-01-02", "2020-01-03"],
            {"open": [1, 1], "high": [2, 2], "low": [0.5, 0.5],
             "close": [1.5], "volume": [10, 10]})
        with pytest.raises(FormatError, match="close"):
            md.parse_chart_json(json.dumps(payload), "X")

    def test_non_list_column_rejected(self):
        payload = chart_payload(
            ["2020-01-02"], {"open": [1], "high": 2, "low": [0.5],
                             "close": [1.5], "volume": [10]})
        with pytest.raises(FormatError, match="high"):
            md.parse_chart_json(json.dumps(payload), "X")

    @pytest.mark.parametrize("field, edit", [
        ("timestamp", lambda r: r.update(timestamp=5)),
        ("quote", lambda r: r["indicators"].update(quote=[[1, 2]])),
        ("timestamp", lambda r: r.update(timestamp=["2020-01-02"])),
        ("close", lambda r: r["indicators"]["quote"][0].update(close=["x"])),
        ("timestamp", lambda r: r.update(timestamp=[1e20])),
        ("volume", lambda r: r["indicators"]["quote"][0].update(
            volume=[2 ** 64])),
    ], ids=["non_list_timestamp", "non_dict_quote", "string_timestamp",
            "non_numeric_price", "overflowing_timestamp",
            "overflowing_volume"])
    def test_malformed_field_is_format_error(self, field, edit):
        payload = chart_payload(["2020-01-02"], {
            "open": [1], "high": [2], "low": [0.5], "close": [1.5],
            "volume": [10]})
        edit(payload["chart"]["result"][0])
        with pytest.raises(FormatError, match=field):
            md.parse_chart_json(payload, "X")

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_raises_only_documented_errors(self, data):
        value = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4),
            lambda kids: st.lists(kids, max_size=3)
            | st.dictionaries(st.text(max_size=4), kids, max_size=3),
            max_leaves=6)
        # half the payloads may hold an arbitrary JSON value at any node
        arbitrary = data.draw(st.booleans())
        n = data.draw(st.integers(0, 4))

        def node(strategy):
            return strategy | value if arbitrary else strategy

        def column(element):
            return node(st.lists(node(element), min_size=n, max_size=n))

        quote = node(st.fixed_dictionaries({
            key: column(st.floats(-1, 1e3))
            for key in ("open", "high", "low", "close", "volume")}))
        payload = {"chart": {"result": [{
            "timestamp": data.draw(column(st.integers(-2**36, 2**36))),
            "indicators": {"quote": [data.draw(quote)]}}]}}
        try:
            md.parse_chart_json(payload, "X")
        except (FormatError, EmptyDataError, ValidationError):
            pass


def outcome(parse, *args):
    """What ``parse(*args)`` returns, or the type and message it raises."""
    try:
        return parse(*args)
    except (FormatError, ValidationError, EmptyDataError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    if isinstance(want, md.FetchResult):
        assert got.dropped_rows == want.dropped_rows
        got, want = got.series, want.series
    assert_same_columns(got, want)


# each edit changes the lines of a serialized series, the header first
def _edit_field(column, values):
    def edit(lines, data):
        row = data.draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        if len(fields) > column:
            fields[column] = data.draw(values(fields[column]))
        lines[row] = ",".join(fields)
    return edit


def _move_last_field(lines, data):
    # one line loses its volume and the next gains it in front of its date,
    # which keeps the file's comma count
    if len(lines) > 2:
        row = data.draw(st.integers(1, len(lines) - 2))
        head, last = lines[row].rsplit(",", 1)
        lines[row:row + 2] = [head, f"{last},{lines[row + 1]}"]


def _swap_lines(lines, data):
    a, b = (data.draw(st.integers(1, len(lines) - 1)) for _ in range(2))
    lines[a], lines[b] = lines[b], lines[a]


def _insert_line(make):
    def edit(lines, data):
        row = data.draw(st.integers(1, len(lines)))
        lines.insert(row, make(lines, data))
    return edit


def _price(make):
    return _edit_field(4, lambda old: make)


def _end_line(lines, data):
    row = data.draw(st.integers(0, len(lines) - 1))
    lines[row] += data.draw(st.sampled_from(["\r", " ", "\t"]))


CSV_EDITS = {
    "line_end": _end_line,
    "blank_line": _insert_line(lambda lines, data: data.draw(
        st.sampled_from(["", "  ", "\r"]))),
    "padded_field": lambda lines, data: _edit_field(
        data.draw(st.integers(0, 5)),
        lambda old: st.sampled_from([f" {old}", f"{old} "]))(lines, data),
    "basic_date": _edit_field(0, lambda old: st.just(old.replace("-", ""))),
    "year_zero": _edit_field(0, lambda old: st.just("0000" + old[4:])),
    "signed_year": _edit_field(0, lambda old: st.just("+" + old[1:])),
    "not_a_day": _edit_field(0, lambda old: st.sampled_from(
        ["2021-02-29", "2020-13-01", "2020-00-10", "NaT", "2020-01-02T00"])),
    "non_finite": _price(st.sampled_from(["nan", "inf", "-inf", "NaN"])),
    "underscore": _price(st.just("1_000.5")),
    "unicode_digits": _price(st.just("١٢.5")),
    "nonpositive": _price(st.sampled_from(["0", "-1.5", "5e-324", "1e-400"])),
    "big_volume": _edit_field(5, lambda old: st.sampled_from(
        [str(2 ** 63), str(-2 ** 63 - 1), str(2 ** 63 - 1)])),
    "negative_volume": _edit_field(5, lambda old: st.just("-5")),
    "float_volume": _edit_field(5, lambda old: st.just("5.0")),
    "moved_field": _move_last_field,
    "swapped_lines": _swap_lines,
    "repeated_line": _insert_line(lambda lines, data: lines[
        data.draw(st.integers(1, len(lines) - 1))]),
    "no_final_newline": lambda lines, data: lines.pop(),
}


@st.composite
def edited_csv(draw):
    series = draw(valid_series(min_size=1))
    lines = md.serialize_ohlcv_csv(series).split("\n")
    for name in draw(st.lists(st.sampled_from(sorted(CSV_EDITS)),
                              max_size=3)):
        if len(lines) > 1:      # the header and at least one more line
            CSV_EDITS[name](lines, draw(st.data()))
    return "\n".join(lines)


_OUT_OF_RANGE = [253402300800, -62135596801, 10 ** 12, -10 ** 12, 2 ** 63,
                 2 ** 64]


def _chart_edit(key, values, drop=False):
    """Set one entry of ``key`` (a quote column, or "timestamp") to a drawn
    value; with ``drop``, also null that row's close."""
    def edit(ts, quote, data):
        column = ts if key == "timestamp" else quote[key]
        row = data.draw(st.integers(0, len(ts) - 1))
        column[row] = data.draw(values(column[row]))
        if drop:
            quote["close"][row] = None
    return edit


CHART_EDITS = {
    "nan_price": _chart_edit("close", lambda old: st.just(math.nan)),
    "nan_volume": _chart_edit("volume", lambda old: st.just(math.nan)),
    "float_timestamp": _chart_edit("timestamp", lambda old: st.sampled_from(
        [float(old), old + 0.5])),
    "str_timestamp": _chart_edit("timestamp", lambda old: st.just(str(old))),
    "bool_timestamp": _chart_edit("timestamp", lambda old: st.booleans()),
    "timestamp_rounding_to_next_day": _chart_edit(
        "timestamp", lambda old: st.just(old // 86400 * 86400 + 86399.9999996)),
    "out_of_range_kept": _chart_edit(
        "timestamp", lambda old: st.sampled_from(_OUT_OF_RANGE)),
    "out_of_range_dropped": _chart_edit(
        "timestamp", lambda old: st.sampled_from(_OUT_OF_RANGE), drop=True),
    "str_volume": _chart_edit("volume", lambda old: st.sampled_from(
        [str(old), f" {old}", "1.7", "x"])),
    "float_volume": _chart_edit("volume", lambda old: st.sampled_from(
        [old + 0.7, -0.5, float(old), math.inf])),
    "bool_volume": _chart_edit("volume", lambda old: st.booleans()),
    "big_volume": _chart_edit("volume", lambda old: st.sampled_from(
        [2 ** 63, -2 ** 63 - 1, 2 ** 64, 10 ** 400])),
    "big_volume_dropped": _chart_edit("volume", lambda old: st.just(2 ** 63),
                                      drop=True),
    "str_price": _chart_edit("open", lambda old: st.sampled_from(
        [repr(old), "1_000.5", "nan", " 2.5", "x"])),
    "bool_price": _chart_edit("high", lambda old: st.booleans()),
    "big_price": _chart_edit("low", lambda old: st.sampled_from(
        [2 ** 64, 10 ** 400])),
    "nested_price": _chart_edit("low", lambda old: st.just([old])),
    "nonpositive_price": _chart_edit("close", lambda old: st.sampled_from(
        [0.0, -1.5, math.inf])),
    "negative_volume": _chart_edit("volume", lambda old: st.just(-5)),
    "missing_column": lambda ts, quote, data: quote.pop(
        data.draw(st.sampled_from(sorted(quote)))),
}


@st.composite
def edited_chart(draw):
    """A chart document's timestamps and quote: days unsorted, maybe
    repeated, some fields null, then up to three edits."""
    n = draw(st.integers(1, 12))
    ordinals = draw(st.lists(st.integers(737_000, 737_030), min_size=n,
                             max_size=n, unique=draw(st.booleans())))
    ts = [(o - md._EPOCH_ORDINAL) * 86400 + draw(st.integers(0, 86399))
          for o in ordinals]
    price = st.floats(1e-3, 1e6)
    quote = {key: draw(st.lists(price, min_size=n, max_size=n))
             for key in md.PRICE_COLUMNS}
    quote["volume"] = draw(st.lists(st.integers(0, 2 ** 62), min_size=n,
                                    max_size=n))
    for key, row in draw(st.sets(st.tuples(st.sampled_from(sorted(quote)),
                                           st.integers(0, n - 1)),
                                 max_size=3)):
        quote[key][row] = None
    names = draw(st.lists(st.sampled_from(sorted(CHART_EDITS)), max_size=3))
    for name in sorted(names, key=lambda name: name == "missing_column"):
        CHART_EDITS[name](ts, quote, draw(st.data()))
    return ts, quote


class TestColumnPaths:
    """The column-at-a-time parsers against the per-row reference."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(edited_csv())
    def test_csv_matches_per_line_reference(self, text):
        want = outcome(md._csv_rows, text, "P")
        assert_same_outcome(outcome(md.parse_ohlcv_csv, text, "P"), want)
        assert_same_outcome(outcome(md.parse_ohlcv_csv, text.encode(), "P"),
                            want)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(edited_chart())
    def test_chart_matches_per_row_reference(self, document):
        ts, quote = document
        payload = {"chart": {"result": [{"timestamp": ts, "indicators": {
            "quote": [quote]}}]}}
        assert_same_outcome(outcome(md.parse_chart_json, payload, "X"),
                            outcome(md._chart_rows, ts, quote, "X"))

    @pytest.mark.parametrize("text", [
        "2020-01-02,1,2,3,4\n5,2020-01-03,1,2,3,4,5\n",
        "2020-01-02,1,2,3,4,5,2020-01-03,1,2,3,4\n5\n",
    ], ids=["moved_volume", "merged_lines"])
    def test_csv_lines_with_compensating_commas_are_rejected(self, text):
        # the file holds five commas a line on average, but not on each line
        with pytest.raises(FormatError, match="line 2: expected 6 fields"):
            md.parse_ohlcv_csv(f"{md.CSV_HEADER}\n{text}", "X")

    @pytest.mark.parametrize("nest", ["timestamp", "quote"])
    def test_chart_nested_values_follow_reference(self, nest):
        # NumPy reads equal-length nested lists as one more axis
        ts = [[86400], [172800]] if nest == "timestamp" else [86400, 172800]
        value = [[1.5], [1.5]] if nest == "quote" else [1.5, 1.5]
        quote = {key: value for key in (*md.PRICE_COLUMNS, "volume")}
        payload = {"chart": {"result": [{"timestamp": ts, "indicators": {
            "quote": [quote]}}]}}
        want = outcome(md._chart_rows, ts, quote, "X")
        assert want[0] is FormatError
        assert outcome(md.parse_chart_json, payload, "X") == want

    def test_next_day_rounding_follows_fromtimestamp(self):
        # floor division would keep this stamp on 1970-01-01
        payload = chart_payload(["1970-01-02"], {
            "open": [1], "high": [2], "low": [0.5], "close": [1.5],
            "volume": [10]})
        payload["chart"]["result"][0]["timestamp"] = [86399.9999996]
        result = md.parse_chart_json(payload, "X")
        assert result.series.days.tolist() == [date(1970, 1, 2)]


class TestColumnPathTaken:
    """Canonical inputs never reach the per-row code."""

    @pytest.fixture(autouse=True)
    def per_row_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-row path taken")
        monkeypatch.setattr(md, "_csv_rows", refuse)
        monkeypatch.setattr(md, "_chart_rows", refuse)

    def test_aapl_fixture(self):
        text = (FIXTURES_DIR / "AAPL_2010_2023.csv").read_text()
        assert len(md.parse_ohlcv_csv(text, "AAPL")) == 3650
        assert len(md.parse_ohlcv_csv(text.encode(), "AAPL")) == 3650

    @settings(derandomize=True, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(valid_series())
    def test_every_serialized_series(self, series):
        parsed = md.parse_ohlcv_csv(md.serialize_ohlcv_csv(series), "P")
        assert_same_columns(parsed, series)

    def test_synthetic_chart_documents(self):
        synth = _load_synth()
        days = synth.business_days_back(synth.END, 2 * synth.DROP_EVERY)
        for i, (ticker, _, alpha, beta) in enumerate(synth.TICKERS):
            payload = synth.chart_json(np.random.default_rng([1, i]), days,
                                       alpha, beta)
            result = md.parse_chart_json(json.dumps(payload), ticker)
            assert result.dropped_rows == 2
            assert len(result.series) == len(days) - 2


class TestFetch:
    def test_fixture_fetch_aapl_span(self, tmp_path):
        # chart fixture derived from the committed AAPL CSV
        series = md.parse_ohlcv_csv(
            open(f"{FIXTURES}/AAPL_2010_2023.csv").read(), "AAPL")
        payload = chart_payload(
            np.datetime_as_string(series.days).tolist(),
            {name: getattr(series, name).tolist()
             for name in ("open", "high", "low", "close", "volume")})
        (tmp_path / "AAPL.json").write_text(json.dumps(payload))
        result = md.fetch_ohlcv("AAPL", date(2010, 1, 1), date(2023, 12, 31),
                                endpoint="unused", fixtures_dir=tmp_path)
        assert result.series.days[0] >= np.datetime64("2010-01-01")
        assert result.series.days[-1] <= np.datetime64("2023-12-31")
        assert_same_columns(result.series, series)

    def test_rows_outside_range_dropped(self, tmp_path):
        payload = chart_payload(
            ["2020-01-02", "2020-01-03", "2020-01-06"],
            {"open": [1, 1, 1], "high": [2, 2, 2], "low": [0.5] * 3,
             "close": [1.5, 1.6, 1.7], "volume": [1, 2, 3]})
        (tmp_path / "X.json").write_text(json.dumps(payload))
        result = md.fetch_ohlcv("X", date(2020, 1, 3), date(2020, 1, 31),
                                endpoint="unused", fixtures_dir=tmp_path)
        assert result.series.close.tolist() == [1.6, 1.7]
        with pytest.raises(EmptyDataError):
            md.fetch_ohlcv("X", date(2020, 2, 1), date(2020, 2, 28),
                           endpoint="unused", fixtures_dir=tmp_path)

    def test_missing_fixture_is_fetch_error(self, tmp_path):
        with pytest.raises(md.FetchError):
            md.fetch_ohlcv("NOPE", date(2020, 1, 1), date(2020, 2, 1),
                           endpoint="unused", fixtures_dir=tmp_path)

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            md.fetch_ohlcv("X", date(2021, 1, 1), date(2020, 1, 1), "unused")


class TestFetchNetwork:
    """The request path, with ``requests.get`` and ``time.sleep`` patched."""

    @pytest.fixture
    def network(self, monkeypatch):
        body = json.dumps(chart_payload(
            ["2020-01-02", "2020-01-03"],
            {"open": [1, 1], "high": [2, 2], "low": [0.5, 0.5],
             "close": [1.5, 1.6], "volume": [10, 20]})).encode()
        outcomes, calls, sleeps = [], [], []

        class Response:
            content = body

            def raise_for_status(self):
                pass

        def get(url, params, timeout):
            calls.append((url, params))
            if outcomes.pop(0) == "fail":
                raise requests.ConnectionError("connection refused")
            return Response()

        monkeypatch.setattr(requests, "get", get)
        monkeypatch.setattr(md.time, "sleep", sleeps.append)
        return outcomes, calls, sleeps

    def fetch(self):
        return md.fetch_ohlcv("X", date(2020, 1, 1), date(2020, 1, 31),
                              "https://chart.test/v8/chart/")

    def test_retries_until_success(self, network):
        outcomes, calls, sleeps = network
        outcomes.extend(["fail", "fail", "ok"])
        result = self.fetch()
        assert result.series.close.tolist() == [1.5, 1.6]
        assert sleeps == [0.5, 1.0]
        assert len(calls) == 3
        url, params = calls[0]
        assert url == "https://chart.test/v8/chart/X"
        assert params["interval"] == "1d"

    def test_requested_window_covers_the_whole_end_day(self, network):
        outcomes, calls, _ = network
        outcomes.append("ok")
        self.fetch()
        (_, params), = calls
        # 00:00 UTC on 2020-01-01, and on 2020-02-01, the day after ``end``
        assert params["period1"] == 1577836800
        assert params["period2"] == 1580515200

    def test_no_sleep_after_last_failure(self, network):
        outcomes, calls, sleeps = network
        outcomes.extend(["fail"] * 3)
        with pytest.raises(md.FetchError, match="after 3 attempts"):
            self.fetch()
        assert sleeps == [0.5, 1.0]
        assert len(calls) == 3


class TestLogReturns:
    def test_constant_prices(self):
        assert md.compute_log_returns([100, 100, 100]).tolist() == [0.0, 0.0]

    def test_direct_values(self):
        assert math.isclose(md.compute_log_returns([100, 110])[0],
                            math.log(1.1), abs_tol=1e-12)
        assert math.isclose(md.compute_log_returns([100, 50])[0],
                            -math.log(2), abs_tol=1e-12)

    def test_nonpositive_price(self):
        with pytest.raises(ValidationError):
            md.compute_log_returns([100, -1])

    def test_exp_cumsum_reconstructs_prices(self, rng):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 200)))
        returns = md.compute_log_returns(prices)
        rebuilt = prices[0] * np.exp(np.cumsum(returns))
        assert np.max(np.abs(rebuilt - prices[1:])) < 1e-9


NON_FINITE = [math.nan, math.inf, -math.inf]


def _chart_with_close(value):
    payload = chart_payload(["2020-01-02", "2020-01-03"], {
        "open": [1, 1], "high": [2, 2], "low": [0.5, 0.5],
        "close": [1.5, value], "volume": [10, 10]})
    return md.parse_chart_json(payload, "X")


def _csv_with_close(value):
    return md.parse_ohlcv_csv("Date,Open,High,Low,Close,Volume\n"
                              "2020-01-02,1,2,0.5,1.5,10\n"
                              f"2020-01-03,1,2,0.5,{value!r},10\n")


def _series_with_close(value):
    return OhlcvSeries("X", ["2020-01-02", "2020-01-03"], [1, 1], [2, 2],
                       [0.5, 0.5], [1.5, value], [10, 10])


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "neg_inf"])
@pytest.mark.parametrize("entry, where", [
    (_chart_with_close, "row 1"),
    (_csv_with_close, "line 3"),
    (_series_with_close, "row 1"),
    (lambda value: md.compute_log_returns([1.5, value]), "finite"),
], ids=["parse_chart_json", "parse_ohlcv_csv", "OhlcvSeries",
        "compute_log_returns"])
def test_non_finite_price_rejected(entry, where, value):
    with pytest.raises(ValidationError, match=where):
        entry(value)


class TestRollingVolatility:
    def test_zero_returns(self):
        sigma = md.rolling_volatility(np.zeros(40))
        assert np.all(sigma == 0.0)
        assert sigma.size == 20

    def test_constant_returns(self):
        sigma = md.rolling_volatility([0.02] * 21)
        assert sigma.tolist() == [0.0]

    def test_constant_prices_give_zero_sigma(self):
        series = series_of([50.0] * 40)
        sigma = md.feature_matrix(series)[0][:, 0]
        assert np.all(sigma == 0.0)

    def test_brute_force_oracle(self, rng):
        returns = rng.normal(0, 0.02, 1000)
        sigma = md.rolling_volatility(returns)
        for i in range(0, sigma.size, 37):
            window = returns[i:i + 21]
            mu = sum(window) / 21
            var = sum((r - mu) ** 2 for r in window) / 20
            assert abs(sigma[i] - math.sqrt(252 * var)) < 1e-12

    def test_length_contract(self, rng):
        series = series_of(np.exp(rng.normal(0, 0.01, 100)) * 10)
        sigma = md.feature_matrix(series)[0][:, 0]
        assert sigma.size == len(series) - 1 - 20
        with pytest.raises(LengthError):
            md.rolling_volatility(np.zeros(5))


class TestMakeWindows:
    def test_index_arithmetic(self, rng):
        values = np.arange(10.0)
        ds = md.make_windows(values, lookback=4, horizon=2)
        assert len(ds) == 5
        assert ds.x[0, :, 0].tolist() == [0, 1, 2, 3]
        assert ds.y[0].tolist() == [4, 5]

    def test_exact_boundary(self):
        ds = md.make_windows(np.arange(6.0), lookback=4, horizon=2)
        assert len(ds) == 1
        assert ds.x.flags.writeable and ds.y.flags.writeable

    def test_too_short(self):
        with pytest.raises(LengthError):
            md.make_windows(np.arange(5.0), lookback=4, horizon=2)

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_list_stack_reference(self, rng, horizon, channels):
        values = rng.normal(size=(23, channels))
        ds = md.make_windows(values, lookback=5, horizon=horizon)
        starts = range(23 - 5 - horizon + 1)
        x = np.stack([values[i:i + 5] for i in starts])
        y = np.stack([values[i + 5:i + 5 + horizon, 0] for i in starts])
        for got, expected in ((ds.x, x), (ds.y, y)):
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestSplit:
    def test_contiguous_arithmetic(self):
        ds = md.make_windows(np.arange(125.0), lookback=4, horizon=2)
        assert len(ds) == 120
        md.split_chronological(ds)     # gap = lookback + horizon - 1 = 5
        assert ds.test_range == (96, 120)
        assert ds.val_range == (83, 91)
        assert ds.train_range == (0, 78)

    def test_val_is_ten_percent_of_train(self, rng):
        for n_extra in (0, 37, 111, 400):
            ds = md.make_windows(np.arange(300.0 + n_extra), lookback=8,
                                 horizon=4)
            md.split_chronological(ds)
            n_train = ds.train_range[1] - ds.train_range[0]
            n_val = ds.val_range[1] - ds.val_range[0]
            assert abs(n_val - round(0.1 * n_train)) <= 1

    def test_chronological_ordering(self):
        ds = md.make_windows(np.arange(300.0), lookback=8, horizon=4)
        md.split_chronological(ds)
        assert ds.train_range[1] <= ds.val_range[0]
        assert ds.val_range[1] <= ds.test_range[0]

    def test_no_leakage_with_default_gap(self):
        ds = md.make_windows(np.arange(400.0), lookback=8, horizon=4)
        md.split_chronological(ds)
        # every val/test lookback starts after every train target index
        max_train_target = (ds.train_range[1] - 1) + ds.lookback + ds.horizon - 1
        assert ds.val_range[0] > max_train_target
        max_val_target = (ds.val_range[1] - 1) + ds.lookback + ds.horizon - 1
        assert ds.test_range[0] > max_val_target

    def test_degenerate_split_rejected(self):
        ds = md.make_windows(np.arange(9.0), lookback=4, horizon=2)
        with pytest.raises(SplitError):
            md.split_chronological(ds)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(lookback=st.integers(1, 64), horizon=st.integers(1, 32),
           extra=st.integers(0, 400))
    def test_never_leaks(self, lookback, horizon, extra):
        # The series is its own time index, so x holds each sample's lookback
        # steps and y its target steps.
        ds = md.make_windows(np.arange(float(lookback + horizon + extra)),
                             lookback, horizon)
        try:
            md.split_chronological(ds)
        except SplitError:
            return
        ranges = (ds.train_range, ds.val_range, ds.test_range)
        assert all(0 <= lo < hi <= len(ds) for lo, hi in ranges)
        (_, train_y), (val_x, val_y), (test_x, _) = ds.train, ds.val, ds.test
        assert train_y.max() < val_x.min()
        assert val_y.max() < test_x.min()


class TestFeatureMatrix:
    def test_univariate_default(self, rng):
        series = series_of(np.exp(rng.normal(0, 0.01, 80)) * 10)
        values, dates = md.feature_matrix(series)
        assert values.shape == (80 - 21, 1)
        assert len(dates) == values.shape[0]

    def test_covariate_channels(self, rng):
        series = series_of(np.exp(rng.normal(0, 0.01, 80)) * 10)
        values, _ = md.feature_matrix(series, covariates=True)
        assert values.shape == (80 - 21, 3)
        returns = md.compute_log_returns(series.close)
        assert np.allclose(values[:, 1], returns[20:])


class TestRoster:
    def test_from_json(self, tmp_path):
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([
            {"ticker": "AAPL", "start": "2010-01-01", "end": "2023-12-31",
             "display_name": "Apple Inc.", "asset_class": "stock"},
            {"ticker": "BTCUSD", "start": "2014-01-01", "end": "2023-12-31",
             "asset_class": "crypto"},
        ]))
        roster = md.AssetRoster.from_json(path)
        assert [e.ticker for e in roster.entries] == ["AAPL", "BTCUSD"]
        # keys other than ticker, start and end are ignored
        assert roster.entries[0] == md.RosterEntry(
            "AAPL", date(2010, 1, 1), date(2023, 12, 31))

    def test_duplicate_tickers_rejected(self):
        entry = md.RosterEntry("A", date(2020, 1, 1), date(2021, 1, 1))
        with pytest.raises(ValidationError):
            md.AssetRoster([entry, entry])

    def test_inverted_range_rejected(self):
        entry = md.RosterEntry("A", date(2021, 1, 1), date(2020, 1, 1))
        with pytest.raises(ValidationError):
            md.AssetRoster([entry])

    @pytest.mark.parametrize("ticker", ["^GSPC", "EURUSD=X", "BTC-USD",
                                        "BRK.B", "a_1", "0"])
    def test_market_tickers_accepted(self, ticker):
        md.AssetRoster([md.RosterEntry(ticker, date(2020, 1, 1),
                                       date(2021, 1, 1))])

    @pytest.mark.parametrize("ticker", [
        "../escape", "a/b", "/abs", "..", ".hidden", "A,B", "A:persistence",
        "", " A", "A B", "A\n", "A\\B", "Ä", 5, None, ["A"], b"A"])
    def test_unsafe_tickers_rejected(self, ticker):
        good = md.RosterEntry("OK", date(2020, 1, 1), date(2021, 1, 1))
        bad = md.RosterEntry(ticker, date(2020, 1, 1), date(2021, 1, 1))
        with pytest.raises(ValidationError, match="roster entry 1: ticker"):
            md.AssetRoster([good, bad])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(alphabet=st.sampled_from("A^=._-/\\:,. 0z\x00"),
                             max_size=6),
                     st.text(max_size=6)))
    def test_accepted_ticker_caches_inside_data_dir(self, tmp_path_factory,
                                                    ticker):
        start, end = date(2020, 1, 1), date(2021, 1, 1)
        try:
            md.AssetRoster([md.RosterEntry(ticker, start, end)])
        except ValidationError:
            return
        data_dir = tmp_path_factory.getbasetemp() / "data"
        path = md.cache_path(data_dir, ticker, start, end)
        assert path.resolve().parent == data_dir.resolve()
        assert path.name.startswith(ticker + "_")
