import csv
import re

import numpy as np
import pytest

from flucast import datahub, decompose
from ili_csv import series_rows, write_ili_csv


class TestWeeks:
    def test_parse_and_format_roundtrip(self):
        idx = datahub.parse_week("2017-W30")
        assert datahub.format_week(idx) == "2017-W30"

    def test_week53_maps_to_drop_marker(self):
        assert datahub.parse_week("2015-W53") == -1  # 2015 has 53 weeks

    def test_week53_invalid_year_rejected(self):
        with pytest.raises(datahub.DataError):
            datahub.parse_week("2016-W53")

    def test_malformed_rejected(self):
        for bad in ("2015W10", "2015-w10", "15-W10", "2015-W60"):
            with pytest.raises(datahub.DataError):
                datahub.parse_week(bad)

    def test_year_boundary_consecutive(self):
        assert (datahub.parse_week("2018-W01")
                == datahub.parse_week("2017-W52") + 1)


def dictreader_fields(path, names):
    """(line number, fields) of each row, read with csv.DictReader under
    `datahub.read_csv`'s header rule, numbered by the reader's
    `line_num`: blank lines count.

    The header is the first row that is not blank, its names stripped,
    and a name it lacks is refused before any row.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        while (reader.fieldnames is not None and len(reader.fieldnames) < 2
               and not "".join(reader.fieldnames).strip()):
            reader.fieldnames = None  # a blank row: read the next one
        header = [n.strip() for n in reader.fieldnames or ()]
        absent = [n for n in names if n not in header]
        if absent:
            raise datahub.DataError(
                f"{path}: no {' or '.join(absent)} column")
        reader.fieldnames = header
        for row in reader:
            lineno = reader.line_num
            given = [v for v in row.values() if v is not None]
            if None not in row and len(given) == 1 and not given[0].strip():
                continue  # one field of whitespace
            missing = [n for n in names if row.get(n) is None]
            if missing:
                raise datahub.DataError(
                    f"{path}:{lineno}: row has no {', '.join(missing)}")
            yield lineno, [row[n] for n in names]


def dictreader_read_trend(path, series):
    """`read_trend` before this reader: DictReader rows and a loop over
    the series weeks that forward-fills from the file weeks it meets. A
    file with no data row is refused; it once read as all zeros."""
    by_week, lineno = {}, None
    for lineno, (week, value) in dictreader_fields(path,
                                                   ("iso_week", "value")):
        try:
            idx = datahub.parse_week(week)
            value = float(value)
        except ValueError as e:
            raise datahub.DataError(f"{path}:{lineno}: {e}") from None
        if idx >= 0:
            by_week[idx] = value
    if lineno is None:
        raise datahub.DataError(f"{path}: no data row")
    values, last = np.zeros(len(series)), 0.0
    for i, week in enumerate(series.weeks()):
        if week in by_week:
            last = by_week[week]
        values[i] = last
    return values


def dictreader_ili_rates(path):
    """The {country: {week: rate}} that `load_ili` read with DictReader."""
    rows = {}
    for lineno, (week, country, rate) in dictreader_fields(
            path, ("iso_week", "country", "ili_rate")):
        try:
            idx = datahub.parse_week(week)
            rate = float(rate)
        except ValueError as e:
            raise datahub.DataError(f"{path}:{lineno}: {e}") from None
        if idx >= 0:
            rows.setdefault(country, {})[idx] = rate
    return rows


TREND_FILES = {
    "interior_gaps": "iso_week,value\n2015-W02,1.5\n2015-W05,4.25\n"
                     "2015-W09,0.0\n2015-W10,7\n",
    "before_and_after_series": "iso_week,value\n2014-W50,9.0\n"
                               "2014-W52,8.0\n2015-W03,1.0\n"
                               "2015-W12,2.0\n2016-W01,3.0\n",
    "starts_before_series_with_gap": "iso_week,value\n2014-W51,9.0\n"
                                     "2015-W04,1.0\n",
    "only_before_series": "iso_week,value\n2014-W40,9.0\n",
    "unsorted_duplicates": "iso_week,value\n2015-W04,1.0\n"
                           "2015-W02,2.0\n2015-W04,3.0\n2015-W02,-0.0\n",
    "week53": "iso_week,value\n2015-W52,1.0\n2015-W53,9.0\n"
              "2016-W01,2.0\n",
    "swapped_columns": "value,iso_week\n1.0,2015-W01\n2.0,2015-W06\n",
    "extra_columns": "country,iso_week,note,value\nUS,2015-W01,a,1.0\n"
                     "US,2015-W03,b,2.0,x,y\n",
    "repeated_column": "iso_week,value,value\n2015-W01,1.0,5.0\n",
    "blank_lines": "iso_week,value\n\n2015-W01,1.0\n\n\n2015-W04,2.0\n\n",
    "crlf_and_quotes": 'iso_week,value\r\n"2015-W02","1e-3"\r\n'
                       ' 2015-W03 , 2.5 \r\n',
    "header_only": "iso_week,value\n",
    "empty": "",
    "short_row": "iso_week,value\n2015-W01,1.0\n2015-W02\n",
    "short_row_after_blank": "iso_week,value\n\n2015-W01,1.0\n\n2015-W02\n",
    "no_value_column": "iso_week,count\n2015-W01,1.0\n",
    "malformed_value": "iso_week,value\n2015-W01,1.0\n2015-W02,n/a\n",
    "malformed_week": "iso_week,value\n2015-W01,1.0\n2015-W60,2.0\n",
    "week53_bad_year": "iso_week,value\n2016-W53,2.0\n",
    "padded_header_whitespace_rows": "  \n iso_week ,\tvalue \n \n"
                                     "2015-W01,1.0\n\t\n2015-W03,2.0\n",
}


class TestReadTrendMatchesDictReader:
    """`read_trend` returns the old reader's array bit for bit, and
    raises its error with the same `path:line` message."""

    @pytest.mark.parametrize("case", sorted(TREND_FILES))
    def test_against_oracle(self, tmp_path, case):
        path = tmp_path / "q.csv"
        path.write_bytes(TREND_FILES[case].encode("utf-8"))
        for start, weeks in (("2015-W01", 12), ("2014-W52", 3),
                             ("2015-W03", 60)):
            series = datahub.WeeklySeries(
                country="US", start=datahub.parse_week(start),
                values=np.ones(weeks))
            try:
                want = dictreader_read_trend(str(path), series)
            except datahub.DataError as e:
                with pytest.raises(datahub.DataError) as got:
                    datahub.read_trend(str(path), series)
                assert str(got.value) == str(e)
                assert "q.csv:" in str(e)
                continue
            got = datahub.read_trend(str(path), series)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_leading_gap_is_not_carried_in(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(TREND_FILES["starts_before_series_with_gap"],
                        encoding="utf-8")
        series = datahub.WeeklySeries(
            country="US", start=datahub.parse_week("2015-W01"),
            values=np.ones(6))
        assert np.array_equal(datahub.read_trend(str(path), series),
                              [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


ILI_FILES = {
    "plain": "iso_week,country,ili_rate\n2015-W01,US,1.0\n"
             "2015-W02,US,2.0\n2015-W01,JP,3.0\n2015-W02,JP,4.0\n",
    "swapped_extra_blank": "country,ili_rate,note,iso_week\n\n"
                           "US,1.0,x,2015-W52\nUS,9.0,y,2015-W53\n\n"
                           "US,2.0,,2016-W01\n",
    "missing_column": "iso_week,country,rate\n2015-W01,US,1.0\n",
    "empty": "",
    "blank_header": "\niso_week,country,ili_rate\n2015-W01,US,1.0\n",
    "short_row_after_blank": "iso_week,country,ili_rate\n\n"
                             "2015-W01,US,1.0\n2015-W02,US\n",
    "malformed_rate": "iso_week,country,ili_rate\n2015-W01,US,x\n",
}


class TestLoadIliMatchesDictReader:
    @pytest.mark.parametrize("case", sorted(ILI_FILES))
    def test_against_oracle(self, tmp_path, case):
        path = tmp_path / "ili.csv"
        path.write_text(ILI_FILES[case], encoding="utf-8")
        try:
            want = dictreader_ili_rates(str(path))
        except datahub.DataError as e:
            with pytest.raises(datahub.DataError) as got:
                datahub.load_ili(str(path))
            assert str(got.value) == str(e)
            return
        got = datahub.load_ili(str(path))
        assert {c: dict(zip(s.weeks().tolist(), s.values.tolist()))
                for c, s in got.items()} == want


@pytest.mark.parametrize("name, text, where", [
    ("q.csv", TREND_FILES["short_row_after_blank"], "q.csv:5: row has no"),
    ("ili.csv", ILI_FILES["short_row_after_blank"],
     "ili.csv:4: row has no")], ids=["trends", "ili"])
def test_short_row_after_blank_names_its_physical_line(tmp_path, name, text,
                                                       where):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(datahub.DataError, match=where):
        if name == "ili.csv":
            datahub.load_ili(str(path))
        else:
            datahub.read_trend(str(path), datahub.WeeklySeries(
                country="US", start=datahub.parse_week("2015-W01"),
                values=np.ones(3)))


class TestLoadIli:
    def test_sorted_regardless_of_file_order(self, tmp_path):
        path = tmp_path / "ili.csv"
        write_ili_csv(path, [("2015-W03", "US", 3.0),
                             ("2015-W01", "US", 1.0),
                             ("2015-W02", "US", 2.0)])
        series = datahub.load_ili(str(path))["US"]
        assert np.array_equal(series.values, [1.0, 2.0, 3.0])
        assert datahub.format_week(series.start) == "2015-W01"

    def test_week53_dropped_and_neighbors_consecutive(self, tmp_path):
        path = tmp_path / "ili.csv"
        write_ili_csv(path, [("2015-W52", "US", 1.0),
                             ("2015-W53", "US", 9.0),
                             ("2016-W01", "US", 2.0)])
        series = datahub.load_ili(str(path))["US"]
        assert len(series) == 2
        assert np.array_equal(series.values, [1.0, 2.0])

    def test_negative_rate_rejected(self, tmp_path):
        path = tmp_path / "ili.csv"
        write_ili_csv(path, [("2015-W01", "US", -1.0)])
        with pytest.raises(datahub.DataError, match="negative"):
            datahub.load_ili(str(path))

    def test_gap_rejected_listing_weeks(self, tmp_path):
        path = tmp_path / "ili.csv"
        write_ili_csv(path, [("2015-W01", "US", 1.0),
                             ("2015-W04", "US", 2.0)])
        with pytest.raises(datahub.DataError,
                           match="2015-W02, 2015-W03"):
            datahub.load_ili(str(path))

    def test_malformed_week_reports_line(self, tmp_path):
        path = tmp_path / "ili.csv"
        write_ili_csv(path, [("2015-W01", "US", 1.0),
                             ("bogus", "US", 2.0)])
        with pytest.raises(datahub.DataError, match=":3:"):
            datahub.load_ili(str(path))

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        series = datahub.WeeklySeries(
            country="JP", start=datahub.parse_week("2014-W10"),
            values=rng.uniform(0, 30, 120))
        out_path = tmp_path / "out.csv"
        write_ili_csv(out_path, series_rows({"JP": series}))
        back = datahub.load_ili(str(out_path))["JP"]
        assert back.start == series.start
        assert np.array_equal(back.values, series.values)


class TestLoadTrends:
    def make_series(self):
        return datahub.WeeklySeries(country="US",
                                    start=datahub.parse_week("2015-W01"),
                                    values=np.arange(5, dtype=float))

    def test_alignment_and_forward_fill(self, tmp_path):
        series = self.make_series()
        d = tmp_path / "trends" / "US"
        d.mkdir(parents=True)
        (d / "the_flu.csv").write_text(
            "iso_week,value\n2015-W02,1.0\n2015-W04,4.0\n", encoding="utf-8")
        panel = datahub.load_trends(str(tmp_path / "trends"),
                                    ["the flu"], series)
        assert np.array_equal(panel.matrix[:, 0], [0.0, 1.0, 1.0, 4.0, 4.0])

    def test_missing_file_lists_queries(self, tmp_path):
        (tmp_path / "trends" / "US").mkdir(parents=True)
        with pytest.raises(datahub.DataError, match="flu shot"):
            datahub.load_trends(str(tmp_path / "trends"), ["flu shot"],
                                self.make_series())

    def test_slug(self):
        assert datahub.query_slug("The Flu!") == "the_flu"
        assert datahub.query_slug("symptoms of flu") == "symptoms_of_flu"

    def test_slug_drops_the_negated_class_on_every_code_point(self):
        """The removed ranges drop exactly what the negated class they
        replace drops, on a string of all 0x110000 code points."""
        every = "".join(map(chr, range(0x110000)))
        oracle = re.compile(r"[^0-9a-z_\x80-\uffff]")
        assert (re.sub(datahub._SLUG_DROP, "", every)
                == oracle.sub("", every))
        lowered = every.lower().replace(" ", "_")
        assert datahub.query_slug(every) == oracle.sub("", lowered)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN",
                                       "1e999"])
    def test_non_finite_value_names_path_line(self, tmp_path, value):
        """A trends value that is not finite would poison min-max and
        correlations; it is refused where it is read."""
        path = tmp_path / "trends" / "US" / "the_flu.csv"
        path.parent.mkdir(parents=True)
        path.write_text("iso_week,value\n2015-W01,1.0\n"
                        f"2015-W02,{value}\n2015-W03,2.0\n",
                        encoding="utf-8")
        with pytest.raises(datahub.DataError, match=re.escape(
                f"{path}:3: non-finite value")):
            datahub.load_trends(str(tmp_path / "trends"), ["the flu"],
                                self.make_series())


class TestMinmax:
    def make_panel(self, values):
        return datahub.QueryPanel(country="US", queries=["q"],
                                  matrix=np.array(values, dtype=float
                                                  ).reshape(-1, 1))

    def test_direct_formula(self):
        panel = self.make_panel([2, 4, 6])
        norm, stats = datahub.minmax_fit_apply(panel, 3)
        assert np.allclose(norm.matrix[:, 0], [0, 0.5, 1])
        assert stats[0][1:] == (2.0, 6.0)

    def test_no_clipping_outside_training(self):
        panel = self.make_panel([2, 4, 6, 8])
        norm, _ = datahub.minmax_fit_apply(panel, 3)
        assert abs(norm.matrix[3, 0] - 1.5) < 1e-12

    def test_already_unit_interval_fixed_point(self):
        panel = self.make_panel([0.0, 0.25, 1.0])
        norm, _ = datahub.minmax_fit_apply(panel, 3)
        assert np.max(np.abs(norm.matrix[:, 0] - [0.0, 0.25, 1.0])) < 1e-12

    def test_constant_query_dropped_with_warning(self):
        panel = datahub.QueryPanel(
            country="US", queries=["flat", "q"],
            matrix=np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]]))
        with pytest.warns(UserWarning, match="flat"):
            norm, stats = datahub.minmax_fit_apply(panel, 3)
        assert norm.queries == ["q"]
        assert norm.matrix.shape == (3, 1)

    def test_apply_with_saved_stats_matches_fit(self):
        """Stats saved at fit time rebuild the normalized panel bit for bit
        from a panel that holds only the kept queries."""
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0, 4, (20, 3))
        matrix[:, 1] = 2.0
        panel = datahub.QueryPanel(country="US", queries=["a", "flat", "b"],
                                   matrix=matrix)
        with pytest.warns(UserWarning, match="flat"):
            norm, stats = datahub.minmax_fit_apply(panel, 10)
        kept = datahub.QueryPanel(country="US", queries=["a", "b"],
                                  matrix=matrix[:, [0, 2]])
        again = datahub.minmax_apply(kept, stats)
        assert again.queries == norm.queries == ["a", "b"]
        assert np.array_equal(again.matrix, norm.matrix)

    def test_invertibility(self):
        rng = np.random.default_rng(8)
        panel = self.make_panel(rng.uniform(3, 9, 20))
        norm, stats = datahub.minmax_fit_apply(panel, 20)
        _, mn, mx = stats[0]
        back = norm.matrix[:, 0] * (mx - mn) + mn
        assert np.max(np.abs(back - panel.matrix[:, 0])) < 1e-12


def make_windowing_fixture(length=130, n=52, s=5):
    rng = np.random.default_rng(21)
    start = datahub.parse_week("2014-W01")
    series = datahub.WeeklySeries(country="US", start=start,
                                  values=rng.uniform(1, 10, length))
    panel = datahub.QueryPanel(country="US", queries=["a", "b"],
                               matrix=rng.uniform(0, 1, (length, 2)))
    seasonal = rng.uniform(-1, 1, length)
    return series, panel, seasonal


class TestMakeWindows:
    def test_window_count_formula(self):
        series, panel, seasonal = make_windowing_fixture(length=130)
        lo, hi = series.start, series.start + 119  # range length 120
        samples = datahub.make_windows(series, panel, seasonal, 52, 5,
                                       (lo, hi))
        assert len(samples) == 64  # 120 - 52 - 5 + 1

    def test_boundary_single_sample(self):
        series, panel, seasonal = make_windowing_fixture(length=57)
        samples = datahub.make_windows(series, panel, seasonal, 52, 5,
                                       (series.start, series.start + 56))
        assert len(samples) == 1

    def test_count_formula_by_enumeration(self):
        for length in (60, 77, 130):
            for n, s in ((52, 5), (26, 3)):
                series, panel, seasonal = make_windowing_fixture(length)
                got = datahub.make_windows(
                    series, panel, seasonal, n, s,
                    (series.start, series.start + length - 1))
                assert len(got) == length - n - s + 1

    def test_reseasonalization_identity_per_sample(self):
        series, panel, seasonal = make_windowing_fixture()
        samples = datahub.make_windows(series, panel, seasonal, 52, 5,
                                       (series.start, series.end))
        for o, x_seas, y_raw in zip(samples.o, samples.x_seas,
                                    samples.y_raw):
            assert np.max(np.abs(o + x_seas - y_raw)) < 1e-12

    def test_range_too_short_rejected(self):
        series, panel, seasonal = make_windowing_fixture(length=60)
        with pytest.raises(datahub.DataError, match=re.escape(
                "US: no window of N=52, S=5 has its targets in "
                "2014-W01..2014-W51")):
            datahub.make_windows(series, panel, seasonal, 52, 5,
                                 (series.start, series.start + 50))

    def test_forecast_range_gives_the_window_that_ends_the_series(self):
        """With S = 0, targets just past the series select its last N
        weeks, the input of a forecast."""
        series, panel, seasonal = make_windowing_fixture(length=130)
        last = datahub.make_windows(series, panel, seasonal, 52, 0,
                                    (series.end + 1, series.end + 5))
        assert last.last_week.tolist() == [series.end]
        assert np.array_equal(last.x_des[0],
                              series.values[-52:] - seasonal[-52:])
        assert np.array_equal(last.q[0], panel.matrix[-52:])
        assert last.y_raw.shape == (1, 0)

    def test_target_windows_cover_exactly_target_range(self):
        series, panel, seasonal = make_windowing_fixture(length=130)
        lo = series.start + 100
        hi = series.end
        samples = datahub.make_windows(series, panel, seasonal, 52, 5,
                                       (lo, hi))
        firsts = samples.last_week + 1
        assert min(firsts) == lo
        assert max(samples.last_week + 5) == hi


class TestSplitPlan:
    def make_series(self, length=300):
        return datahub.WeeklySeries(country="US",
                                    start=datahub.parse_week("2013-W26"),
                                    values=np.ones(length))

    def test_layout(self):
        series = self.make_series()
        test_start = series.start + 230
        plan = datahub.split_plan(series, test_start, 52)
        assert plan.val == (test_start - 52, test_start - 1)
        assert plan.train == (series.start, test_start - 53)
        assert plan.test == (test_start, test_start + 51)

    def test_insufficient_history(self):
        series = self.make_series(length=200)
        with pytest.raises(datahub.DataError, match="training"):
            datahub.split_plan(series, series.start + 150, 52)

    def test_training_targets_precede_validation(self):
        series, panel, seasonal = make_windowing_fixture(length=280)
        plan = datahub.split_plan(series, series.start + 220, 52)
        train_w = datahub.make_windows(series, panel, seasonal, 52, 5,
                                       plan.train)
        assert all(train_w.last_week + 5 <= plan.train[1])
        assert all(train_w.last_week + 5 < plan.val[0])
