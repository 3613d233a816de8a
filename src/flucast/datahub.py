"""CSV ingestion, calendar alignment, normalization, and training windows.

Weeks use the ISO calendar with week 53 dropped at load time, so every
year has exactly 52 weeks and a week maps to a single integer index
(year * 52 + week - 1). Seasonal phase is that index modulo 52.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import functools
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import Error

WEEKS_PER_YEAR = 52

_WEEK_RE = re.compile(r"^(\d{4})-W(\d{2})$")


class DataError(Error):
    pass


@functools.lru_cache(maxsize=4096)
def parse_week(text: str) -> int:
    """Parse 'YYYY-Www' to a week index; returns -1 for dropped week 53."""
    m = _WEEK_RE.match(text.strip())
    if not m:
        raise DataError(f"malformed iso_week {text!r}, expected YYYY-Www")
    year, week = int(m.group(1)), int(m.group(2))
    if week < 1 or week > 53:
        raise DataError(f"iso_week {text!r} out of range 01..53")
    if week == 53:
        try:
            datetime.date.fromisocalendar(year, 53, 1)
        except ValueError:
            raise DataError(f"iso_week {text!r}: year {year} has no week 53")
        return -1
    return year * WEEKS_PER_YEAR + week - 1


def format_week(index: int) -> str:
    year, w = divmod(index, WEEKS_PER_YEAR)
    return f"{year}-W{w + 1:02d}"


@dataclass(frozen=True)
class WeeklySeries:
    """One country's weekly ILI rates on consecutive week indices."""

    country: str
    start: int  # week index of the first value
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0):
            raise DataError(f"{self.country}: negative ILI rate")

    def __len__(self):
        return len(self.values)

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def weeks(self) -> np.ndarray:
        return np.arange(self.start, self.start + len(self.values))

    def pos(self, week: int) -> int:
        if not self.start <= week <= self.end:
            raise DataError(
                f"{self.country}: week {format_week(week)} outside "
                f"{format_week(self.start)}..{format_week(self.end)}")
        return week - self.start


@dataclass
class QueryPanel:
    """Weekly frequencies of L queries aligned to a WeeklySeries."""

    country: str
    queries: list
    start: int
    matrix: np.ndarray  # weeks x L


@dataclass(frozen=True)
class Windows:
    """One country's supervised windows, one row each: N input weeks up to
    the final input week (time t), then S target weeks."""

    country: str
    last_week: np.ndarray  # (W,) week index of each final input week
    x_raw: np.ndarray  # (W, N) raw ILI values
    x_des: np.ndarray  # (W, N) deseasonalized values
    q: np.ndarray  # (W, N, L) normalized query values
    y_raw: np.ndarray  # (W, S) raw targets
    o: np.ndarray  # (W, S) deseasonalized targets, o = y_raw - x_seas
    x_seas: np.ndarray  # (W, S) seasonal values for the target weeks

    def __len__(self):
        return len(self.last_week)

    def take(self, rows) -> "Windows":
        """The windows at the integer indices `rows`, in that order."""
        return Windows(self.country, *(getattr(self, f.name)[rows]
                                       for f in fields(self)[1:]))


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint, ordered train/validation/test week-index ranges."""

    train: tuple  # (first week, last week), inclusive
    val: tuple
    test: tuple

    def __post_init__(self):
        if not (self.train[1] < self.val[0] <= self.val[1] < self.test[0]):
            raise DataError(f"split ranges must be ordered: {self}")

    @property
    def train_len(self) -> int:
        """Number of training weeks; training starts the series."""
        return self.train[1] - self.train[0] + 1


@contextlib.contextmanager
def open_text(path: str, newline: str = None):
    """The file at `path`, open for reading as UTF-8 text; a byte that is
    not UTF-8 is a DataError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e}") from None


def write_csv(path: str, header, rows) -> None:
    """Write `header`, then each of `rows`, to the CSV file at `path`:
    UTF-8, '\\n' line ends and the `csv` module's minimal quoting.

    That quoting leaves a bare '\\r' bare, and a reader would end the
    line there, so a row holding one has every field quoted.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        minimal = csv.writer(f, lineterminator="\n")
        quoted = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in itertools.chain([header], rows):
            (quoted if any("\r" in str(c) for c in row)
             else minimal).writerow(row)


def _columns(header, names) -> list:
    """Index of each named column in a CSV header, None where absent.

    A repeated name gives its last column, as `csv.DictReader` does.
    """
    index = {name: i for i, name in enumerate(header or ())}
    return [index.get(n) for n in names]


@contextlib.contextmanager
def _csv_reader(path: str, lines):
    """A `csv.reader` over `lines`, read from the file at `path`; a row it
    cannot read, such as one with a field over `csv.field_size_limit()`,
    is a DataError naming `path:line`."""
    reader = csv.reader(lines)
    try:
        yield reader
    except csv.Error as e:
        raise DataError(f"{path}:{reader.line_num}: {e}") from None


def _rows(reader):
    """(line number, row) for each non-blank data row after the header.

    Blank lines are skipped as `csv.DictReader` skips them. The number is
    the reader's `line_num`, the physical line the row ends on.
    """
    return ((reader.line_num, row) for row in reader if row)


def _fields(path: str, lineno: int, row: list, cols, names) -> list:
    """The fields at `cols` of one CSV row; a short row is a DataError."""
    try:
        return [row[c] for c in cols]
    except (IndexError, TypeError):  # past the row's end, or no column
        missing = [n for n, c in zip(names, cols)
                   if c is None or c >= len(row)]
        raise DataError(f"{path}:{lineno}: row has no {', '.join(missing)}"
                        ) from None


def load_ili(path: str) -> dict:
    """Read ili.csv (iso_week,country,ili_rate) into per-country series.

    A negative or non-finite (`nan`, `inf`) rate is a DataError naming
    `path:line`; week 53 is dropped before either check.
    """
    rows = {}
    names = ("iso_week", "country", "ili_rate")
    with open_text(path, newline="") as f, _csv_reader(path, f) as reader:
        cols = _columns(next(reader, None), names)
        if None in cols:
            raise DataError(f"{path}: header must contain {sorted(names)}")
        for lineno, row in _rows(reader):
            week, country, rate = _fields(path, lineno, row, cols, names)
            try:
                idx = parse_week(week)
                rate = float(rate)
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            if idx < 0:
                continue  # week 53 dropped
            if not math.isfinite(rate):
                raise DataError(f"{path}:{lineno}: non-finite ili_rate {rate}")
            if rate < 0:
                raise DataError(f"{path}:{lineno}: negative ili_rate {rate}")
            rows.setdefault(country, {})[idx] = rate
    out = {}
    for country, by_week in rows.items():
        weeks = sorted(by_week)
        missing = [format_week(w) for w in range(weeks[0], weeks[-1] + 1)
                   if w not in by_week]
        if missing:
            raise DataError(f"{country}: missing weeks {', '.join(missing)}")
        out[country] = WeeklySeries(
            country=country, start=weeks[0],
            values=np.array([by_week[w] for w in weeks]))
    return out


# Characters a query slug drops: every one but 0-9, a-z, '_' and
# U+0080..U+FFFF, written as the ranges it removes, which compile in a
# fraction of a millisecond where the negated class takes several. It is
# compiled on first use, by `re`'s cache, so an import pays nothing.
_SLUG_DROP = r"[\x00-/:-^`{-\x7f\U00010000-\U0010ffff]"


def query_slug(query: str) -> str:
    return re.sub(_SLUG_DROP, "", query.lower().replace(" ", "_"))


def read_trend(path: str, series: WeeklySeries) -> np.ndarray:
    """One query's trends CSV (iso_week,value) aligned to the series weeks.

    A series week missing from the file takes the value of the latest
    file week at or before it that is not before the series start, or
    0.0 when there is none: file weeks before `series.start` are never
    carried in, so leading gaps are zero even when the file starts
    earlier. A repeated week keeps its last value; week 53 is dropped.
    A value that is not finite (`nan`, `inf`) is a DataError naming
    `path:line`.
    """
    names = ("iso_week", "value")
    by_week = {}
    with open_text(path, newline="") as f, _csv_reader(path, f) as reader:
        cols = _columns(next(reader, None), names)
        for lineno, row in _rows(reader):
            week, value = _fields(path, lineno, row, cols, names)
            try:
                idx = parse_week(week)
                value = float(value)
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {value}")
            if idx >= 0:
                by_week[idx] = value
    weeks = sorted(w for w in by_week if w >= series.start)
    filled = np.array([0.0] + [by_week[w] for w in weeks])
    at = np.searchsorted(np.array(weeks, dtype=np.int64), series.weeks(),
                         side="right")
    return filled[at]


def load_trends(trends_dir: str, country: str, queries,
                series: WeeklySeries) -> QueryPanel:
    """Load one CSV per query (see `read_trend`) into a query panel."""
    queries = list(queries)
    slugs = [query_slug(q) for q in queries]
    if len(set(slugs)) != len(slugs):
        raise DataError(f"{country}: query slug collision in {slugs}")
    paths = [os.path.join(trends_dir, country, s + ".csv") for s in slugs]
    missing = [q for q, p in zip(queries, paths) if not os.path.exists(p)]
    if missing:
        raise DataError(f"{country}: missing trends files for {missing}")
    matrix = np.zeros((len(series), len(queries)))
    for j, path in enumerate(paths):
        matrix[:, j] = read_trend(path, series)
    return QueryPanel(country=country, queries=queries, start=series.start,
                      matrix=matrix)


def minmax_fit_apply(panel: QueryPanel, training_range) -> tuple:
    """Min-max normalize on the training range; apply everywhere.

    Returns (normalized panel, list of (query, min, max)). Queries that
    are constant on the training range are dropped with a warning.
    """
    lo, hi = training_range
    a = lo - panel.start
    b = hi - panel.start + 1
    if not (0 <= a < b <= panel.matrix.shape[0]):
        raise DataError(f"training range {training_range} outside panel")
    stats = []
    for j, q in enumerate(panel.queries):
        col = panel.matrix[a:b, j]
        mn, mx = col.min(), col.max()
        if mx <= mn:
            warnings.warn(f"{panel.country}: query {q!r} constant on "
                          f"training range, dropped")
            continue
        stats.append((q, float(mn), float(mx)))
    return minmax_apply(panel, stats), stats


def minmax_apply(panel: QueryPanel, stats) -> QueryPanel:
    """The panel's queries named in `stats`, in that order, each mapped
    by its (query, min, max) to (x - min) / (max - min)."""
    cols = [panel.queries.index(q) for q, _, _ in stats]
    mn = np.array([s[1] for s in stats])
    mx = np.array([s[2] for s in stats])
    return QueryPanel(country=panel.country,
                      queries=[q for q, _, _ in stats], start=panel.start,
                      matrix=(panel.matrix[:, cols] - mn) / (mx - mn))


def make_windows(series: WeeklySeries, panel, seasonal: np.ndarray,
                 n_in: int, n_out: int, week_range) -> Windows:
    """All stride-1 windows whose N inputs and S targets fit in the range.

    `seasonal` is the full-length seasonal array aligned to the series
    (STL fit over training, periodic extension past it).
    """
    lo, hi = week_range
    if hi - lo + 1 < n_in + n_out:
        raise DataError(f"range {format_week(lo)}..{format_week(hi)} shorter "
                        f"than N+S = {n_in + n_out}")
    if len(seasonal) != len(series):
        raise DataError("seasonal array length mismatch")
    if panel is not None and (panel.start != series.start
                              or panel.matrix.shape[0] != len(series)):
        raise DataError("query panel not aligned to series")
    t = np.arange(series.pos(lo) + n_in - 1, series.pos(hi) - n_out + 1)
    inp = t[:, None] + np.arange(1 - n_in, 1)  # (W, N) input positions
    out = t[:, None] + np.arange(1, n_out + 1)  # (W, S) target positions
    return Windows(
        country=series.country, last_week=series.start + t,
        x_raw=series.values[inp], x_des=(series.values - seasonal)[inp],
        q=(panel.matrix[inp] if panel is not None
           else np.zeros((len(t), n_in, 0))),
        y_raw=series.values[out],
        o=series.values[out] - seasonal[out], x_seas=seasonal[out])


def make_target_windows(series: WeeklySeries, panel, seasonal: np.ndarray,
                        n_in: int, n_out: int, target_range) -> Windows:
    """Windows whose S targets all lie in target_range; inputs may reach
    back into earlier weeks (validation/test usage)."""
    lo, hi = target_range
    if hi - lo + 1 < n_out or lo - n_in < series.start:
        raise DataError(
            f"target range {format_week(lo)}..{format_week(hi)} unusable "
            f"for N={n_in}, S={n_out}")
    return make_windows(series, panel, seasonal, n_in, n_out,
                        (lo - n_in, hi))


# Validation takes the year before the test range; training needs three
# years before that.
_VAL_WEEKS = WEEKS_PER_YEAR
_MIN_TRAIN_WEEKS = 3 * WEEKS_PER_YEAR


def split_plan(series: WeeklySeries, test_start: int, test_len: int
               ) -> SplitPlan:
    """Validation is the 52 weeks before test; training is everything prior."""
    test_end = test_start + test_len - 1
    val_start = test_start - _VAL_WEEKS
    train_weeks = val_start - series.start
    if train_weeks < _MIN_TRAIN_WEEKS or test_end > series.end:
        raise DataError(
            f"{series.country}: need >= {_MIN_TRAIN_WEEKS} training + "
            f"{_VAL_WEEKS} validation + {test_len} test weeks; have "
            f"{len(series)} from "
            f"{format_week(series.start)} with test start "
            f"{format_week(test_start)}")
    return SplitPlan(train=(series.start, val_start - 1),
                     val=(val_start, test_start - 1),
                     test=(test_start, test_end))
