"""Property tests; they need hypothesis and are skipped without it."""

import datetime
import re

import pytest

from flucast import datahub

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LABEL = re.compile(r"\d{4}-W\d{2}")


class TestWeekLabels:
    """Round trip, week 53 and repeated errors of the memoized parser."""

    @hypothesis.given(year=st.integers(1000, 9999), week=st.integers(1, 52))
    def test_format_inverts_parse(self, year, week):
        label = f"{year}-W{week:02d}"
        assert datahub.parse_week(label) == year * 52 + week - 1
        assert datahub.format_week(datahub.parse_week(label)) == label

    @hypothesis.given(year=st.integers(1000, 9999))
    def test_week53_dropped_only_in_long_years(self, year):
        label = f"{year}-W53"
        if datetime.date(year, 12, 28).isocalendar()[1] == 53:
            assert datahub.parse_week(label) == -1
            return
        for _ in range(3):
            with pytest.raises(datahub.DataError, match="no week 53"):
                datahub.parse_week(label)

    @hypothesis.given(label=st.one_of(
        st.text(max_size=10).filter(
            lambda s: not LABEL.fullmatch(s.strip())),
        st.builds("{}-W{:02d}".format, st.integers(1000, 9999),
                  st.sampled_from([0, 54, 60, 99]))))
    def test_bad_label_raises_on_every_call(self, label):
        for _ in range(3):
            with pytest.raises(datahub.DataError):
                datahub.parse_week(label)
