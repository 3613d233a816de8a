"""Property tests; they need hypothesis and are skipped without it.

HYPOTHESIS_PROFILE=ci selects a derandomized profile, so a failure seen
in CI replays locally with the same examples.
"""

import datetime
import os
import re

import pytest

from flucast import datahub
from test_numkit import assert_matches_oracle, gru_case

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hypothesis.settings.register_profile("ci", derandomize=True)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE",
                                                "default"))

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


class TestGruSequenceBits:
    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      t_len=st.integers(1, 9), b=st.integers(1, 6),
                      m=st.integers(1, 6), n_in=st.integers(1, 3),
                      standard=st.booleans(), taped=st.booleans(),
                      as_array=st.booleans())
    def test_matches_oracle(self, seed, t_len, b, m, n_in, standard, taped,
                            as_array):
        assert_matches_oracle(gru_case(seed, t_len, b, m, n_in), standard,
                              taped, as_array)
