"""Property tests driven by hypothesis, which the `test` extra installs;
without it this module fails to import rather than being skipped.

HYPOTHESIS_PROFILE=ci selects a derandomized profile, so a failure seen
in CI replays locally with the same examples.
"""

import datetime
import json
import os
import re
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from flucast import cli, datahub
from test_numkit import assert_matches_oracle, gru_case
from test_querysel import SHAPES, selection_case
from test_querysel import assert_matches_oracle as assert_selects_as_oracle

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
                      taped=st.booleans(), as_array=st.booleans())
    def test_matches_oracle(self, seed, t_len, b, m, n_in, taped, as_array):
        assert_matches_oracle(gru_case(seed, t_len, b, m, n_in), taped,
                              as_array)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      t_len=st.integers(1, 30), b=st.integers(1, 40),
                      m=st.integers(1, 24), n_in=st.sampled_from([1, 3]),
                      as_array=st.booleans())
    def test_taped_matches_oracle_at_training_shapes(self, seed, t_len, b,
                                                     m, n_in, as_array):
        """Wider shapes, taped: the backward forms d_h h in place over
        the gradient block, and the W_h gradient GEMM reads it strided."""
        assert_matches_oracle(gru_case(seed, t_len, b, m, n_in), True,
                              as_array)


class TestWindowTable:
    """make_windows against the one window rule and per-window slices, and
    take against rows."""

    @hypothesis.settings(deadline=None)
    @hypothesis.given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
                      n=st.integers(1, 8), s=st.integers(0, 5),
                      l=st.sampled_from([0, 1, 3]))
    def test_rows_match_slices(self, data, seed, n, s, l):
        length = data.draw(st.integers(n + s, n + s + 40), label="length")
        lo = data.draw(st.integers(-3, length + 1), label="lo")
        hi = data.draw(st.integers(lo - 1, length + 6), label="hi")
        rng = np.random.default_rng(seed)
        start = datahub.parse_week("2015-W01")
        series = datahub.WeeklySeries(country="US", start=start,
                                      values=rng.uniform(0, 5, length))
        seasonal = rng.normal(0, 1, length)
        panel = None
        if l:
            panel = datahub.QueryPanel(
                country="US", queries=[f"q{j}" for j in range(l)],
                matrix=rng.uniform(0, 1, (length, l)))

        def windows(lo, hi, s):
            return datahub.make_windows(series, panel, seasonal, n, s,
                                        (start + lo, start + hi))

        # The rule, window by window at last input position t: the N
        # inputs and S targets lie in the series, the targets end by hi,
        # and the week after the inputs is not before lo.
        ends = [t for t in range(length) if t - n + 1 >= 0
                and t + s <= min(hi, length - 1) and t + 1 >= lo]
        if not ends:
            with pytest.raises(datahub.DataError, match=re.escape(
                    f"US: no window of N={n}, S={s} has its targets in "
                    f"{datahub.format_week(start + lo)}..")):
                windows(lo, hi, s)
            ends = [length - 1]  # the forecast window below
            lo, hi, s = length, length + s, 0
        w = windows(lo, hi, s)

        v = series.values
        assert w.last_week.tolist() == [start + t for t in ends]
        for i, t in enumerate(ends):
            inp, out = slice(t - n + 1, t + 1), slice(t + 1, t + 1 + s)
            q = panel.matrix[inp] if l else np.zeros((n, 0))
            want = {"x_des": v[inp] - seasonal[inp],
                    "q": q, "y_raw": v[out],
                    "o": v[out] - seasonal[out], "x_seas": seasonal[out]}
            for name, value in want.items():
                assert np.array_equal(getattr(w, name)[i], value), name

        # With S = 0, targets past the series end give its last window.
        last = windows(length, length + data.draw(st.integers(1, 5),
                                                  label="horizon"), 0)
        assert last.last_week.tolist() == [start + length - 1]
        assert np.array_equal(last.x_des[0],
                              v[length - n:] - seasonal[length - n:])

        rows = np.array(data.draw(st.lists(st.integers(0, len(w) - 1),
                                           max_size=12), label="rows"),
                        dtype=np.int64)
        taken = w.take(rows)
        assert len(taken) == len(rows)
        for name in ("last_week", "x_des", "q", "y_raw", "o", "x_seas"):
            got, full = getattr(taken, name), getattr(w, name)
            assert got.shape == (len(rows),) + full.shape[1:], name
            for k, i in enumerate(rows):
                assert np.array_equal(got[k], full[i]), name


# Config text: a key holds no '=' or '#', a value no '#'; neither spans
# lines (a carriage return ends one too).
CONFIG_CHARS = st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\n\r#")
CONFIG_KEYS = st.text(CONFIG_CHARS.filter(lambda c: c != "="), min_size=1,
                      max_size=12).filter(str.strip)
CONFIG_PAD = st.sampled_from(["", " ", "\t", "  "])


class TestConfigRoundTrip:
    @hypothesis.settings(deadline=None, suppress_health_check=[
        hypothesis.HealthCheck.function_scoped_fixture])
    @hypothesis.given(data=st.data(), entries=st.lists(st.tuples(
        CONFIG_KEYS, st.text(CONFIG_CHARS, max_size=12)), max_size=8))
    def test_load_config_reads_back_what_was_written(self, tmp_path, data,
                                                     entries):
        lines, want = [], {}
        for key, value in entries:
            lines += data.draw(st.lists(st.one_of(
                CONFIG_PAD, st.builds("{}# {}".format, CONFIG_PAD,
                                      st.text(CONFIG_CHARS, max_size=10))),
                max_size=2), label="comments and blanks")
            pad = data.draw(st.lists(CONFIG_PAD, min_size=4, max_size=4),
                            label="padding")
            comment = data.draw(st.sampled_from(["", "# note", " #=#"]),
                                label="comment")
            lines.append(f"{pad[0]}{key}{pad[1]}={pad[2]}{value}{pad[3]}"
                         f"{comment}")
            want[key.strip()] = value.strip()  # a repeated key: the last
        path = tmp_path / "drawn.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.load_config(str(path)) == want


class TestMinmaxReplay:
    """The stats `minmax_fit_apply` returns rebuild its panel exactly."""

    @hypothesis.settings(deadline=None)
    @hypothesis.given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
                      l=st.integers(1, 5),
                      scale=st.sampled_from([1e-3, 1.0, 1e6]))
    def test_stored_stats_replay_the_fit(self, data, seed, l, scale):
        length = data.draw(st.integers(2, 40), label="length")
        train_len = data.draw(st.integers(2, length), label="train_len")
        flat = data.draw(st.lists(st.booleans(), min_size=l, max_size=l),
                         label="constant on the training range")
        matrix = np.random.default_rng(seed).uniform(-scale, scale,
                                                     (length, l))
        matrix[:train_len, flat] = scale / 3
        panel = datahub.QueryPanel(
            country="US", queries=[f"q{j}" for j in range(l)],
            matrix=matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # each dropped query warns
            fitted, stats = datahub.minmax_fit_apply(panel, train_len)
        assert [q for q, _, _ in stats] == [
            f"q{j}" for j in range(l) if not flat[j]]
        replayed = datahub.minmax_apply(panel, stats)
        assert replayed.queries == fitted.queries
        assert np.array_equal(replayed.matrix, fitted.matrix)
        train = fitted.matrix[:train_len]
        assert np.array_equal(train.min(axis=0), np.zeros(len(stats)))
        assert np.array_equal(train.max(axis=0), np.ones(len(stats)))


# Finite floats, with the signed zeros and subnormals drawn often.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, -1e-310]))


class TestCountryFitRecord:
    """A country's record comes back from the checkpoint's JSON bit for
    bit."""

    @hypothesis.settings(deadline=None)
    @hypothesis.given(data=st.data(),
                      seasonal=st.lists(FINITE, min_size=1, max_size=60),
                      queries=st.lists(st.text(max_size=12), max_size=5,
                                       unique=True))
    def test_json_round_trip(self, data, seasonal, queries):
        kept = [q for q in queries
                if data.draw(st.booleans(), label=f"keep {q!r}")]
        norm = []
        for q in kept:
            mn, mx = sorted(data.draw(
                st.lists(FINITE, min_size=2, max_size=2, unique=True),
                label=f"min and max of {q!r}"))
            norm.append((q, mn, mx))
        l_queries = data.draw(st.integers(len(norm), len(norm) + 3)
                              if norm else st.just(0), label="L")
        fit = cli.CountryFit(np.array(seasonal), tuple(queries),
                             tuple(norm))
        text = json.dumps(fit.to_extra("US"), sort_keys=True)
        back = cli.CountryFit.from_extra(
            "checkpoint.json", json.loads(text), "US", len(seasonal),
            "ili.csv", list(queries), l_queries)
        assert back.seasonal.dtype == np.float64
        assert back.seasonal.tobytes() == fit.seasonal.tobytes()
        assert back.queries == fit.queries
        assert [(q, mn.hex(), mx.hex()) for q, mn, mx in back.norm] == [
            (q, mn.hex(), mx.hex()) for q, mn, mx in fit.norm]
        assert json.dumps(back.to_extra("US"), sort_keys=True) == text


class TestWtSelectBestFirst:
    """Best-first wt selection against the whole product, sorted."""

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
                      shape=st.sampled_from(SHAPES), d=st.integers(1, 4),
                      ties=st.booleans(), spaces=st.booleans())
    def test_matches_product_oracle(self, data, seed, shape, d, ties,
                                    spaces):
        n_tokens, v_max = shape
        v = data.draw(st.integers(1, v_max), label="V")
        k = data.draw(st.integers(1, v + 3), label="k")
        case = selection_case(seed, v, d, n_tokens, ties=ties,
                              spaces=spaces)
        assert_selects_as_oracle(case, k, seed)
