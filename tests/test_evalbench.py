import csv
import warnings

import numpy as np
import pytest

from flucast import datahub, evalbench, fluenet, querysel


class TestRmse:
    def test_hand_value(self):
        got = evalbench.rmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert abs(got - np.sqrt(2.0 / 3.0)) < 1e-15

    def test_zero_on_perfect(self):
        assert evalbench.rmse([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        y, y_hat = rng.normal(0, 1, 20), rng.normal(0, 1, 20)
        assert abs(evalbench.rmse(3 * y, 3 * y_hat)
                   - 3 * evalbench.rmse(y, y_hat)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(evalbench.MetricError):
            evalbench.rmse([1.0], [1.0, 2.0])


class TestR2:
    def test_perfect_fit_is_one(self):
        assert evalbench.r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        assert abs(evalbench.r2(y, np.full(4, y.mean()))) < 1e-15

    def test_adversarial_hand_value(self):
        # y = [0, 2], mean 1, SST 2; predictions [2, 0] give SSE 8.
        assert evalbench.r2([0.0, 2.0], [2.0, 0.0]) == -3.0

    def test_affine_invariance_of_sign(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 30)
        y_hat = y + rng.normal(0, 0.1, 30)
        base = evalbench.r2(y, y_hat)
        shifted = evalbench.r2(y + 5.0, y_hat + 5.0)
        assert abs(base - shifted) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(evalbench.MetricError, match="variance"):
            evalbench.r2([2.0, 2.0], [1.0, 3.0])


def windows_table(last_week, x_des, x_seas, y_raw, q=None):
    """Windows from (W, N) inputs and (W, S) seasonal values and raw
    targets, row i ending at week last_week + i; without q every window
    has one all-zero query."""
    x_des = np.asarray(x_des, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    x_seas = np.asarray(x_seas, dtype=float)
    if q is None:
        q = np.zeros(x_des.shape + (1,))
    return datahub.Windows(last_week=last_week + np.arange(len(x_des)),
                           x_des=x_des, q=q,
                           y_raw=y_raw, o=y_raw - x_seas, x_seas=x_seas)


def stacked(rows):
    """Per-window tuples of arrays -> one stacked array per position."""
    return [np.stack(a) for a in zip(*rows)]


class TestSeasonalNaive:
    def test_persists_last_deseasonalized_value(self):
        w = windows_table(100, [[0.1, 0.2, 0.7]], [[1.0, 2.0]],
                          [[9.0, 9.0]])
        assert np.array_equal(evalbench.seasonal_naive(w),
                              [[1.7, 2.7]])

    def test_horizon_one_equals_last_raw_when_season_flat(self):
        w = windows_table(100, [[3.0, 4.0]], [[0.0, 0.0]],
                          [[5.0, 6.0]])
        assert evalbench.seasonal_naive(w)[0, 0] == 4.0


class TestArExog:
    def test_recovers_true_coefficients(self):
        rng = np.random.default_rng(3)
        n, p, l = 400, 2, 2
        q = rng.uniform(0, 1, (n, l))
        true = np.array([0.6, -0.2, 1.5, -0.7, 0.3])
        y = np.zeros(n)
        y[0], y[1] = 0.5, 0.2
        for t in range(1, n - 1):
            x = np.concatenate([[y[t], y[t - 1]], q[t + 1], [1.0]])
            y[t + 1] = x @ true
        order, coef = evalbench.fit_ar_exog(y, q, p)
        assert order == 2
        assert np.max(np.abs(coef - true)) < 1e-6

    def test_pure_ar1(self):
        y = np.zeros(200)
        y[0] = 1.0
        for t in range(199):
            y[t + 1] = 0.5 * y[t]
        q = np.random.default_rng(4).uniform(0, 1, (200, 1))
        _, coef = evalbench.fit_ar_exog(y, q, 1)
        assert abs(coef[0] - 0.5) < 1e-6
        assert abs(coef[1]) < 1e-6  # query term unused
        assert abs(coef[2]) < 1e-6  # intercept

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        n, p, l = 300, 3, 2
        y = rng.normal(0, 1, n)
        q = rng.uniform(0, 1, (n, l))
        _, coef = evalbench.fit_ar_exog(y, q, p)
        rows = n - p
        design = np.empty((rows, p + l + 1))
        resid = np.empty(rows)
        for i, t in enumerate(range(p - 1, n - 1)):
            design[i, :p] = y[t::-1][:p]
            design[i, p:p + l] = q[t + 1]
            design[i, -1] = 1.0
            resid[i] = y[t + 1] - design[i] @ coef
        assert np.max(np.abs(design.T @ resid)) < 1e-7

    def test_one_step_forecast_of_exact_ar1(self):
        """On an exact AR(1) with no query effect, the one-step forecast
        from the row [y_t, q_{t+1}, 1] is 0.5 y_t."""
        y = 2.0 ** -np.arange(12.0)
        series = datahub.WeeklySeries(country="US", start=100, values=y)
        panel = datahub.QueryPanel(
            country="US", queries=["q"],
            matrix=np.random.default_rng(4).uniform(0, 1, (12, 1)))
        windows = datahub.make_windows(series, panel, np.zeros(12), 2, 1,
                                       (109, 111))
        got = evalbench.ar_exog(series, panel, 9, windows, 1)
        assert got.shape == (3, 1)
        assert np.max(np.abs(got[:, 0] - 0.5 * y[8:11])) < 1e-12

    def test_too_few_rows_rejected(self):
        with pytest.raises(evalbench.MetricError):
            evalbench.fit_ar_exog(np.ones(6), np.ones((6, 4)), 3)

    @pytest.mark.parametrize("n, l, p, order", [
        (180, 2, 90, 88), (180, 2, 88, 88), (180, 2, 20, 20), (8, 4, 3, 1)])
    def test_order_cut_to_largest_that_fits(self, n, l, p, order):
        """The order is the largest the n weeks fit: n - p >= p + L + 2
        rows, one more row than the p + L + 1 coefficients."""
        rng = np.random.default_rng(n + l + p)
        got, coef = evalbench.fit_ar_exog(rng.normal(0, 1, n),
                                          rng.uniform(0, 1, (n, l)), p)
        assert got == order and len(coef) == order + l + 1
        assert n - order >= order + l + 2
        assert n - (order + 1) < order + 1 + l + 2 or order == p

    def test_short_range_names_country_and_baseline(self):
        series = datahub.WeeklySeries(country="US", start=100,
                                      values=np.linspace(1, 2, 12))
        panel = datahub.QueryPanel(country="US", queries=list("abcd"),
                                   matrix=np.ones((12, 4)))
        windows = datahub.make_windows(series, panel, np.zeros(12), 2, 1,
                                       (109, 111))
        with pytest.raises(evalbench.MetricError,
                           match=r"^US: ar_exog needs >= 8 training weeks, "
                                 r"has 7$"):
            evalbench.ar_exog(series, panel, 7, windows, 2)

    @pytest.mark.parametrize("seed, weeks, fit_len, l, p", [
        (0, 80, 50, 2, 4), (1, 120, 90, 5, 8), (2, 200, 120, 10, 26),
        (3, 40, 6, 2, 3)], ids=["small", "wide", "benchmark", "order_cut"])
    def test_matches_per_row_oracle(self, seed, weeks, fit_len, l, p):
        """Bit for bit the per-row loop; at fit_len = l + 4 the order is
        cut from p to 1."""
        rng = np.random.default_rng(seed)
        series = datahub.WeeklySeries(country="US", start=500,
                                      values=rng.uniform(0, 5, weeks))
        panel = datahub.QueryPanel(country="US",
                                   queries=[f"q{j}" for j in range(l)],
                                   matrix=rng.uniform(0, 1, (weeks, l)))
        windows = datahub.make_windows(series, panel, np.zeros(weeks), p, 3,
                                       (500 + fit_len, 500 + weeks - 1))
        got = evalbench.ar_exog(series, panel, fit_len, windows, p)
        want, order = ar_exog_oracle(series, panel, fit_len, windows, p)
        assert order == (1 if fit_len == l + 4 else p)
        assert got.shape == (len(windows), 1)
        assert got.tobytes() == want.tobytes()

    def test_rank_deficient_design_matches_per_row_oracle(self):
        """A query constant on the training range repeats the intercept
        column, and both take lstsq's minimum-norm solution."""
        rng = np.random.default_rng(4)
        series = datahub.WeeklySeries(country="US", start=500,
                                      values=rng.uniform(0, 5, 70))
        matrix = rng.uniform(0, 1, (70, 2))
        matrix[:, 1] = 0.5
        panel = datahub.QueryPanel(country="US", queries=["a", "b"],
                                   matrix=matrix)
        windows = datahub.make_windows(series, panel, np.zeros(70), 3, 2,
                                       (540, 569))
        got = evalbench.ar_exog(series, panel, 40, windows, 3)
        want, _ = ar_exog_oracle(series, panel, 40, windows, 3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("repeat", ["intercept", "lag"])
    def test_rank_deficient_fit_is_minimum_norm_and_silent(self, repeat):
        """A query column that repeats the intercept, or the first lag,
        leaves the design rank deficient; the fit is lstsq's minimum-norm
        solution, bit for bit, with no warning."""
        rng = np.random.default_rng(21)
        y = rng.uniform(0, 5, 50)
        q = rng.uniform(0, 1, (50, 2))
        q[:, 1] = 0.5 if repeat == "intercept" else np.roll(y, 1)
        p = 3
        design = np.array([np.r_[y[t::-1][:p], q[t + 1], 1.0]
                           for t in range(p - 1, 49)])
        assert np.linalg.matrix_rank(design) < design.shape[1]
        want, *_ = np.linalg.lstsq(design, y[p:], rcond=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            order, coef = evalbench.fit_ar_exog(y, q, p)
        assert order == p
        assert coef.tobytes() == want.tobytes()
        # of all least-squares solutions, no other is shorter
        null = np.linalg.svd(design)[2][-1]
        assert np.allclose(design @ null, 0, atol=1e-12)
        assert abs(coef @ null) < 1e-12


def ar_exog_oracle(series, panel, fit_len, windows, p):
    """The AR-exog baseline as a per-row loop: the design filled row by
    row, then each forecast the dot product of a row concatenated from
    the window's lags and the target week's queries. Returns the (W, 1)
    forecast and the order."""
    y, q = series.values[:fit_len], panel.matrix[:fit_len]
    n, l = len(y), q.shape[1]
    p = min(p, max(1, n - l - 3))
    design = np.empty((n - p, p + l + 1))
    target = np.empty(n - p)
    for i, t in enumerate(range(p - 1, n - 1)):
        design[i, :p] = y[t::-1][:p]
        design[i, p:p + l] = q[t + 1]
        design[i, -1] = 1.0
        target[i] = y[t + 1]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    y_hat = np.full((len(windows), 1), np.nan)
    for i, t in enumerate(windows.last_week - series.start):
        x = np.concatenate([series.values[t::-1][:p], panel.matrix[t + 1],
                            [1.0]])
        y_hat[i, 0] = float(x @ coef)
    return y_hat, p


class TestEvaluate:
    def make_windows(self):
        rng = np.random.default_rng(6)
        rows = []
        for _ in range(6):
            y = rng.uniform(1, 5, 3)
            rows.append((rng.normal(0, 1, 4), rng.normal(0, 1, 3), y))
        return windows_table(200, *stacked(rows))

    def test_perfect_predictor_scores_perfectly(self):
        windows = self.make_windows()
        report = evalbench.evaluate(windows.y_raw, windows, "oracle", "US")
        assert [s.horizon for s in report.scores] == [1, 2, 3]
        assert all(s.rmse == 0.0 and s.r2 == 1.0 for s in report.scores)
        assert len(report.traces) == 18

    def test_one_step_forecast_scores_horizon_one(self):
        windows = self.make_windows()
        report = evalbench.evaluate(windows.y_raw[:, :1], windows, "ar",
                                    "US")
        assert [s.horizon for s in report.scores] == [1]
        assert all(s.rmse == 0.0 and s.r2 == 1.0 for s in report.scores)
        assert [(w, h, y) for w, h, y, _ in report.traces] == [
            (200 + i + 1, 1, y) for i, y in enumerate(windows.y_raw[:, 0])]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_forecast_refused(self, bad):
        """A cell that is not finite is an error naming the model and the
        country, not a cell left unscored."""
        windows = self.make_windows()
        y_hat = windows.y_raw.copy()
        y_hat[2, 1] = bad
        with pytest.raises(evalbench.NonFiniteMetricError,
                           match="^ar forecast for US holds a non-finite"):
            evalbench.evaluate(y_hat, windows, "ar", "US")

    def test_matches_direct_metric_computation(self):
        windows = self.make_windows()
        rng = np.random.default_rng(7)
        noise = [rng.normal(0, 0.3, 3) for _ in range(len(windows))]
        report = evalbench.evaluate(windows.y_raw + np.stack(noise),
                                    windows, "m", "US")
        for h_score in report.scores:
            h = h_score.horizon
            y = [row[h - 1] for row in windows.y_raw]
            y_hat = [row[h - 1] + n[h - 1]
                     for row, n in zip(windows.y_raw, noise)]
            assert abs(h_score.rmse - evalbench.rmse(y, y_hat)) < 1e-15
            assert abs(h_score.r2 - evalbench.r2(y, y_hat)) < 1e-15

    def test_empty_windows_rejected(self):
        empty = self.make_windows().take([])
        with pytest.raises(evalbench.MetricError):
            evalbench.evaluate(empty.y_raw, empty, "m", "US")

    def test_forecast_shape_mismatch_rejected(self):
        """A forecast covers horizons 1..k of every window, 1 <= k <= S."""
        windows = self.make_windows()
        for y_hat in (windows.y_raw[0], windows.y_raw[:, :0],
                      windows.y_raw[1:], np.hstack([windows.y_raw] * 2)):
            with pytest.raises(evalbench.MetricError, match="shape"):
                evalbench.evaluate(y_hat, windows, "m", "US")
        report = evalbench.evaluate(windows.y_raw[:, :2], windows, "m", "US")
        assert [s.horizon for s in report.scores] == [1, 2]

    def test_evaluate_model_collects_attention(self):
        model = fluenet.ModelParams(m=3, n_in=4, s_out=3, l_queries=2,
                                    countries=["US"], seed=9)
        rng = np.random.default_rng(8)
        windows = windows_table(300, *stacked(
            (rng.normal(0, 1, 4), rng.normal(0, 1, 3), rng.uniform(1, 5, 3),
             rng.uniform(0, 1, (4, 2))) for _ in range(4)))
        report = evalbench.evaluate_model(model, windows, "US", "net")
        assert len(report.attention) == 8  # 4 windows x 2 queries
        by_week = {}
        for week, _, weight in report.attention:
            by_week.setdefault(week, 0.0)
            by_week[week] += weight
        assert all(abs(v - 1.0) < 1e-12 for v in by_week.values())


def per_window_evaluate_model(model, windows, country, model_name):
    """Oracle: the network run on one window at a time (B=1), its rows
    gathered into the (W, S) forecast that is scored."""
    y_hat, attention = [], []
    for i in range(len(windows)):
        one = windows.take([i])
        o_hat, weights = fluenet.forward_batch(model, country, one.x_des,
                                               one.q)
        if weights is not None:
            attention.extend((int(one.last_week[0]), j, float(w))
                             for j, w in enumerate(weights[0]))
        y_hat.append(o_hat.data[0] + one.x_seas[0])
    report = evalbench.evaluate(np.stack(y_hat), windows, model_name,
                                country)
    report.attention = attention
    return report


class TestBatchedEvaluateModel:
    """evaluate_model runs all windows as one batch; the per-window loop
    it replaced is the oracle."""

    @pytest.mark.parametrize("kw", [
        {}, {"use_country_embedding": True},
        {"arch": "gru_baseline"}, {"l_queries": 0}],
        ids=["proposed", "embedded", "gru_baseline", "no_queries"])
    def test_matches_per_window_oracle(self, kw):
        args = dict(m=5, n_in=6, s_out=3, l_queries=2,
                    countries=["JP", "US"], seed=4)
        args.update(kw)
        model = fluenet.ModelParams(**args)
        rng = np.random.default_rng(10)
        windows = windows_table(400, *stacked(
            (rng.normal(0, 1, 6), rng.normal(0, 1, 3), rng.uniform(1, 5, 3),
             rng.uniform(0, 1, (6, 2))) for _ in range(9)))
        got = evalbench.evaluate_model(model, windows, "US", "net")
        want = per_window_evaluate_model(model, windows, "US", "net")
        assert [(w, h, y) for w, h, y, _ in got.traces] == [
            (w, h, y) for w, h, y, _ in want.traces]
        assert np.max(np.abs(np.subtract(
            [v for *_, v in got.traces], [v for *_, v in want.traces]))
        ) <= 1e-12
        for a, b in zip(got.scores, want.scores):
            assert a.horizon == b.horizon
            assert abs(a.rmse - b.rmse) <= 1e-12
            assert abs(a.r2 - b.r2) <= 1e-12
        assert [(w, j) for w, j, _ in got.attention] == [
            (w, j) for w, j, _ in want.attention]
        assert len(got.attention) == (18 if model.has_attention else 0)
        for (_, _, a), (_, _, b) in zip(got.attention, want.attention):
            assert abs(a - b) <= 1e-12

    def test_empty_windows_rejected(self):
        model = fluenet.ModelParams(m=3, n_in=4, s_out=3, l_queries=2,
                                    countries=["US"], seed=9)
        with pytest.raises(evalbench.MetricError):
            evalbench.evaluate_model(model, [], "US", "net")


class TestCorrelationReport:
    def make_series(self, country, start, values):
        return datahub.WeeklySeries(country=country, start=start,
                                    values=np.asarray(values, dtype=float))

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(10)
        s = self.make_series("US", 100, rng.uniform(0, 5, 30))
        out = evalbench.correlation_report({"US": s})
        assert out[("US", "US")] == 1.0

    def test_identical_series_fully_correlated(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(0, 5, 30)
        out = evalbench.correlation_report(
            {"A": self.make_series("A", 100, vals),
             "B": self.make_series("B", 100, vals.copy())})
        assert abs(out[("A", "B")] - 1.0) < 1e-12
        assert out[("A", "B")] == out[("B", "A")]

    def test_scale_and_offset_invariance(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(0, 5, 30)
        out = evalbench.correlation_report(
            {"A": self.make_series("A", 100, vals),
             "B": self.make_series("B", 100, 7.0 * vals + 3.0)})
        assert abs(out[("A", "B")] - 1.0) < 1e-12

    def test_shift_realigns_lagged_series(self):
        rng = np.random.default_rng(13)
        vals = rng.uniform(0, 5, 60)
        a = self.make_series("A", 100, vals[:40])
        b = self.make_series("B", 100, vals[22:])  # B runs 22 weeks early
        base = evalbench.correlation_report({"A": a, "B": b})
        aligned = evalbench.correlation_report({"A": a, "B": b},
                                               shifts={"B": 22})
        assert abs(aligned[("A", "B")] - 1.0) < 1e-12
        assert base[("A", "B")] < 0.9

    def test_insufficient_overlap_rejected(self):
        a = self.make_series("A", 100, np.arange(10.0))
        b = self.make_series("B", 109, np.arange(10.0))
        with pytest.raises(evalbench.MetricError, match=(
                r"^A, B: the series share 1 weeks once shifted by "
                r"correlate\.shift\.<CC>, fewer than 3$")):
            evalbench.correlation_report({"A": a, "B": b})
        with pytest.raises(evalbench.MetricError, match=r"^A, B: .* share 0 "):
            evalbench.correlation_report({"A": a, "B": b},
                                         shifts={"A": -40})

    @pytest.mark.parametrize("scale, reason", [
        (1e160, "pearson input is not finite or overflows"),
        (1e-170, "pearson input has zero variance")], ids=["huge", "tiny"])
    def test_pearson_refusal_names_the_pair(self, scale, reason):
        """Rates far outside ILI scales overflow or underflow Pearson's
        sums; the refusal names the countries and the weeks."""
        rng = np.random.default_rng(15)
        series = {c: self.make_series(c, 100, scale * rng.uniform(0, 5, 30))
                  for c in ("JP", "US")}
        with pytest.raises(evalbench.MetricError, match=(
                rf"^JP, US: no correlation over the weeks 1-W49\.\.2-W26: "
                rf"{reason}$")):
            evalbench.correlation_report(series)

    @pytest.mark.parametrize("shifts", [{}, {"B": 7}, {"A": 3, "C": -5}],
                             ids=["none", "one", "two"])
    def test_pearson_of_raw_overlap_bitwise(self, shifts):
        """Each pair's value is pearson of the raw weeks all shifted
        series share, bit for bit."""
        rng = np.random.default_rng(14)
        series = {c: self.make_series(c, start, rng.uniform(0, 5, n))
                  for c, start, n in (("A", 100, 60), ("B", 90, 70),
                                      ("C", 110, 50))}
        start = {c: s.start + shifts.get(c, 0) for c, s in series.items()}
        lo = max(start.values())
        hi = min(start[c] + len(s) for c, s in series.items())
        raw = {c: s.values[lo - start[c]:hi - start[c]]
               for c, s in series.items()}
        out = evalbench.correlation_report(series, shifts)
        assert set(out) == {(a, b) for a in series for b in series}
        for a, b in out:
            want = 1.0 if a == b else querysel.pearson(raw[a], raw[b])
            assert out[(a, b)] == want, (a, b)


class TestWriters:
    def test_report_csv_layout(self, tmp_path):
        report = evalbench.EvalReport(
            model_name="net", country="US", term="2017-18",
            scores=[evalbench.HorizonScore(1, 0.5, 0.9)])
        path = tmp_path / "report.csv"
        evalbench.write_report(str(path), [report])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,country,term,horizon,rmse,r2"
        assert lines[1] == "net,US,2017-18,1,0.5,0.9"

    def test_forecast_csv_weeks_are_iso(self, tmp_path):
        week = datahub.parse_week("2017-W40")
        report = evalbench.EvalReport(
            model_name="net", country="US", term="", scores=[],
            traces=[(week, 1, 2.0, 2.5)])
        path = tmp_path / "forecasts.csv"
        evalbench.write_forecasts(str(path), [report])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["model,iso_week,country,horizon,y_true,y_pred",
                         "net,2017-W40,US,1,2.0,2.5"]

    def test_correlation_matrix_csv(self, tmp_path):
        matrix = {("A", "A"): 1.0, ("A", "B"): 0.5,
                  ("B", "A"): 0.5, ("B", "B"): 1.0}
        path = tmp_path / "corr.csv"
        evalbench.write_correlations(str(path), matrix)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["country,A,B", "A,1.0,0.5", "B,0.5,1.0"]

    def test_query_needing_quotes_reads_back(self, tmp_path):
        """A selected query holding a comma and a double quote comes back
        exactly from selected_queries.csv and from its attention row."""
        query = 'grippe, "aviaire"'
        selected = tmp_path / "selected_queries.csv"
        querysel.write_selected(str(selected), [
            querysel.QueryCandidate("bird flu", query, 0.9, 0.7)])
        assert querysel.read_selected(str(selected)) == [query]
        report = evalbench.EvalReport(
            model_name="net", country="FR", term="", scores=[],
            attention=[(datahub.parse_week("2017-W40"), 0, 0.25)])
        path = tmp_path / "attention.csv"
        evalbench.write_attention(str(path), [report], {"FR": [query]})
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert rows == [{"iso_week": "2017-W40", "country": "FR",
                         "query": query, "weight": "0.25"}]
