import numpy as np
import pytest

from flucast import datahub, evalbench, fluenet
from flucast.numkit import Rng


class TestRmse:
    def test_hand_value(self):
        got = evalbench.rmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert abs(got - np.sqrt(2.0 / 3.0)) < 1e-15

    def test_zero_on_perfect(self):
        assert evalbench.rmse([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_scale_equivariance(self):
        rng = Rng(1)
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
        rng = Rng(2)
        y = rng.normal(0, 1, 30)
        y_hat = y + rng.normal(0, 0.1, 30)
        base = evalbench.r2(y, y_hat)
        shifted = evalbench.r2(y + 5.0, y_hat + 5.0)
        assert abs(base - shifted) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(evalbench.MetricError, match="variance"):
            evalbench.r2([2.0, 2.0], [1.0, 3.0])


def make_sample(country, last_week, x_des, x_seas, y_raw, q=None):
    x_des = np.asarray(x_des, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    x_seas = np.asarray(x_seas, dtype=float)
    if q is None:
        q = np.zeros((len(x_des), 1))
    return datahub.WindowSample(country=country, last_week=last_week,
                                x_raw=x_des + 1.0, x_des=x_des, q=q,
                                y_raw=y_raw, o=y_raw - x_seas,
                                x_seas=x_seas)


class TestSeasonalNaive:
    def test_persists_last_deseasonalized_value(self):
        s = make_sample("US", 100, [0.1, 0.2, 0.7], [1.0, 2.0],
                        [9.0, 9.0])
        assert np.array_equal(evalbench.seasonal_naive(s),
                              [1.7, 2.7])

    def test_horizon_one_equals_last_raw_when_season_flat(self):
        s = make_sample("US", 100, [3.0, 4.0], [0.0, 0.0], [5.0, 6.0])
        assert evalbench.seasonal_naive(s)[0] == 4.0


class TestArExog:
    def test_recovers_true_coefficients(self):
        rng = Rng(3)
        n, p, l = 400, 2, 2
        q = rng.uniform(0, 1, (n, l))
        true = np.array([0.6, -0.2, 1.5, -0.7, 0.3])
        y = np.zeros(n)
        y[0], y[1] = 0.5, 0.2
        for t in range(1, n - 1):
            x = np.concatenate([[y[t], y[t - 1]], q[t + 1], [1.0]])
            y[t + 1] = x @ true
        model = evalbench.fit_ar_exog(y, q, p)
        assert model.order == 2
        assert np.max(np.abs(model.coefficients - true)) < 1e-6

    def test_pure_ar1(self):
        y = np.zeros(200)
        y[0] = 1.0
        for t in range(199):
            y[t + 1] = 0.5 * y[t]
        q = Rng(4).uniform(0, 1, (200, 1))
        model = evalbench.fit_ar_exog(y, q, 1)
        assert abs(model.coefficients[0] - 0.5) < 1e-6
        assert abs(model.coefficients[1]) < 1e-6  # query term unused
        assert abs(model.coefficients[2]) < 1e-6  # intercept

    def test_residuals_orthogonal_to_design(self):
        rng = Rng(5)
        n, p, l = 300, 3, 2
        y = rng.normal(0, 1, n)
        q = rng.uniform(0, 1, (n, l))
        model = evalbench.fit_ar_exog(y, q, p)
        rows = n - p
        design = np.empty((rows, p + l + 1))
        resid = np.empty(rows)
        for i, t in enumerate(range(p - 1, n - 1)):
            design[i, :p] = y[t::-1][:p]
            design[i, p:p + l] = q[t + 1]
            design[i, -1] = 1.0
            resid[i] = y[t + 1] - design[i] @ model.coefficients
        assert np.max(np.abs(design.T @ resid)) < 1e-7

    def test_predict_one_matches_dot_product(self):
        model = evalbench.ArExogModel(order=2,
                                      coefficients=np.array(
                                          [0.5, 0.25, 2.0, -1.0]),
                                      n_queries=1)
        got = model.predict_one(np.array([4.0, 2.0]), np.array([0.5]))
        assert got == 0.5 * 4 + 0.25 * 2 + 2.0 * 0.5 - 1.0

    def test_too_few_rows_rejected(self):
        with pytest.raises(evalbench.MetricError):
            evalbench.fit_ar_exog(np.ones(6), np.ones((6, 4)), 3)


class TestEvaluate:
    def make_windows(self):
        rng = Rng(6)
        out = []
        for i in range(6):
            y = rng.uniform(1, 5, 3)
            out.append(make_sample("US", 200 + i, rng.normal(0, 1, 4),
                                   rng.normal(0, 1, 3), y))
        return out

    def test_perfect_predictor_scores_perfectly(self):
        windows = self.make_windows()
        report = evalbench.evaluate(lambda s: s.y_raw, windows, 3,
                                    "oracle", "US")
        assert [s.horizon for s in report.scores] == [1, 2, 3]
        assert all(s.rmse == 0.0 and s.r2 == 1.0 for s in report.scores)
        assert len(report.traces) == 18

    def test_nan_horizons_reported_absent(self):
        windows = self.make_windows()

        def one_step(s):
            return np.array([s.y_raw[0], np.nan, np.nan])

        report = evalbench.evaluate(one_step, windows, 3, "ar", "US")
        assert [s.horizon for s in report.scores] == [1]
        assert all(h == 1 for _, h, _, _ in report.traces)

    def test_matches_direct_metric_computation(self):
        windows = self.make_windows()
        rng = Rng(7)
        noise = {id(w): rng.normal(0, 0.3, 3) for w in windows}
        report = evalbench.evaluate(lambda s: s.y_raw + noise[id(s)],
                                    windows, 3, "m", "US")
        for h_score in report.scores:
            h = h_score.horizon
            y = [w.y_raw[h - 1] for w in windows]
            y_hat = [w.y_raw[h - 1] + noise[id(w)][h - 1] for w in windows]
            assert abs(h_score.rmse - evalbench.rmse(y, y_hat)) < 1e-15
            assert abs(h_score.r2 - evalbench.r2(y, y_hat)) < 1e-15

    def test_empty_windows_rejected(self):
        with pytest.raises(evalbench.MetricError):
            evalbench.evaluate(lambda s: s.y_raw, [], 3, "m", "US")

    def test_evaluate_model_collects_attention(self):
        model = fluenet.ModelParams(m=3, n_in=4, s_out=3, l_queries=2,
                                    countries=["US"], seed=9)
        rng = Rng(8)
        windows = [make_sample("US", 300 + i, rng.normal(0, 1, 4),
                               rng.normal(0, 1, 3), rng.uniform(1, 5, 3),
                               q=rng.uniform(0, 1, (4, 2)))
                   for i in range(4)]
        report = evalbench.evaluate_model(model, windows, "US", "net")
        assert len(report.attention) == 8  # 4 windows x 2 queries
        by_week = {}
        for week, _, weight in report.attention:
            by_week.setdefault(week, 0.0)
            by_week[week] += weight
        assert all(abs(v - 1.0) < 1e-12 for v in by_week.values())


def per_window_evaluate_model(model, windows, country, model_name):
    """Oracle: the network run on one window at a time (B=1)."""
    attention = []

    def predict(sample):
        o_hat, weights = fluenet.forward_batch(model, country,
                                               sample.x_des[None],
                                               sample.q[None])
        if weights is not None:
            attention.extend((sample.last_week, j, float(w))
                             for j, w in enumerate(weights[0]))
        return o_hat.data[0] + sample.x_seas

    report = evalbench.evaluate(predict, windows, model.s_out, model_name,
                                country)
    report.attention = attention
    return report


class TestBatchedEvaluateModel:
    """evaluate_model runs all windows as one batch; the per-window loop
    it replaced is the oracle."""

    @pytest.mark.parametrize("kw", [
        {}, {"use_country_embedding": True, "standard_gru": True},
        {"arch": "gru_baseline"}, {"use_queries": False}],
        ids=["proposed", "embedded", "gru_baseline", "no_queries"])
    def test_matches_per_window_oracle(self, kw):
        model = fluenet.ModelParams(m=5, n_in=6, s_out=3, l_queries=2,
                                    countries=["JP", "US"], seed=4, **kw)
        rng = Rng(10)
        windows = [make_sample("US", 400 + i, rng.normal(0, 1, 6),
                               rng.normal(0, 1, 3), rng.uniform(1, 5, 3),
                               q=rng.uniform(0, 1, (6, 2)))
                   for i in range(9)]
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
        rng = Rng(10)
        s = self.make_series("US", 100, rng.uniform(0, 5, 30))
        out = evalbench.correlation_report({"US": s})
        assert out[("US", "US")] == 1.0

    def test_identical_series_fully_correlated(self):
        rng = Rng(11)
        vals = rng.uniform(0, 5, 30)
        out = evalbench.correlation_report(
            {"A": self.make_series("A", 100, vals),
             "B": self.make_series("B", 100, vals.copy())})
        assert abs(out[("A", "B")] - 1.0) < 1e-12
        assert out[("A", "B")] == out[("B", "A")]

    def test_scale_and_offset_invariance(self):
        rng = Rng(12)
        vals = rng.uniform(0, 5, 30)
        out = evalbench.correlation_report(
            {"A": self.make_series("A", 100, vals),
             "B": self.make_series("B", 100, 7.0 * vals + 3.0)})
        assert abs(out[("A", "B")] - 1.0) < 1e-12

    def test_shift_realigns_lagged_series(self):
        rng = Rng(13)
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
        with pytest.raises(evalbench.MetricError):
            evalbench.correlation_report({"A": a, "B": b})


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
        assert lines[1] == "2017-W40,US,1,2.0,2.5"

    def test_correlation_matrix_csv(self, tmp_path):
        matrix = {("A", "A"): 1.0, ("A", "B"): 0.5,
                  ("B", "A"): 0.5, ("B", "B"): 1.0}
        path = tmp_path / "corr.csv"
        evalbench.write_correlations(str(path), matrix)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["country,A,B", "A,1.0,0.5", "B,0.5,1.0"]
