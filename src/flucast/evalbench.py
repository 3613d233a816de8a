"""Metrics per forecast horizon, simple baselines, and reports.

RMSE and R-squared are computed on raw ILI rates per horizon 1..S over
all test windows. Baselines: seasonal-naive persistence, and an
autoregressive model with same-week query values as exogenous inputs
(one-step-ahead only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import Error, datahub, fluenet
from .numkit import NonFiniteError
from .querysel import DegenerateInputError, pearson


class MetricError(Error):
    pass


class NonFiniteMetricError(MetricError, NonFiniteError):
    """A forecast value that is not finite, or a metric of finite
    forecasts that overflows."""


def _finite(name: str, value: float) -> float:
    if not np.isfinite(value):
        raise NonFiniteMetricError(
            f"{name} is {value}: the forecast errors overflow")
    return value


@np.errstate(over="ignore", invalid="ignore")
def rmse(y, y_hat) -> float:
    """Root mean squared error; a MetricError when it is not finite."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.size == 0:
        raise MetricError(f"rmse needs equal nonzero lengths, got "
                          f"{y.shape} and {y_hat.shape}")
    return _finite("rmse", float(np.sqrt(np.mean((y - y_hat) ** 2))))


@np.errstate(over="ignore", invalid="ignore")
def r2(y, y_hat) -> float:
    """Coefficient of determination; a MetricError when it is not finite."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.size < 2:
        raise MetricError(f"r2 needs equal lengths >= 2, got "
                          f"{y.shape} and {y_hat.shape}")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0:
        raise MetricError("r2 undefined: zero variance in y")
    sse = float(np.sum((y - y_hat) ** 2))
    return _finite("r2", 1.0 - sse / sst)


@dataclass
class HorizonScore:
    horizon: int
    rmse: float
    r2: float


@dataclass
class EvalReport:
    model_name: str
    country: str
    term: str
    scores: list  # HorizonScore per forecast horizon 1..k
    traces: list = field(default_factory=list)  # (week, horizon, y, y_hat)
    attention: list = field(default_factory=list)  # (week, query, weight)


def seasonal_naive(windows) -> np.ndarray:
    """Persist each window's last deseasonalized value, reseasonalize per
    horizon; a (W, S) forecast."""
    return windows.x_des[:, -1:] + windows.x_seas


def _ar_rows(y: np.ndarray, q: np.ndarray, p: int, ts) -> np.ndarray:
    """The AR-exog rows [y_t..y_{t-p+1}, q_{t+1,:}, 1] at the positions
    `ts` of y and its (weeks x L) query matrix q, copied exactly."""
    return np.hstack([y[ts[:, None] - np.arange(p)], q[ts + 1],
                      np.ones((len(ts), 1))])


def fit_ar_exog(y: np.ndarray, q: np.ndarray, p: int) -> tuple:
    """Least squares for y_{t+1} ~ [y_t..y_{t-p+1}, q_{t+1,:}, 1].

    y is the training ILI series, q the aligned (weeks x L) query matrix.
    Returns (order, coefficients): p lags, L query terms, intercept, the
    minimum-norm ones when the design is rank deficient. The order is p cut
    to the largest that leaves n - p >= p + L + 2 rows, as a cut to
    max(1, n - L - 3) does wherever that fits; below 1 it is refused.
    """
    y = np.asarray(y, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, l = len(y), q.shape[1]
    p = min(p, (n - l - 2) // 2)
    if p < 1:
        raise MetricError(f"ar_exog needs >= {l + 4} training weeks, has {n}")
    coef, *_ = np.linalg.lstsq(_ar_rows(y, q, p, np.arange(p - 1, n - 1)),
                               y[p:], rcond=None)
    return p, coef


def ar_exog(series, panel, fit_len: int, windows, p: int) -> np.ndarray:
    """The AR-exog baseline's (W, 1) one-step forecast of the windows,
    fitted on the first `fit_len` weeks of the series and query panel."""
    y, q = series.values, panel.matrix
    try:
        order, coef = fit_ar_exog(y[:fit_len], q[:fit_len], p)
    except MetricError as e:
        raise MetricError(f"{series.country}: {e}") from None
    rows = _ar_rows(y, q, order, windows.last_week - series.start)
    # row by row: one matrix product may sum in another order
    return np.array([[row @ coef] for row in rows])


def evaluate(y_hat, windows, model_name: str, country: str,
             term: str = "") -> EvalReport:
    """Score a (W, k) forecast of the windows' raw targets at horizons
    1..k, 1 <= k <= S; a value that is not finite is refused."""
    if not windows:
        raise MetricError("no test windows")
    y_hat = np.asarray(y_hat, dtype=np.float64)
    w, s = windows.y_raw.shape
    if y_hat.ndim != 2 or len(y_hat) != w or not 1 <= y_hat.shape[1] <= s:
        raise MetricError(f"forecast shape {y_hat.shape} is not (W, k) with "
                          f"W = {w} and 1 <= k <= S = {s}")
    y = windows.y_raw[:, :y_hat.shape[1]]
    if not np.isfinite(y_hat).all():
        raise NonFiniteMetricError(f"{model_name} forecast for {country} "
                                   f"holds a non-finite value")
    traces = [(week + h + 1, h + 1, float(y[i, h]), float(y_hat[i, h]))
              for i, week in enumerate(windows.last_week.tolist())
              for h in range(y.shape[1])]
    scores = [HorizonScore(h + 1, rmse(a, f), r2(a, f))
              for h, (a, f) in enumerate(zip(y.T, y_hat.T))]
    return EvalReport(model_name=model_name, country=country, term=term,
                      scores=scores, traces=traces)


def evaluate_model(model: fluenet.ModelParams, test_windows, country: str,
                   model_name: str, term: str = "") -> EvalReport:
    """Evaluate a trained network on all test windows in one batch,
    collecting attention traces."""
    if not test_windows:
        raise MetricError("no test windows")
    o_hat, weights = fluenet.forward_batch(model, country,
                                           test_windows.x_des, test_windows.q)
    report = evaluate(o_hat.data + test_windows.x_seas, test_windows,
                      model_name, country, term)
    if weights is not None:
        report.attention = [(week, j, float(w)) for week, row in zip(
            test_windows.last_week.tolist(), weights)
            for j, w in enumerate(row)]
    return report


def correlation_report(series_by_country: dict, shifts: dict = None
                       ) -> dict:
    """Pairwise Pearson correlations over the weeks all series share.

    `shifts` maps country -> weeks to shift that series forward (the AU
    alignment). Fewer than 3 shared weeks, a series constant on them, or
    a pair `pearson` refuses has no correlation, a MetricError.
    """
    start = {c: s.start + (shifts or {}).get(c, 0)
             for c, s in series_by_country.items()}
    lo = max(start.values())
    hi = min(start[c] + len(s) for c, s in series_by_country.items()) - 1
    if hi - lo + 1 < 3:
        raise MetricError(f"{', '.join(start)}: the series share "
                          f"{max(hi - lo + 1, 0)} weeks once shifted by "
                          f"correlate.shift.<CC>, fewer than 3")
    seg = {c: s.values[lo - start[c]:hi - start[c] + 1]
           for c, s in series_by_country.items()}
    for c, values in seg.items():
        if values.max() <= values.min() and len(seg) > 1:
            raise MetricError(
                f"{c}: ILI rate is constant over the overlapping weeks "
                f"{datahub.format_week(lo)}..{datahub.format_week(hi)}, so "
                f"its correlation is undefined")

    def corr(a, b):
        try:
            return pearson(seg[a], seg[b])
        except DegenerateInputError as e:
            raise MetricError(f"{a}, {b}: no correlation over the weeks "
                              f"{datahub.format_week(lo)}.."
                              f"{datahub.format_week(hi)}: {e}") from None

    return {(a, b): 1.0 if a == b else corr(a, b) for a in seg for b in seg}


def write_report(path, reports) -> None:
    datahub.write_csv(
        path, ["model", "country", "term", "horizon", "rmse", "r2"],
        ([r.model_name, r.country, r.term, s.horizon, repr(s.rmse),
          repr(s.r2)] for r in reports for s in r.scores))


def write_forecasts(path, reports) -> None:
    datahub.write_csv(
        path, ["model", "iso_week", "country", "horizon", "y_true",
               "y_pred"],
        ([r.model_name, datahub.format_week(week), r.country, h, repr(y),
          repr(y_hat)]
         for r in reports for week, h, y, y_hat in r.traces))


def write_attention(path, reports, queries) -> None:
    """Attention rows of every report; `queries` maps a country to the
    query list its attention indices refer to."""
    datahub.write_csv(
        path, ["iso_week", "country", "query", "weight"],
        ([datahub.format_week(week), r.country, queries[r.country][j],
          repr(weight)] for r in reports for week, j, weight in r.attention))


def write_correlations(path, matrix) -> None:
    countries = sorted({a for a, _ in matrix})
    datahub.write_csv(
        path, ["country"] + countries,
        ([a] + [repr(matrix[(a, b)]) for b in countries] for a in countries))
