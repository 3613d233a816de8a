"""Metrics per forecast horizon, simple baselines, and reports.

RMSE and R-squared are computed on raw ILI rates per horizon 1..S over
all test windows. Baselines: seasonal-naive persistence, and an
autoregressive model with same-week query values as exogenous inputs
(one-step-ahead only).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import datahub, fluenet
from .querysel import pearson


class MetricError(ValueError):
    pass


def rmse(y, y_hat) -> float:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.size == 0:
        raise MetricError(f"rmse needs equal nonzero lengths, got "
                          f"{y.shape} and {y_hat.shape}")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def r2(y, y_hat) -> float:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.size < 2:
        raise MetricError(f"r2 needs equal lengths >= 2, got "
                          f"{y.shape} and {y_hat.shape}")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0:
        raise MetricError("r2 undefined: zero variance in y")
    sse = float(np.sum((y - y_hat) ** 2))
    return 1.0 - sse / sst


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
    scores: list  # HorizonScore per horizon 1..S (absent horizons omitted)
    traces: list = field(default_factory=list)  # (week, horizon, y, y_hat)
    attention: list = field(default_factory=list)  # (week, query, weight)


def seasonal_naive(sample) -> np.ndarray:
    """Persist the last deseasonalized value, reseasonalize per horizon."""
    return sample.x_des[-1] + sample.x_seas


@dataclass
class ArExogModel:
    """AR(p) on ILI lags plus same-week query values; one-step-ahead only."""

    order: int
    coefficients: np.ndarray  # p lags, then L query terms, then intercept
    n_queries: int

    def predict_one(self, lags: np.ndarray, q_next: np.ndarray) -> float:
        """Forecast y_{t+1} from [y_t .. y_{t-p+1}] and q_{t+1}."""
        x = np.concatenate([lags, q_next, [1.0]])
        return float(x @ self.coefficients)


def fit_ar_exog(y: np.ndarray, q: np.ndarray, p: int) -> ArExogModel:
    """Least squares for y_{t+1} ~ [y_t..y_{t-p+1}, q_{t+1,:}, 1].

    y is the training ILI series, q the aligned (weeks x L) query matrix.
    Falls back to ridge (lambda 1e-6) on rank deficiency. p is reduced
    automatically when training rows are scarce.
    """
    y = np.asarray(y, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, l = len(y), q.shape[1]
    p = min(p, max(1, n - l - 3))
    rows = n - p
    if rows < p + l + 2:
        raise MetricError(f"need >= {p + l + 2} training rows, have {rows}")
    design = np.empty((rows, p + l + 1))
    target = np.empty(rows)
    for i, t in enumerate(range(p - 1, n - 1)):
        design[i, :p] = y[t::-1][:p]
        design[i, p:p + l] = q[t + 1]
        design[i, -1] = 1.0
        target[i] = y[t + 1]
    if np.linalg.matrix_rank(design) < design.shape[1]:
        warnings.warn("rank-deficient AR design; using ridge fallback")
        g = design.T @ design + 1e-6 * np.eye(design.shape[1])
        coef = np.linalg.solve(g, design.T @ target)
    else:
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return ArExogModel(order=p, coefficients=coef, n_queries=l)


def evaluate(predict, test_windows, s_out: int, model_name: str,
             country: str, term: str = "") -> EvalReport:
    """Score a forecaster over test windows, per horizon.

    `predict(sample) -> array of length s_out (trailing NaN allowed for
    unsupported horizons)`. Horizons where every prediction is NaN are
    reported absent (the AR baseline's multi-step case).
    """
    if not test_windows:
        raise MetricError("no test windows")
    horizons = range(1, s_out + 1)
    truth = {h: [] for h in horizons}
    preds = {h: [] for h in horizons}
    traces = []
    attention = []
    for sample in test_windows:
        y_hat = np.asarray(predict(sample), dtype=np.float64)
        for h in horizons:
            v = y_hat[h - 1]
            if np.isnan(v):
                continue
            truth[h].append(sample.y_raw[h - 1])
            preds[h].append(v)
            traces.append((sample.last_week + h, h,
                           float(sample.y_raw[h - 1]), float(v)))
    scores = []
    for h in horizons:
        if not preds[h]:
            continue
        scores.append(HorizonScore(horizon=h,
                                   rmse=rmse(truth[h], preds[h]),
                                   r2=r2(truth[h], preds[h])))
    return EvalReport(model_name=model_name, country=country, term=term,
                      scores=scores, traces=traces, attention=attention)


def evaluate_model(model: fluenet.ModelParams, test_windows, country: str,
                   model_name: str, term: str = "") -> EvalReport:
    """Evaluate a trained network on all test windows in one batch,
    collecting attention traces."""
    if not test_windows:
        raise MetricError("no test windows")
    o_hat, weights = fluenet.forward_batch(
        model, country, np.stack([s.x_des for s in test_windows]),
        np.stack([s.q for s in test_windows]))
    # `evaluate` asks for one forecast per window, in order
    y_hat = iter(o_hat.data + np.stack([s.x_seas for s in test_windows]))
    report = evaluate(lambda sample: next(y_hat), test_windows,
                      model.s_out, model_name, country, term)
    if weights is not None:
        report.attention = [(s.last_week, j, float(w))
                            for s, row in zip(test_windows, weights)
                            for j, w in enumerate(row)]
    return report


def correlation_report(series_by_country: dict, shifts: dict = None
                       ) -> dict:
    """Pairwise Pearson correlations over the overlapping weeks.

    `shifts` maps country -> weeks to shift that series forward (the AU
    alignment). Each series is min-max normalized on the overlap first.
    """
    shifts = shifts or {}
    shifted = {}
    for c, s in series_by_country.items():
        k = int(shifts.get(c, 0))
        shifted[c] = datahub.WeeklySeries(country=c, start=s.start + k,
                                          values=s.values)
    lo = max(s.start for s in shifted.values())
    hi = min(s.end for s in shifted.values())
    if hi - lo + 1 < 3:
        raise MetricError("insufficient overlap between country series")
    segments = {}
    for c, s in shifted.items():
        seg = s.values[lo - s.start:hi - s.start + 1]
        mn, mx = seg.min(), seg.max()
        segments[c] = (seg - mn) / (mx - mn) if mx > mn else seg
    countries = sorted(segments)
    out = {}
    for a in countries:
        for b in countries:
            out[(a, b)] = 1.0 if a == b else pearson(segments[a],
                                                     segments[b])
    return out


def write_report(path, reports) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["model", "country", "term", "horizon", "rmse", "r2"])
        for r in reports:
            for s in r.scores:
                w.writerow([r.model_name, r.country, r.term, s.horizon,
                            repr(s.rmse), repr(s.r2)])


def write_forecasts(path, reports) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["iso_week", "country", "horizon", "y_true", "y_pred"])
        for r in reports:
            for week, h, y, y_hat in r.traces:
                w.writerow([datahub.format_week(week), r.country, h,
                            repr(y), repr(y_hat)])


def write_attention(path, reports, queries) -> None:
    """Attention rows of every report; `queries` maps a country to the
    query list its attention indices refer to."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["iso_week", "country", "query", "weight"])
        for r in reports:
            for week, j, weight in r.attention:
                w.writerow([datahub.format_week(week), r.country,
                            queries[r.country][j], repr(weight)])


def write_correlations(path, matrix) -> None:
    countries = sorted({a for a, _ in matrix})
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["country"] + countries)
        for a in countries:
            w.writerow([a] + [repr(matrix[(a, b)]) for b in countries])
