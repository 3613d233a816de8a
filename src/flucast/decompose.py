"""Seasonal-trend decomposition via LOESS for weekly series.

Splits a series into trend + seasonal + remainder with an exact
reconstruction identity, and periodically extends the seasonal pattern
into the forecast horizon. Works on plain float arrays indexed by week
position; calendar handling lives in datahub.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    pass


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class Decomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray
    period: int

    def reconstruct(self) -> np.ndarray:
        return self.trend + self.seasonal + self.remainder


@dataclass(frozen=True)
class SeasonalTemplate:
    """One period of seasonal values, indexed by series position mod T."""

    values: np.ndarray  # length T, values[p] is the seasonal value at phase p
    period: int

    def __post_init__(self):
        if len(self.values) != self.period:
            raise ParameterError(
                f"template length {len(self.values)} != period {self.period}")


def _loess_at(xs: np.ndarray, ys: np.ndarray, x0: float, span: int,
              degree: int, rw: np.ndarray) -> float:
    """Locally weighted regression estimate at x0 over the span nearest xs."""
    n = len(xs)
    q = min(span, n)
    d = np.abs(xs - x0)
    idx = np.argsort(d, kind="stable")[:q]
    dq = d[idx]
    h = dq.max()
    if h <= 0:
        w = np.ones(q)
    else:
        w = np.clip(1.0 - (dq / h) ** 3, 0.0, None) ** 3
    w = w * rw[idx]
    if w.sum() <= 0:
        w = np.ones(q)
    xw = xs[idx]
    yw = ys[idx]
    if degree == 0:
        return float(np.sum(w * yw) / np.sum(w))
    # degree 1: closed-form weighted least squares line, evaluated at x0
    sw = w.sum()
    xm = np.sum(w * xw) / sw
    ym = np.sum(w * yw) / sw
    sxx = np.sum(w * (xw - xm) ** 2)
    if sxx <= 1e-300:
        return float(ym)
    slope = np.sum(w * (xw - xm) * (yw - ym)) / sxx
    return float(ym + slope * (x0 - xm))


def loess_smooth(series, span: int, degree: int,
                 robustness_weights=None) -> np.ndarray:
    """Tricube locally weighted regression at every index of the series."""
    ys = np.asarray(series, dtype=np.float64)
    n = len(ys)
    if n < 2:
        raise ParameterError("loess_smooth needs at least 2 points")
    if degree not in (0, 1):
        raise ParameterError(f"degree must be 0 or 1, got {degree}")
    if span % 2 == 0:
        raise ParameterError(f"span must be odd, got {span}")
    if span < degree + 1:
        raise ParameterError(f"span {span} too small for degree {degree}")
    if span > n:
        span = n if n % 2 == 1 else n - 1
    rw = (np.ones(n) if robustness_weights is None
          else np.asarray(robustness_weights, dtype=np.float64))
    if len(rw) != n:
        raise ParameterError("robustness weights length mismatch")
    xs = np.arange(n, dtype=np.float64)
    return np.array([_loess_at(xs, ys, float(i), span, degree, rw)
                     for i in range(n)])


def _next_odd(x: float) -> int:
    k = int(np.ceil(x))
    return k if k % 2 == 1 else k + 1


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    c = np.concatenate([[0.0], np.cumsum(x)])
    return (c[width:] - c[:-width]) / width


def _bisquare(resid: np.ndarray) -> np.ndarray:
    m = np.median(np.abs(resid))
    if m <= 0:
        return np.ones_like(resid)
    u = np.abs(resid) / (6.0 * m)
    return np.where(u < 1.0, (1.0 - u ** 2) ** 2, 0.0)


def stl_decompose(series, period: int, inner_iters: int = 2,
                  outer_iters: int = 1, seasonal_span: int = 7,
                  trend_span: int = None, lowpass_span: int = None
                  ) -> Decomposition:
    """Cleveland-style STL: cycle-subseries smoothing, low-pass, trend.

    The seasonal component is centered to zero mean over every full cycle
    (the removed means are folded into the trend), so reconstruction stays
    exact while per-cycle seasonal means vanish.
    """
    y = np.asarray(series, dtype=np.float64)
    n = len(y)
    if n < 2 * period:
        raise InsufficientDataError(
            f"need at least {2 * period} points for period {period}, got {n}")
    if np.any(~np.isfinite(y)):
        raise ParameterError("series contains missing or non-finite values")
    if trend_span is None:
        trend_span = _next_odd(1.5 * period / (1.0 - 1.5 / seasonal_span))
    if lowpass_span is None:
        lowpass_span = _next_odd(period)

    trend = np.zeros(n)
    seasonal = np.zeros(n)
    rho = np.ones(n)
    xs_by_phase = [np.arange(p, n, period, dtype=np.float64) / period
                   for p in range(period)]

    for outer in range(outer_iters + 1):
        for _ in range(inner_iters):
            detrended = y - trend
            # cycle-subseries smoothing, each extended one cycle both ways
            c = np.zeros(n + 2 * period)
            for p in range(period):
                sub = detrended[p::period]
                sub_rho = rho[p::period]
                m = len(sub)
                span = seasonal_span
                if span > m:
                    span = m if m % 2 == 1 else m - 1
                    span = max(span, 1)
                xs = np.arange(m, dtype=np.float64)
                for k in range(-1, m + 1):
                    pos = p + (k + 1) * period
                    if pos < n + 2 * period:
                        c[pos] = _loess_at(xs, sub, float(k), span, 0,
                                           sub_rho)
            # low-pass: MA(T) twice, MA(3), then degree-1 loess
            lp = _moving_average(c, period)
            lp = _moving_average(lp, period)
            lp = _moving_average(lp, 3)
            lp = loess_smooth(lp, lowpass_span, 1)
            seasonal = c[period:period + n] - lp
            trend = loess_smooth(y - seasonal, trend_span, 1, rho)
        if outer < outer_iters:
            rho = _bisquare(y - trend - seasonal)

    # center each full cycle of the seasonal; fold the mean into the trend
    for start in range(0, n, period):
        stop = min(start + period, n)
        m = seasonal[start:stop].mean()
        seasonal[start:stop] -= m
        trend[start:stop] += m

    remainder = y - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal,
                         remainder=remainder, period=period)


def deseasonalize(values, seasonal) -> np.ndarray:
    """Subtract the seasonal component pointwise."""
    values = np.asarray(values, dtype=np.float64)
    seasonal = np.asarray(seasonal, dtype=np.float64)
    if values.shape != seasonal.shape:
        raise ParameterError(
            f"misaligned series: {values.shape} vs {seasonal.shape}")
    return values - seasonal


def seasonal_template(d: Decomposition, fit_len: int = None
                      ) -> SeasonalTemplate:
    """Template from the final fitted cycle, indexed by phase.

    fit_len defaults to the full decomposition length; phases are week
    indices modulo the period, with index 0 at the start of the series.
    """
    n = len(d.seasonal) if fit_len is None else fit_len
    T = d.period
    if n < T:
        raise InsufficientDataError("decomposition shorter than one period")
    vals = np.empty(T)
    for i in range(n - T, n):
        vals[i % T] = d.seasonal[i]
    return SeasonalTemplate(values=vals, period=T)


def extend_seasonal(template: SeasonalTemplate, from_index: int,
                    steps: int) -> np.ndarray:
    """Seasonal values for indices from_index+1 .. from_index+steps."""
    T = template.period
    return np.array([template.values[(from_index + 1 + i) % T]
                     for i in range(steps)])
