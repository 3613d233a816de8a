"""Seasonal-trend decomposition via LOESS for weekly series.

Splits a series into trend + seasonal + remainder with an exact
reconstruction identity, and periodically extends the seasonal pattern
into the forecast horizon. Works on plain float arrays indexed by week
position; calendar handling lives in datahub.

Every LOESS smoother runs on contiguous windows: on equally spaced x the
q nearest neighbours of a point are a window clamped at the series ends,
so all points are smoothed at once with array operations, with results
bitwise equal to per-point nearest-neighbour LOESS. The windows and their
tricube weights depend only on the series length and the span, so they
are built once and cached for a few lengths: STL's later passes, and
each further country of the same length, reuse them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import Error


class ParameterError(Error):
    pass


@dataclass(frozen=True)
class Decomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray  # series - trend - seasonal


@functools.lru_cache(maxsize=8)
def _window(m: int, q: int, lo: int, hi: int) -> tuple:
    """The q-point LOESS windows of the points x0 = lo..hi-1 on x = 0..m-1:
    (idx, tri), the (K, q) neighbour indices and their tricube weights.

    On x = 0..m-1 the q nearest neighbours of x0 are the contiguous window
    starting at clip(x0 - q//2, 0, m - q). Each window is ordered by
    distance, ties to the lower index, so every weighted sum adds the same
    terms in the same order as a nearest-neighbour sort of the whole row.
    STL smooths with at most four kinds of window per series length.
    Both arrays are read-only, as every caller shares them.
    """
    x0s = np.arange(lo, hi)
    start = np.clip(x0s - q // 2, 0, m - q)
    win = start[:, None] + np.arange(q)
    d = np.abs(win - x0s[:, None]).astype(np.float64)
    order = np.argsort(d, axis=1, kind="stable")
    idx = np.take_along_axis(win, order, axis=1)
    dq = np.take_along_axis(d, order, axis=1)
    h = dq[:, -1:]
    # a row with h <= 0 has every distance 0, so dividing it by 1 instead
    # gives it unit tricube weights
    tri = np.clip(1.0 - (dq / np.where(h > 0, h, 1.0)) ** 3, 0.0, None) ** 3
    idx.flags.writeable = False
    tri.flags.writeable = False
    return idx, tri


def _loess_rows(ys: np.ndarray, rw: np.ndarray, lo: int, hi: int, q: int,
                degree: int) -> np.ndarray:
    """Tricube LOESS of each row of ys (R, m) at the integer points
    x0 = lo..hi-1, over the windows of `_window`. Returns the (R, K)
    estimates for the K = hi - lo points.
    """
    idx, tri = _window(ys.shape[1], q, lo, hi)
    w = tri * rw[:, idx]
    w = np.where(w.sum(axis=-1, keepdims=True) <= 0, 1.0, w)
    yw = ys[:, idx]
    if degree == 0:
        return np.sum(w * yw, axis=-1) / np.sum(w, axis=-1)
    # degree 1: closed-form weighted least squares line, evaluated at x0
    xw = idx.astype(np.float64)
    sw = w.sum(axis=-1, keepdims=True)
    xm = np.sum(w * xw, axis=-1, keepdims=True) / sw
    ym = np.sum(w * yw, axis=-1, keepdims=True) / sw
    sxx = np.sum(w * (xw - xm) ** 2, axis=-1, keepdims=True)
    flat = sxx <= 1e-300
    slope = (np.sum(w * (xw - xm) * (yw - ym), axis=-1, keepdims=True)
             / np.where(flat, 1.0, sxx))
    x0s = np.arange(lo, hi)[:, None]
    return np.where(flat, ym, ym + slope * (x0s - xm))[..., 0]


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
    return _loess_rows(ys[None], rw[None], 0, n, span, degree)[0]


def _next_odd(x: float) -> int:
    k = int(np.ceil(x))
    return k if k % 2 == 1 else k + 1


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    c = np.concatenate([[0.0], np.cumsum(x)])
    return (c[width:] - c[:-width]) / width


def _bisquare(resid: np.ndarray) -> np.ndarray:
    # np.median's value and bits, without the ~10 ms import of numpy.ma
    # that np.median makes on its first call in a process
    a = np.sort(np.abs(resid))
    k = len(a) // 2
    m = a[k] if len(a) % 2 else (a[k - 1] + a[k]) / 2
    if m <= 0:
        return np.ones_like(resid)
    u = np.abs(resid) / (6.0 * m)
    return np.where(u < 1.0, (1.0 - u ** 2) ** 2, 0.0)


# STL settings: inner and outer (robustness) loop counts and the
# cycle-subseries LOESS span. The trend and low-pass spans follow from
# the period (Cleveland et al. 1990).
_INNER_ITERS = 2
_OUTER_ITERS = 1
_SEASONAL_SPAN = 7


def stl_decompose(series, period: int) -> Decomposition:
    """Cleveland-style STL: cycle-subseries smoothing, low-pass, trend.

    The seasonal component is centered to zero mean over every full cycle
    (the removed means are folded into the trend), so reconstruction stays
    exact while per-cycle seasonal means vanish.
    """
    y = np.asarray(series, dtype=np.float64)
    n = len(y)
    if n < 2 * period:
        raise ParameterError(
            f"need at least {2 * period} points for period {period}, got {n}")
    if np.any(~np.isfinite(y)):
        raise ParameterError("series contains missing or non-finite values")
    trend_span = _next_odd(1.5 * period / (1.0 - 1.5 / _SEASONAL_SPAN))
    lowpass_span = _next_odd(period)

    trend = np.zeros(n)
    seasonal = np.zeros(n)
    rho = np.ones(n)
    # the cycle-subseries of phase p is y[p::period]; the phases before
    # n % period have one point more. Each length group is smoothed in one
    # call at k = -1..m, i.e. extended one cycle both ways, into c[p + (k+1)T]
    groups = []
    for phases in (np.arange(n % period), np.arange(n % period, period)):
        if len(phases):
            m = len(range(phases[0], n, period))
            span = _SEASONAL_SPAN
            if span > m:
                span = max(m if m % 2 == 1 else m - 1, 1)
            groups.append((phases[:, None] + period * np.arange(m), span,
                           phases[:, None] + period * np.arange(m + 2)))

    for outer in range(_OUTER_ITERS + 1):
        for _ in range(_INNER_ITERS):
            detrended = y - trend
            c = np.zeros(n + 2 * period)
            for sub, span, out in groups:
                c[out] = _loess_rows(detrended[sub], rho[sub], -1,
                                     sub.shape[1] + 1, span, 0)
            # low-pass: MA(T) twice, MA(3), then degree-1 loess
            lp = _moving_average(c, period)
            lp = _moving_average(lp, period)
            lp = _moving_average(lp, 3)
            lp = loess_smooth(lp, lowpass_span, 1)
            seasonal = c[period:period + n] - lp
            trend = loess_smooth(y - seasonal, trend_span, 1, rho)
        if outer < _OUTER_ITERS:
            rho = _bisquare(y - trend - seasonal)

    # center each full cycle of the seasonal; fold the mean into the trend
    for start in range(0, n, period):
        stop = min(start + period, n)
        m = seasonal[start:stop].mean()
        seasonal[start:stop] -= m
        trend[start:stop] += m

    remainder = y - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, remainder=remainder)


def extend_seasonal(seasonal: np.ndarray, period: int, length: int
                    ) -> np.ndarray:
    """`length` seasonal values: the fitted ones, then repeats of their
    final cycle, so a position past the fit takes the value of the last
    fitted position in its phase (position mod the period)."""
    n = len(seasonal)
    if n < period:
        raise ParameterError("seasonal shorter than one period")
    i = np.arange(length)
    past = n - period + (i - n) % period
    return seasonal[np.where(i < n, i, past)]
