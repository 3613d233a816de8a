import os
import subprocess
import sys

import numpy as np
import pytest

from flucast import decompose


def wls_loess_oracle(ys, span, degree):
    """Independent per-point weighted least squares with tricube weights."""
    n = len(ys)
    xs = np.arange(n, dtype=float)
    out = np.empty(n)
    q = min(span, n)
    for i in range(n):
        d = np.abs(xs - i)
        order = np.argsort(d, kind="stable")[:q]
        h = d[order].max()
        w = (1 - (d[order] / h) ** 3) ** 3 if h > 0 else np.ones(q)
        w = np.clip(w, 0, None)
        if degree == 0:
            out[i] = np.sum(w * ys[order]) / np.sum(w)
        else:
            coeffs = np.polyfit(xs[order], ys[order], 1, w=np.sqrt(w))
            out[i] = np.polyval(coeffs, i)
    return out


def _loess_at(xs, ys, x0, span, degree, rw):
    """Per-point LOESS over the span nearest x0 by a full stable sort: the
    implementation the contiguous-window kernel replaced, kept as oracle."""
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
    sw = w.sum()
    xm = np.sum(w * xw) / sw
    ym = np.sum(w * yw) / sw
    sxx = np.sum(w * (xw - xm) ** 2)
    if sxx <= 1e-300:
        return float(ym)
    slope = np.sum(w * (xw - xm) * (yw - ym)) / sxx
    return float(ym + slope * (x0 - xm))


def oracle_loess_smooth(ys, span, degree, rw=None):
    n = len(ys)
    if span > n:
        span = n if n % 2 == 1 else n - 1
    rw = np.ones(n) if rw is None else rw
    xs = np.arange(n, dtype=np.float64)
    return np.array([_loess_at(xs, ys, float(i), span, degree, rw)
                     for i in range(n)])


def oracle_stl(y, period, inner_iters=2, outer_iters=1, seasonal_span=7):
    """stl_decompose with one per-point LOESS call per output value."""
    n = len(y)
    trend_span = decompose._next_odd(1.5 * period
                                     / (1.0 - 1.5 / seasonal_span))
    lowpass_span = decompose._next_odd(period)
    trend = np.zeros(n)
    seasonal = np.zeros(n)
    rho = np.ones(n)
    for outer in range(outer_iters + 1):
        for _ in range(inner_iters):
            detrended = y - trend
            c = np.zeros(n + 2 * period)
            for p in range(period):
                sub = detrended[p::period]
                m = len(sub)
                span = seasonal_span
                if span > m:
                    span = max(m if m % 2 == 1 else m - 1, 1)
                xs = np.arange(m, dtype=np.float64)
                for k in range(-1, m + 1):
                    c[p + (k + 1) * period] = _loess_at(
                        xs, sub, float(k), span, 0, rho[p::period])
            lp = decompose._moving_average(c, period)
            lp = decompose._moving_average(lp, period)
            lp = decompose._moving_average(lp, 3)
            lp = oracle_loess_smooth(lp, lowpass_span, 1)
            seasonal = c[period:period + n] - lp
            trend = oracle_loess_smooth(y - seasonal, trend_span, 1, rho)
        if outer < outer_iters:
            rho = decompose._bisquare(y - trend - seasonal)
    for start in range(0, n, period):
        stop = min(start + period, n)
        m = seasonal[start:stop].mean()
        seasonal[start:stop] -= m
        trend[start:stop] += m
    return trend, seasonal, y - trend - seasonal


class TestContiguousWindowKernel:
    """The vectorized LOESS is bitwise equal to the per-point oracle."""

    @pytest.mark.parametrize("n", [2, 3, 12, 53, 104, 157])
    def test_loess_smooth_bitwise(self, n):
        rng = np.random.default_rng(n)
        for span in [1, 3, 5, 7, 13, 51, 53, 101, 155, 201]:
            for degree in (0, 1):
                if span < degree + 1:
                    continue
                ys = rng.normal(0, 1, n)
                rounded = np.round(ys, 1)  # ties in y
                some_zero = rng.uniform(0, 1, n) * (rng.random(n) < 0.6)
                # weights near 1e-305 make sxx <= 1e-300 in some windows
                for y, rw in ((ys, None), (rounded, None), (ys, some_zero),
                              (rounded, some_zero), (ys, np.zeros(n)),
                              (ys, 1e-305 * some_zero)):
                    out = decompose.loess_smooth(y, span, degree, rw)
                    assert np.array_equal(
                        out, oracle_loess_smooth(y, span, degree, rw)), (
                        span, degree)

    # (12, 5): subseries of 3 and 2 points, so span 7 clamps to 3 and 1
    @pytest.mark.parametrize("n, period", [(104, 52), (105, 52), (233, 52),
                                           (312, 52), (520, 52), (12, 5)])
    def test_stl_decompose_bitwise(self, n, period):
        rng = np.random.default_rng(n)
        t = np.arange(n, dtype=float)
        y = (np.abs(rng.normal(5, 2, n)).cumsum() / 50
             + np.sin(2 * np.pi * t / period) + rng.normal(0, 0.3, n))
        y[rng.integers(0, n, 3)] += 4.0  # outliers for the robustness pass
        d = decompose.stl_decompose(y, period=period)
        trend, seasonal, remainder = oracle_stl(y, period)
        assert np.array_equal(d.trend, trend)
        assert np.array_equal(d.seasonal, seasonal)
        assert np.array_equal(d.remainder, remainder)


def stl_input(rng, n, period=52):
    t = np.arange(n, dtype=float)
    y = (np.abs(rng.normal(5, 2, n)).cumsum() / 50
         + np.sin(2 * np.pi * t / period) + rng.normal(0, 0.3, n))
    y[rng.integers(0, n, 3)] += 4.0  # outliers for the robustness pass
    return y


class TestWindowCache:
    """The LOESS windows are built once per series length and span; a warm
    cache gives the oracles' bits."""

    def test_warm_cache_matches_oracles(self):
        rng = np.random.default_rng(17)
        # lengths out of order and revisited, each time with other data
        for n in (157, 104, 157, 233, 104, 157):
            y = stl_input(rng, n)
            d = decompose.stl_decompose(y, period=52)
            trend, seasonal, remainder = oracle_stl(y, 52)
            assert np.array_equal(d.trend, trend)
            assert np.array_equal(d.seasonal, seasonal)
            assert np.array_equal(d.remainder, remainder)
            rw = rng.uniform(0, 1, n) * (rng.random(n) < 0.8)
            for span, degree in ((7, 0), (53, 1), (101, 1)):
                for weights in (None, rw):
                    assert np.array_equal(
                        decompose.loess_smooth(y, span, degree, weights),
                        oracle_loess_smooth(y, span, degree, weights))

    def test_cached_arrays_are_read_only(self):
        decompose.loess_smooth(np.arange(30.0), 7, 1)
        idx, tri = decompose._window(30, 7, 0, 30)
        with pytest.raises(ValueError):
            idx[0, 0] = 5
        with pytest.raises(ValueError):
            tri[0, 0] = 0.0

    def test_cache_is_bounded(self):
        limit = decompose._window.cache_info().maxsize
        assert limit is not None
        for n in range(20, 20 + 2 * limit):
            decompose.loess_smooth(np.arange(float(n)), 5, 1)
        assert decompose._window.cache_info().currsize == limit

    def test_second_stl_of_a_length_builds_no_window(self):
        rng = np.random.default_rng(18)
        decompose.stl_decompose(stl_input(rng, 261), period=52)
        before = decompose._window.cache_info()
        decompose.stl_decompose(stl_input(rng, 261), period=52)
        after = decompose._window.cache_info()
        assert after.misses == before.misses
        # 2 inner x 2 outer passes, each with two subseries groups, the
        # low-pass and the trend
        assert after.hits - before.hits == 16


def median_bisquare(resid):
    """Bisquare robustness weights from np.median, as STL computed them."""
    m = np.median(np.abs(resid))
    if m <= 0:
        return np.ones_like(resid)
    u = np.abs(resid) / (6.0 * m)
    return np.where(u < 1.0, (1.0 - u ** 2) ** 2, 0.0)


class TestBisquare:
    def test_matches_the_median_oracle(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 3, 4, 7, 104, 157, 312):
            resid = rng.normal(0, 1, n)
            for r in (resid, np.round(resid, 1), np.zeros(n),
                      np.where(rng.random(n) < 0.7, 0.0, resid)):
                assert np.array_equal(decompose._bisquare(r),
                                      median_bisquare(r)), n

    def test_stl_imports_no_masked_arrays(self):
        """np.median imports numpy.ma on its first call; STL does not."""
        code = ("import sys\n"
                "import numpy as np\n"
                "from flucast import decompose\n"
                "y = np.sin(np.arange(160) / 3.0) + np.arange(160) / 50\n"
                "decompose.stl_decompose(y, period=52)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(decompose.__file__))
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


class TestLoessSmooth:
    def test_constant_is_fixed_point(self):
        ys = np.full(5, 5.0)
        for span in (3, 5):
            for degree in (0, 1):
                out = decompose.loess_smooth(ys, span, degree)
                assert np.max(np.abs(out - 5.0)) < 1e-12

    def test_degree_one_reproduces_line(self):
        t = np.arange(40, dtype=float)
        ys = 2 * t + 1
        for span in (3, 7, 21):
            out = decompose.loess_smooth(ys, span, 1)
            assert np.max(np.abs(out - ys)) < 1e-9

    def test_matches_wls_oracle_on_noisy_sine(self):
        rng = np.random.default_rng(42)
        t = np.arange(60, dtype=float)
        ys = np.sin(2 * np.pi * t / 20) + rng.normal(0, 0.2, 60)
        for degree in (0, 1):
            out = decompose.loess_smooth(ys, 7, degree)
            assert np.max(np.abs(out - wls_loess_oracle(ys, 7, degree))) < 1e-9

    def test_even_span_rejected(self):
        with pytest.raises(decompose.ParameterError):
            decompose.loess_smooth(np.arange(10.0), 4, 1)

    def test_span_clamped_to_length(self):
        ys = 3.0 * np.arange(6)
        out = decompose.loess_smooth(ys, 99, 1)
        assert np.max(np.abs(out - ys)) < 1e-9

    def test_robustness_weights_downweight_outlier(self):
        ys = np.zeros(11)
        ys[5] = 10.0
        rw = np.ones(11)
        rw[5] = 0.0
        out = decompose.loess_smooth(ys, 5, 0, robustness_weights=rw)
        assert abs(out[5]) < 1e-12


class TestStlDecompose:
    def test_pure_sinusoid_recovery(self):
        t = np.arange(208, dtype=float)
        s_true = np.sin(2 * np.pi * t / 52)
        d = decompose.stl_decompose(s_true, period=52)
        assert np.max(np.abs(d.seasonal - s_true)) < 0.05
        assert np.sqrt(np.mean(d.remainder ** 2)) < 0.05

    def test_constant_series(self):
        d = decompose.stl_decompose(np.full(120, 7.0), period=52)
        assert np.max(np.abs(d.seasonal)) < 1e-6
        assert np.max(np.abs(d.trend - 7.0)) < 1e-6

    def test_sinusoid_plus_line_trend_slope(self):
        t = np.arange(260, dtype=float)
        series = 0.02 * t + np.sin(2 * np.pi * t / 52)
        d = decompose.stl_decompose(series, period=52)
        interior = slice(52, -52)
        slope = np.polyfit(t[interior], d.trend[interior], 1)[0]
        assert abs(slope - 0.02) / 0.02 < 0.05

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(5)
        for k in range(5):
            series = np.abs(rng.normal(5, 2, 208)).cumsum() / 50
            d = decompose.stl_decompose(series, period=52)
            total = d.trend + d.seasonal + d.remainder
            assert np.max(np.abs(total - series)) <= 1e-9

    def test_per_cycle_seasonal_means_vanish(self):
        rng = np.random.default_rng(9)
        t = np.arange(208, dtype=float)
        series = 2 + np.sin(2 * np.pi * t / 52) + rng.normal(0, 0.1, 208)
        d = decompose.stl_decompose(series, period=52)
        for c in range(4):
            assert abs(d.seasonal[c * 52:(c + 1) * 52].mean()) < 1e-6

    def test_no_seasonality_gives_small_seasonal(self):
        t = np.arange(208, dtype=float)
        series = 1 + 0.01 * t  # pure trend by construction
        d = decompose.stl_decompose(series, period=52)
        assert np.max(np.abs(d.seasonal)) < 0.05 * series.std()

    def test_too_short_rejected(self):
        with pytest.raises(decompose.ParameterError):
            decompose.stl_decompose(np.ones(80), period=52)

    def test_missing_values_rejected(self):
        series = np.ones(120)
        series[3] = np.nan
        with pytest.raises(decompose.ParameterError):
            decompose.stl_decompose(series, period=52)


def template_pair_oracle(seasonal, period, length):
    """The extension as it was built from two steps: a template holding
    the final fitted cycle by phase (position mod the period), then the
    template read at each position past the fit."""
    n = len(seasonal)
    template = np.empty(period)
    template[np.arange(n - period, n) % period] = seasonal[n - period:]
    return np.concatenate([seasonal,
                           template[np.arange(n, length) % period]])


class TestExtendSeasonal:
    def test_periodic_indexing(self):
        rng = np.random.default_rng(40)
        for n, period, length in ((3, 3, 3), (4, 3, 8), (7, 3, 20),
                                  (5, 5, 17)):
            seasonal = rng.normal(0, 1, n)
            out = decompose.extend_seasonal(seasonal, period, length)
            want = template_pair_oracle(seasonal, period, length)
            assert np.array_equal(out, want)
        assert np.array_equal(decompose.extend_seasonal(
            np.array([9.0, 1.0, 2.0, 3.0]), 3, 8),
            [9.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0])

    def test_zero_steps_empty(self):
        seasonal = np.array([4.0, 5.0, 6.0, 7.0])
        out = decompose.extend_seasonal(seasonal, 3, 4)
        assert np.array_equal(out, seasonal)
        assert len(decompose.extend_seasonal(seasonal, 3, 0)) == 0
        with pytest.raises(decompose.ParameterError):
            decompose.extend_seasonal(seasonal, 5, 9)

    def test_full_period_is_rotation(self):
        # The first period past the fit repeats the final fitted cycle.
        seasonal = np.random.default_rng(41).normal(0, 1, 11)
        out = decompose.extend_seasonal(seasonal, 4, 15)
        assert np.array_equal(out[11:], seasonal[7:])
        assert np.array_equal(out, template_pair_oracle(seasonal, 4, 15))

    def test_t_periodicity(self):
        seasonal = np.random.default_rng(42).normal(0, 1, 12)
        out = decompose.extend_seasonal(seasonal, 5, 30)
        for i in range(12 - 5, 30 - 5):
            assert out[i] == out[i + 5]

    def test_template_from_final_cycle(self):
        t = np.arange(208, dtype=float)
        s = np.sin(2 * np.pi * t / 52)
        d = decompose.stl_decompose(s, period=52)
        out = decompose.extend_seasonal(d.seasonal, 52, 208 + 60)
        assert np.array_equal(out[208:260], d.seasonal[-52:])
        assert np.array_equal(out, template_pair_oracle(d.seasonal, 52,
                                                        208 + 60))
