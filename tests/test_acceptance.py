"""End-to-end acceptance checks for the forecasting toolkit.

Each test states one externally verifiable property: gradient fidelity,
decomposition identities, attention contracts, scheduled-sampling limits,
synthetic forecasting skill (single- and multi-country), metric and
baseline oracles, selection correctness, and bitwise reproducibility.
"""

import numpy as np
import pytest

from flucast import (cli, datahub, decompose, evalbench, fluenet, querysel,
                     trainer)
from flucast import numkit as nk
from flucast.numkit import Rng, Tensor2


class TestGradientFidelity:
    """Analytic gradients match central finite differences."""

    @pytest.mark.parametrize("standard_gru", [False, True],
                             ids=["literal", "standard"])
    def test_full_model_gradients(self, standard_gru):
        m, n, s, l, b = 4, 8, 2, 2, 3
        model = fluenet.ModelParams(m=m, n_in=n, s_out=s, l_queries=l,
                                    countries=["US"], seed=17,
                                    use_country_embedding=True,
                                    standard_gru=standard_gru)
        rng = Rng(18)
        x = rng.normal(0, 1, (b, n))
        q = rng.uniform(0, 1, (b, n, l))
        o = rng.normal(0, 1, (b, s))

        def loss_value():
            o_hat, _ = fluenet.forward_batch(model, "US", x, q)
            return trainer.mse_loss(o_hat, o).item()

        with nk.GradTape() as tape:
            o_hat, _ = fluenet.forward_batch(model, "US", x, q)
            loss = trainer.mse_loss(o_hat, o)
        nk.backward(tape, loss)

        # At 1e-5 the quotient's roundoff, ~eps * loss / step, is 1e-4 of
        # a gradient near the 1e-8 floor; 1e-4 lowers the worst error.
        step = 1e-4
        worst = 0.0
        checked = 0
        for name, p in model.named_params().items():
            assert p.grad is not None, name
            it = np.nditer(p.data, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                g = p.grad[idx]
                if abs(g) <= 1e-8:
                    continue
                orig = p.data[idx]
                p.data[idx] = orig + step
                up = loss_value()
                p.data[idx] = orig - step
                down = loss_value()
                p.data[idx] = orig
                fd = (up - down) / (2 * step)
                worst = max(worst, abs(fd - g) / max(abs(g), abs(fd)))
                checked += 1
        assert checked > 200
        assert worst < 1e-4


class TestDecompositionIdentities:
    """Exact reconstruction and sinusoid seasonal recovery."""

    def test_reconstruction_on_random_series(self):
        rng = Rng(25)
        for trial in range(20):
            series = (5.0 + np.cumsum(rng.normal(0, 0.2, 208))
                      + 2.0 * np.sin(2 * np.pi * np.arange(208) / 52.0)
                      + rng.normal(0, 0.3, 208))
            d = decompose.stl_decompose(series, period=52)
            err = np.max(np.abs(d.reconstruct() - series))
            assert err <= 1e-9, f"trial {trial}: {err}"

    def test_pure_sinusoid_recovery(self):
        amplitude = 3.0
        series = amplitude * np.sin(2 * np.pi * np.arange(208) / 52.0)
        d = decompose.stl_decompose(series, period=52)
        rms = float(np.sqrt(np.mean(d.remainder ** 2)))
        assert rms < 0.05 * amplitude


class TestAttentionContract:
    """Simplex weights and query-permutation equivariance."""

    def test_hundred_random_models(self):
        rng = Rng(33)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            l = int(rng.integers(1, 6))
            b = int(rng.integers(1, 5))
            att = fluenet.AttentionParams(
                w_q=Tensor2(rng.normal(0, 1, (m, m))),
                w_k=Tensor2(rng.normal(0, 1, (m, m))),
                w_v=Tensor2(rng.normal(0, 1, (m, m))))
            h_tau = Tensor2(rng.normal(0, 1, (b, m)))
            hqs = [Tensor2(rng.normal(0, 1, (b, m))) for _ in range(l)]
            ctx, w = fluenet.attend(att, h_tau, hqs)
            assert np.all(w.data >= 0.0)
            assert np.max(np.abs(w.data.sum(axis=1) - 1.0)) <= 1e-9
            perm = list(rng.choice_without_replacement(l, l))
            ctx_p, w_p = fluenet.attend(att, h_tau, [hqs[j] for j in perm])
            assert np.max(np.abs(ctx_p.data - ctx.data)) <= 1e-12
            assert np.max(np.abs(w_p.data - w.data[:, perm])) <= 1e-12


class TestScheduledSamplingLimits:
    """Eps=1 is teacher forcing; eps=0 ignores the teacher."""

    def make_parts(self, rng, m):
        dec = fluenet.GruParams(*(Tensor2(rng.normal(0, 0.5, shape))
                                  for shape in [(1, m)] * 3 + [(m, m)] * 3))
        out = fluenet.Mlp(w1=Tensor2(rng.normal(0, 0.5, (m, m))),
                          b1=Tensor2(rng.normal(0, 0.5, (1, m))),
                          w2=Tensor2(rng.normal(0, 0.5, (m, 1))),
                          b2=Tensor2(rng.normal(0, 0.5, (1, 1))))
        return dec, out

    def test_eps_one_matches_independent_rollout(self):
        rng = Rng(41)
        dec, out = self.make_parts(rng, 4)
        h0 = rng.normal(0, 1, (3, 4))
        x_last = rng.normal(0, 1, (3,))
        teacher = rng.normal(0, 1, (3, 5))
        got = fluenet.decode(dec, out, Tensor2(h0), x_last, 5,
                             teacher=teacher, eps=1.0,
                             rng=Rng(0).spawn("ss"))
        h = fluenet.gru_cell(dec, Tensor2(x_last.reshape(3, 1)),
                             Tensor2(h0))
        cols = [fluenet._mlp_apply(out, h)]
        for i in range(1, 5):
            h = fluenet.gru_cell(dec, Tensor2(teacher[:, i - 1:i]), h)
            cols.append(fluenet._mlp_apply(out, h))
        want = np.concatenate([c.data for c in cols], axis=1)
        assert np.max(np.abs(got.data - want)) <= 1e-12

    def test_eps_zero_is_teacher_invariant_bitwise(self):
        rng = Rng(42)
        dec, out = self.make_parts(rng, 4)
        h0 = Tensor2(rng.normal(0, 1, (3, 4)))
        x_last = rng.normal(0, 1, (3,))
        a = fluenet.decode(dec, out, h0, x_last, 5)
        b = fluenet.decode(dec, out, h0.copy(), x_last, 5,
                           teacher=rng.normal(0, 100, (3, 5)), eps=0.0)
        assert np.array_equal(a.data, b.data)


def synth_countries(n_countries=5, weeks=330, l=3, rho=0.8, seed=77):
    """Shared 52-week seasonal, country-specific deseasonalized signals,
    and query series correlated (about rho) with those signals."""
    rng = Rng(seed)
    i = np.arange(weeks)
    seasonal = 3.0 * np.sin(2 * np.pi * i / 52.0)
    out = {}
    for c in range(n_countries):
        name = f"C{c}"
        a = 0.8 + 0.2 * c
        x_des = (a * np.sin(2 * np.pi * i / 65.0 + 0.7 * c)
                 + 0.6 * np.sin(2 * np.pi * i / 16.0 + 0.3 * c)
                 + 0.001 * (c + 1) * i
                 + 0.05 * rng.normal(0, 1, weeks))
        z = (x_des - x_des.mean()) / x_des.std()
        q = np.empty((weeks, l))
        for j in range(l):
            raw = rho * z + np.sqrt(1 - rho ** 2) * rng.normal(0, 1, weeks)
            q[:, j] = (raw - raw.min()) / (raw.max() - raw.min())
        out[name] = {"x_des": x_des, "seasonal": seasonal, "q": q}
    return out


def windows_from_arrays(name, x_des, seasonal, q, n, s, t_range):
    samples = []
    for t in range(*t_range):
        o = x_des[t + 1:t + 1 + s]
        x_seas = seasonal[t + 1:t + 1 + s]
        samples.append(datahub.WindowSample(
            country=name, last_week=100000 + t,
            x_raw=x_des[t - n + 1:t + 1] + seasonal[t - n + 1:t + 1],
            x_des=x_des[t - n + 1:t + 1], q=q[t - n + 1:t + 1],
            y_raw=o + x_seas, o=o, x_seas=x_seas))
    return samples


def r2_by_horizon(model, test_w, country):
    rep = evalbench.evaluate_model(model, test_w, country, "net")
    return {sc.horizon: sc.r2 for sc in rep.scores}


class TestSyntheticForecasting:
    """Single- and multi-country training reach stated skill."""

    N, S = 26, 5

    def splits(self, data, name):
        d = data[name]
        mk = lambda rng_: windows_from_arrays(
            name, d["x_des"], d["seasonal"], d["q"], self.N, self.S, rng_)
        return {"train": mk((self.N - 1, 265)), "val": mk((265, 295)),
                "test": mk((295, 325))}

    def config(self, countries, mode):
        return trainer.TrainConfig(
            countries=countries, n_in=self.N, s_out=self.S,
            lr_grid=(0.01,), m_grid=(16,), max_epochs=150, patience=15,
            batch_size=32, seed=5, mode=mode)

    def test_single_and_multi_task_skill(self):
        data = synth_countries()
        names = sorted(data)
        sets = {c: self.splits(data, c) for c in names}

        single_r2 = {}
        for c in names:
            model, _ = trainer.fit(
                self.config([c], "single"),
                {c: {"train": sets[c]["train"], "val": sets[c]["val"]}})
            single_r2[c] = r2_by_horizon(model, sets[c]["test"], c)

        multi_model, _ = trainer.fit(
            self.config(names, "multi"),
            {c: {"train": sets[c]["train"], "val": sets[c]["val"]}
             for c in names})
        multi_r2 = {c: r2_by_horizon(multi_model, sets[c]["test"], c)
                    for c in names}

        for c in names:
            for scores, label in ((single_r2[c], "single"),
                                  (multi_r2[c], "multi")):
                assert scores[1] > 0.90, f"{c} {label} h1: {scores[1]:.3f}"
                assert scores[5] > 0.60, f"{c} {label} h5: {scores[5]:.3f}"

        wins = sum(
            np.mean(list(multi_r2[c].values()))
            >= np.mean(list(single_r2[c].values())) - 0.02
            for c in names)
        assert wins >= 4, f"multi-task within tolerance on only {wins}/5"


class TestMetricOracles:
    """Hand-computed metric values."""

    def test_rmse_hand_values(self):
        assert evalbench.rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        got = evalbench.rmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert got == np.sqrt(2.0 / 3.0)

    def test_r2_hand_values(self):
        assert evalbench.r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
        y = np.array([2.0, 4.0, 6.0, 8.0])
        assert evalbench.r2(y, np.full(4, 5.0)) == 0.0
        assert evalbench.r2([0.0, 2.0], [2.0, 0.0]) == -3.0


class TestArBaseline:
    """Coefficient recovery and absent multi-step horizons."""

    def test_noiseless_recovery(self):
        rng = Rng(51)
        n, l = 500, 2
        q = rng.uniform(0, 1, (n, l))
        true = np.array([0.55, -0.15, 1.2, -0.4, 0.25])
        y = np.zeros(n)
        y[0], y[1] = 0.4, 0.6
        for t in range(1, n - 1):
            y[t + 1] = np.concatenate([[y[t], y[t - 1]], q[t + 1],
                                       [1.0]]) @ true
        model = evalbench.fit_ar_exog(y, q, 2)
        assert np.max(np.abs(model.coefficients - true)) < 1e-6

    def test_multi_step_horizons_absent(self):
        rng = Rng(52)
        windows = windows_from_arrays(
            "US", rng.normal(0, 1, 60), np.zeros(60),
            rng.uniform(0, 1, (60, 1)), 10, 3, (9, 40))

        def one_step(sample):
            out = np.full(3, np.nan)
            out[0] = sample.x_des[-1]
            return out

        report = evalbench.evaluate(one_step, windows, 3, "ar_exog", "US")
        assert [sc.horizon for sc in report.scores] == [1]


class TestQuerySelectionOracle:
    """Argmax of word plus trend similarity on a toy fixture."""

    def fixture(self):
        source = querysel.EmbeddingTable(
            "en", ["fever", "flu"],
            [np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
        target_words = ["gripe", "remedio", "fiebre", "tos", "vacuna"]
        target_vecs = [np.array([1.0, 0.0, 0.0]),
                       np.array([0.6, 0.8, 0.0]),
                       np.array([0.0, 1.0, 0.0]),
                       np.array([0.8, 0.6, 0.0]),
                       np.array([0.0, 0.0, 1.0])]
        return source, target_words, target_vecs

    def test_argmax_and_reorder_determinism(self):
        source, words, vecs = self.fixture()
        rng = Rng(61)
        ili = 5.0 + np.sin(np.arange(40) / 3.0) + 0.1 * rng.normal(0, 1, 40)
        trends = {
            "gripe fiebre": 0.3 * ili + rng.normal(0, 1.0, 40),
            "gripe remedio": 0.8 * ili + rng.normal(0, 0.5, 40),
            "tos fiebre": 2.0 * ili + rng.normal(0, 0.05, 40),
        }
        provider = lambda text: trends.get(text)
        # theta_w by hand: flu pairs (gripe 1.0, tos 0.8);
        # fever pairs (fiebre 1.0, remedio 0.8).
        theta_w = {"gripe fiebre": 1.0, "gripe remedio": 0.9,
                   "tos fiebre": 0.9, "tos remedio": 0.8}
        scores = {text: theta_w[text]
                  + float(np.corrcoef(series, ili)[0, 1])
                  for text, series in trends.items()}
        want = max(scores, key=lambda t: (scores[t], t))

        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
            target = querysel.EmbeddingTable(
                "es", [words[i] for i in order], [vecs[i] for i in order])
            got = querysel.wt_select(["flu fever"], source, target,
                                     provider, ili, k=2, stopwords=set())
            assert len(got) == 1
            assert got[0].candidate == want
            assert abs(got[0].theta_w - theta_w[want]) < 1e-12
            assert abs(got[0].score - scores[want]) < 1e-12


class TestReproducibility:
    """Identical config and seed give identical artifacts."""

    def test_cli_train_twice_bitwise(self, tmp_path):
        rng = Rng(71)
        start = datahub.parse_week("2012-W01")
        values = np.maximum(
            5.0 + 2.0 * np.sin(2 * np.pi * np.arange(260) / 52.0)
            + 0.1 * rng.normal(0, 1, 260), 0.1)
        ili_path = tmp_path / "ili.csv"
        datahub.write_ili(str(ili_path), {
            "US": datahub.WeeklySeries("US", start, values)})
        config = tmp_path / "c.cfg"
        config.write_text(
            f"countries = US\ndata.ili = {ili_path}\n"
            f"split.test_start = {datahub.format_week(start + 220)}\n"
            "split.test_len = 40\nmodel.n = 16\nmodel.s = 3\n"
            "train.lr_grid = 0.05\ntrain.m_grid = 4\n"
            "train.max_epochs = 3\ntrain.patience = 3\nseed = 9\n",
            encoding="utf-8")
        for out in ("a", "b"):
            rc = cli.main(["--config", str(config),
                           "--out", str(tmp_path / out),
                           "train", "--no-queries"])
            assert rc == 0
        for artifact in ("checkpoint.json", "trainlog.csv"):
            assert ((tmp_path / "a" / artifact).read_bytes()
                    == (tmp_path / "b" / artifact).read_bytes()), artifact


class TestRealDataCorrelations:
    """Cross-country correlations on real surveillance data."""

    def test_published_coefficients(self):
        pytest.skip("optional: requires user-supplied real ILI data "
                    "snapshots; see README for how to run correlate "
                    "against them")
