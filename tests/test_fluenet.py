import numpy as np
import pytest

from flucast import fluenet
from flucast import numkit as nk
from flucast.numkit import Rng, Tensor2


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def random_gru(rng, in_dim, m):
    return fluenet.GruParams(
        u_z=Tensor2(rng.normal(0, 0.5, (in_dim, m))),
        u_r=Tensor2(rng.normal(0, 0.5, (in_dim, m))),
        u_h=Tensor2(rng.normal(0, 0.5, (in_dim, m))),
        w_z=Tensor2(rng.normal(0, 0.5, (m, m))),
        w_r=Tensor2(rng.normal(0, 0.5, (m, m))),
        w_h=Tensor2(rng.normal(0, 0.5, (m, m))))


def tape_sigmoid(a):
    """The sign-split exp sigmoid as its own tape op, as numkit had it."""
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return nk._emit(out, [a], lambda g: [g * out * (1.0 - out)], "sigmoid")


def per_op_gru_cell(params, x, h_prev, standard=False):
    """Oracle: one GRU step built from elementwise tape ops."""
    r = tape_sigmoid(nk.add(nk.matmul(x, params.u_r),
                            nk.matmul(h_prev, params.w_r)))
    if standard:
        cand = nk.matmul(nk.mul(r, h_prev), params.w_h)
    else:
        cand = nk.mul(h_prev, nk.matmul(r, params.w_h))
    f = nk.tanh(nk.add(nk.matmul(x, params.u_h), cand))
    z = tape_sigmoid(nk.add(nk.matmul(x, params.u_z),
                            nk.matmul(h_prev, params.w_z)))
    one = Tensor2(np.ones(z.shape), copy=False)
    return nk.add(nk.mul(nk.sub(one, z), h_prev), nk.mul(z, f))


def per_op_encode(params, steps, h0, standard=False):
    h = h0
    for x in steps:
        h = per_op_gru_cell(params, x, h, standard)
    return h


class TestGruCell:
    def test_numpy_transcription_oracle(self):
        rng = Rng(11)
        m, b = 4, 3
        g = random_gru(rng, 2, m)
        x = rng.normal(0, 1, (b, 2))
        h = rng.normal(0, 1, (b, m))
        got = fluenet.gru_cell(g, Tensor2(x), Tensor2(h)).data

        r = sigmoid(x @ g.u_r.data + h @ g.w_r.data)
        f = np.tanh(x @ g.u_h.data + h * (r @ g.w_h.data))
        z = sigmoid(x @ g.u_z.data + h @ g.w_z.data)
        want = (1.0 - z) * h + z * f
        assert np.max(np.abs(got - want)) < 1e-12

    def test_conventional_variant_oracle(self):
        rng = Rng(12)
        m, b = 3, 2
        g = random_gru(rng, 1, m)
        x = rng.normal(0, 1, (b, 1))
        h = rng.normal(0, 1, (b, m))
        got = fluenet.gru_cell(g, Tensor2(x), Tensor2(h), standard=True).data

        r = sigmoid(x @ g.u_r.data + h @ g.w_r.data)
        f = np.tanh(x @ g.u_h.data + (r * h) @ g.w_h.data)
        z = sigmoid(x @ g.u_z.data + h @ g.w_z.data)
        want = (1.0 - z) * h + z * f
        assert np.max(np.abs(got - want)) < 1e-12

    def test_variants_differ_generically(self):
        rng = Rng(13)
        g = random_gru(rng, 1, 3)
        x = Tensor2(rng.normal(0, 1, (2, 1)))
        h = Tensor2(rng.normal(0, 1, (2, 3)))
        a = fluenet.gru_cell(g, x, h, standard=False).data
        b = fluenet.gru_cell(g, x, h, standard=True).data
        assert np.max(np.abs(a - b)) > 1e-6

    def test_all_zero_weights_halve_state(self):
        m = 3
        g = fluenet.GruParams(*(nk.zeros(d, m) for d in (1, 1, 1, m, m, m)))
        h = np.array([[2.0, -4.0, 6.0]])
        out = fluenet.gru_cell(g, Tensor2(np.ones((1, 1))), Tensor2(h))
        assert np.max(np.abs(out.data - 0.5 * h)) < 1e-15

    def test_encode_sequence_matches_manual_fold(self):
        rng = Rng(14)
        g = random_gru(rng, 1, 3)
        xs = rng.normal(0, 1, (2, 5))
        h = nk.zeros(2, 3)
        for t in range(5):
            h = fluenet.gru_cell(g, Tensor2(xs[:, t:t + 1]), h)
        via = fluenet.encode_ili(g, xs, nk.zeros(2, 3))
        assert np.array_equal(via.data, h.data)


class TestGruSequence:
    """The fused encoder against the per-op oracle loop."""

    def states_and_grads(self, encode, params, embed, steps, b, standard,
                         weights):
        """Final state and the gradients of a weighted sum of it."""
        m = params.w_h.rows
        for t in list(vars(params).values()) + steps:
            t.grad = None
        with nk.GradTape() as tape:
            if embed is None:
                h0 = nk.zeros(b, m)
            else:
                onehot = np.zeros((b, embed.rows))
                onehot[:, 1] = 1.0
                h0 = nk.matmul(Tensor2(onehot), embed)
            h = encode(params, steps, h0, standard)
            loss = nk.mean_all(nk.mul(h, Tensor2(weights)))
        nk.backward(tape, loss)
        grads = {n: t.grad for n, t in vars(params).items()}
        grads.update((f"x{t}", x.grad) for t, x in enumerate(steps))
        if embed is not None:
            grads["embed"] = embed.grad
        return h.data, grads

    @pytest.mark.parametrize("standard", [False, True],
                             ids=["literal", "standard"])
    @pytest.mark.parametrize("in_dim", [1, 4], ids=["ili", "gru_baseline"])
    @pytest.mark.parametrize("t_len", [1, 26])
    @pytest.mark.parametrize("embedded", [True, False],
                             ids=["embedding", "zeros"])
    def test_matches_per_op_loop(self, standard, in_dim, t_len, embedded):
        rng = Rng(70)
        b, m = 5, 4
        params = random_gru(rng, in_dim, m)
        embed = Tensor2(rng.normal(0, 0.5, (2, m))) if embedded else None
        steps = [Tensor2(rng.uniform(-1, 1, (b, in_dim)))
                 for _ in range(t_len)]
        weights = rng.normal(0, 1, (b, m))
        want, want_g = self.states_and_grads(per_op_encode, params, embed,
                                             steps, b, standard, weights)
        got, got_g = self.states_and_grads(fluenet.encode_sequence, params,
                                           embed, steps, b, standard,
                                           weights)
        assert np.max(np.abs(got - want)) < 1e-12
        assert set(got_g) == set(want_g)
        for name in want_g:
            if t_len > 1:
                assert np.any(want_g[name] != 0.0), name
            assert np.max(np.abs(got_g[name] - want_g[name])) < 1e-12, name

    def test_hidden_inf_at_middle_step_raises(self):
        rng = Rng(71)
        params = random_gru(rng, 1, 3)
        xs = rng.normal(0, 1, (2, 26))
        xs[1, 13] = np.inf
        # The gates saturate, so an unchecked run ends in a finite state.
        u_z, u_r, u_h, w_z, w_r, w_h = (t.data for t in vars(params).values())
        h = np.zeros((2, 3))
        for t in range(26):
            x = xs[:, t:t + 1]
            r = sigmoid(x @ u_r + h @ w_r)
            f = np.tanh(x @ u_h + h * (r @ w_h))
            z = sigmoid(x @ u_z + h @ w_z)
            h = (1.0 - z) * h + z * f
        assert np.all(np.isfinite(h))
        with pytest.raises(nk.NonFiniteError, match="step 14 of 26"):
            fluenet.encode_ili(params, xs, nk.zeros(2, 3))

    def test_encoder_adds_one_tape_entry(self):
        rng = Rng(72)
        params = random_gru(rng, 1, 3)
        with nk.GradTape() as tape:
            fluenet.encode_ili(params, rng.normal(0, 1, (2, 9)),
                               nk.zeros(2, 3))
        assert len(tape) == 1


def per_query_encode(params, q, h0, standard):
    """Reference: one per-op GRU loop per query column."""
    n, l = q.shape[1], q.shape[2]
    return [per_op_encode(
        params, [Tensor2(q[:, t, j:j + 1]) for t in range(n)], h0, standard)
        for j in range(l)]


class TestBatchedQueryEncoder:
    def states_and_grads(self, encode, params, embed, q, standard,
                         weights):
        """Final states and gradients of a weighted sum of them."""
        b, m = q.shape[0], params.w_h.rows
        for t in vars(params).values():
            t.grad = None
        with nk.GradTape() as tape:
            if embed is None:
                h0 = nk.zeros(b, m)
            else:
                onehot = np.zeros((b, embed.rows))
                onehot[:, 1] = 1.0
                h0 = nk.matmul(Tensor2(onehot), embed)
            states = encode(params, q, h0, standard)
            loss = nk.mean_all(nk.mul(nk.hstack(states), Tensor2(weights)))
        nk.backward(tape, loss)
        grads = {n: t.grad for n, t in vars(params).items()}
        if embed is not None:
            grads["embed"] = embed.grad
        return [h.data for h in states], grads

    @pytest.mark.parametrize("standard", [False, True],
                             ids=["literal", "standard"])
    @pytest.mark.parametrize("embedded", [True, False],
                             ids=["embedding", "zeros"])
    def test_matches_per_query_loop(self, standard, embedded):
        rng = Rng(60)
        b, n, l, m = 5, 7, 4, 3
        params = random_gru(rng, 1, m)
        embed = Tensor2(rng.normal(0, 0.5, (2, m))) if embedded else None
        q = rng.uniform(0, 1, (b, n, l))
        weights = rng.normal(0, 1, (b, l * m))
        want, want_g = self.states_and_grads(per_query_encode, params,
                                             embed, q, standard, weights)
        got, got_g = self.states_and_grads(fluenet.encode_queries, params,
                                           embed, q, standard, weights)
        assert len(got) == l
        for a, w in zip(got, want):
            assert a.shape == (b, m)
            assert np.max(np.abs(a - w)) < 1e-12
        assert set(got_g) == set(want_g)
        for name in want_g:
            assert np.any(want_g[name] != 0.0), name
            assert np.max(np.abs(got_g[name] - want_g[name])) < 1e-12, name

    def test_inf_in_one_query_column_raises(self):
        rng = Rng(61)
        params = random_gru(rng, 1, 3)
        q = rng.uniform(0, 1, (4, 6, 3))
        q[2, 3, 1] = np.inf
        with pytest.raises(nk.NonFiniteError):
            fluenet.encode_queries(params, q, nk.zeros(4, 3))


class TestAttention:
    def make_att(self, rng, m):
        return fluenet.AttentionParams(
            w_q=Tensor2(rng.normal(0, 0.5, (m, m))),
            w_k=Tensor2(rng.normal(0, 0.5, (m, m))),
            w_v=Tensor2(rng.normal(0, 0.5, (m, m))))

    def test_single_query_gets_full_weight(self):
        rng = Rng(20)
        att = self.make_att(rng, 3)
        h_tau = Tensor2(rng.normal(0, 1, (2, 3)))
        h_q = Tensor2(rng.normal(0, 1, (2, 3)))
        ctx, w = fluenet.attend(att, h_tau, [h_q])
        assert np.max(np.abs(w.data - 1.0)) < 1e-15
        assert np.max(np.abs(ctx.data - h_q.data @ att.w_v.data)) < 1e-12

    def test_identical_queries_split_evenly(self):
        rng = Rng(21)
        att = self.make_att(rng, 3)
        h_tau = Tensor2(rng.normal(0, 1, (1, 3)))
        h_q = Tensor2(rng.normal(0, 1, (1, 3)))
        _, w = fluenet.attend(att, h_tau, [h_q, h_q.copy(), h_q.copy()])
        assert np.max(np.abs(w.data - 1.0 / 3.0)) < 1e-15

    def test_numpy_formula_oracle(self):
        rng = Rng(22)
        m, b, l = 4, 3, 5
        att = self.make_att(rng, m)
        h_tau = rng.normal(0, 1, (b, m))
        hqs = [rng.normal(0, 1, (b, m)) for _ in range(l)]
        ctx, w = fluenet.attend(att, Tensor2(h_tau),
                                [Tensor2(h) for h in hqs])

        s_q = h_tau @ att.w_q.data
        logits = np.stack([np.sum(s_q * (h @ att.w_k.data), axis=1)
                           for h in hqs], axis=1)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        context = sum(weights[:, j:j + 1] * (hqs[j] @ att.w_v.data)
                      for j in range(l))
        assert np.max(np.abs(w.data - weights)) < 1e-12
        assert np.max(np.abs(ctx.data - context)) < 1e-12

    def test_weights_sum_to_one(self):
        rng = Rng(23)
        att = self.make_att(rng, 3)
        _, w = fluenet.attend(att, Tensor2(rng.normal(0, 1, (4, 3))),
                              [Tensor2(rng.normal(0, 1, (4, 3)))
                               for _ in range(6)])
        assert np.max(np.abs(w.data.sum(axis=1) - 1.0)) < 1e-12

    def test_permuting_queries_permutes_weights_only(self):
        rng = Rng(24)
        att = self.make_att(rng, 3)
        h_tau = Tensor2(rng.normal(0, 1, (2, 3)))
        hqs = [Tensor2(rng.normal(0, 1, (2, 3))) for _ in range(4)]
        perm = [2, 0, 3, 1]
        ctx_a, w_a = fluenet.attend(att, h_tau, hqs)
        ctx_b, w_b = fluenet.attend(att, h_tau, [hqs[j] for j in perm])
        assert np.max(np.abs(ctx_a.data - ctx_b.data)) < 1e-12
        assert np.max(np.abs(w_b.data - w_a.data[:, perm])) < 1e-12


class TestDecode:
    def make_parts(self, rng, m):
        dec = random_gru(rng, 1, m)
        out = fluenet.Mlp(w1=Tensor2(rng.normal(0, 0.5, (m, m))),
                          b1=Tensor2(rng.normal(0, 0.5, (1, m))),
                          w2=Tensor2(rng.normal(0, 0.5, (m, 1))),
                          b2=Tensor2(rng.normal(0, 0.5, (1, 1))))
        return dec, out

    def test_teacher_ignored_when_eps_zero(self):
        rng = Rng(30)
        dec, out = self.make_parts(rng, 3)
        h = Tensor2(rng.normal(0, 1, (2, 3)))
        x_last = rng.normal(0, 1, (2,))
        a = fluenet.decode(dec, out, h, x_last, 4)
        b = fluenet.decode(dec, out, h.copy(), x_last, 4,
                           teacher=np.full((2, 4), 99.0), eps=0.0)
        assert np.array_equal(a.data, b.data)

    def test_eps_one_is_pure_teacher_forcing(self):
        rng = Rng(31)
        dec, out = self.make_parts(rng, 3)
        h0 = rng.normal(0, 1, (2, 3))
        x_last = rng.normal(0, 1, (2,))
        teacher = rng.normal(0, 1, (2, 4))
        got = fluenet.decode(dec, out, Tensor2(h0), x_last, 4,
                             teacher=teacher, eps=1.0,
                             rng=Rng(0).spawn("ss"))

        h = fluenet.gru_cell(dec, Tensor2(x_last.reshape(2, 1)), Tensor2(h0))
        cols = [fluenet._mlp_apply(out, h)]
        for i in range(1, 4):
            h = fluenet.gru_cell(dec, Tensor2(teacher[:, i - 1:i]), h)
            cols.append(fluenet._mlp_apply(out, h))
        want = np.concatenate([c.data for c in cols], axis=1)
        assert np.max(np.abs(got.data - want)) < 1e-15

    def test_single_step_needs_no_sampling(self):
        rng = Rng(32)
        dec, out = self.make_parts(rng, 2)
        h = Tensor2(rng.normal(0, 1, (1, 2)))
        got = fluenet.decode(dec, out, h, np.array([0.3]), 1)
        assert got.shape == (1, 1)

    def test_eps_without_teacher_rejected(self):
        rng = Rng(33)
        dec, out = self.make_parts(rng, 2)
        h = Tensor2(rng.normal(0, 1, (1, 2)))
        with pytest.raises(nk.ContractError):
            fluenet.decode(dec, out, h, np.array([0.3]), 3, eps=0.5)

    def test_eps_out_of_range_rejected(self):
        rng = Rng(34)
        dec, out = self.make_parts(rng, 2)
        h = Tensor2(rng.normal(0, 1, (1, 2)))
        with pytest.raises(nk.ContractError):
            fluenet.decode(dec, out, h, np.array([0.3]), 3,
                           teacher=np.zeros((1, 3)), eps=1.5,
                           rng=Rng(0))


def small_model(**kw):
    args = dict(m=4, n_in=8, s_out=3, l_queries=2,
                countries=["JP", "US"], seed=7)
    args.update(kw)
    return fluenet.ModelParams(**args)


def sample_batch(rng, b, n, l):
    return rng.normal(0, 1, (b, n)), rng.uniform(0, 1, (b, n, l))


class TestModel:
    def test_param_partition(self):
        model = small_model(use_country_embedding=True)
        names = set(model.named_params())
        assert "shared.ili_encoder.u_z" in names
        assert "shared.query_encoder.w_h" in names
        assert "shared.fusion.b2" in names
        assert "shared.country_embed" in names
        assert "country.US.attention.w_q" in names
        assert "country.JP.output.w2" in names
        us = {n for n in names if n.startswith(("shared.", "country.US."))}
        jp = {n for n in names if n.startswith("country.JP.")}
        assert us | jp == names and not us & jp
        assert any(n.startswith("shared.") for n in us)

    def test_no_query_model_has_no_attention_tensors(self):
        model = small_model(use_queries=False)
        assert not model.has_attention
        assert not any("attention" in n or "query_encoder" in n
                       for n in model.named_params())

    def test_unknown_country_rejected(self):
        model = small_model()
        with pytest.raises(fluenet.UnknownCountryError):
            model.country_id("FR")

    def test_country_ids_are_one_based(self):
        model = small_model()
        assert model.country_id("JP") == 1
        assert model.country_id("US") == 2

    def test_initial_state_zero_without_embedding(self):
        model = small_model(use_country_embedding=False)
        h0 = fluenet.initial_state(model, "US", 3)
        assert np.array_equal(h0.data, np.zeros((3, 4)))

    def test_initial_state_distinct_per_country(self):
        model = small_model(use_country_embedding=True)
        a = fluenet.initial_state(model, "US", 1).data
        b = fluenet.initial_state(model, "JP", 1).data
        assert np.max(np.abs(a - b)) > 1e-6
        assert np.array_equal(a, model.country_embed.data[1:2])

    def test_forward_shapes_and_weight_rows(self):
        model = small_model()
        x, q = sample_batch(Rng(40), 5, 8, 2)
        o_hat, w = fluenet.forward_batch(model, "US", x, q)
        assert o_hat.shape == (5, 3)
        assert w.shape == (5, 2)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12

    def test_gru_baseline_consumes_queries_jointly(self):
        model = small_model(arch="gru_baseline")
        x, q = sample_batch(Rng(41), 2, 8, 2)
        o_hat, w = fluenet.forward_batch(model, "US", x, q)
        assert w is None
        o2, _ = fluenet.forward_batch(model, "US", x, q * 2.0)
        assert np.max(np.abs(o_hat.data - o2.data)) > 1e-9

    def test_gradients_reach_every_active_tensor(self):
        model = small_model(use_country_embedding=True)
        x, q = sample_batch(Rng(42), 3, 8, 2)
        with nk.GradTape() as tape:
            o_hat, _ = fluenet.forward_batch(model, "US", x, q)
            target = Tensor2(np.zeros((3, 3)))
            diff = nk.sub(o_hat, target)
            loss = nk.mean_all(nk.mul(diff, diff))
        nk.backward(tape, loss)
        for name, p in model.named_params().items():
            if name.startswith(("shared.", "country.US.")):
                assert p.grad is not None, name
                assert np.any(p.grad != 0.0), name
            else:
                assert name.startswith("country.JP."), name
                assert p.grad is None, name

    def test_same_seed_same_init(self):
        a = small_model().named_params()
        b = small_model().named_params()
        assert set(a) == set(b)
        assert all(np.array_equal(a[n].data, b[n].data) for n in a)

    def test_forecast_reseasonalization_identity(self):
        from flucast import datahub
        model = small_model()
        rng = Rng(43)
        sample = datahub.WindowSample(
            country="US", last_week=500,
            x_raw=rng.uniform(0, 5, 8), x_des=rng.normal(0, 1, 8),
            q=rng.uniform(0, 1, (8, 2)), y_raw=rng.uniform(0, 5, 3),
            o=rng.normal(0, 1, 3), x_seas=rng.normal(0, 1, 3))
        o_hat, weights = fluenet.forward_batch(model, "US",
                                               sample.x_des[None],
                                               sample.q[None])
        y_hat = o_hat.data[0] + sample.x_seas
        assert np.array_equal(y_hat - o_hat.data[0], sample.x_seas)
        assert abs(weights[0].sum() - 1.0) < 1e-12


class TestCheckpoint:
    def test_roundtrip_is_bit_faithful(self, tmp_path):
        model = small_model(use_country_embedding=True)
        path = str(tmp_path / "ck.json")
        fluenet.save_checkpoint(path, model, extra={"note": "x"})
        loaded, extra = fluenet.load_checkpoint(path)
        assert extra["note"] == "x"
        a, b = model.named_params(), loaded.named_params()
        assert set(a) == set(b)
        for n in a:
            assert np.array_equal(a[n].data, b[n].data), n
        assert loaded.countries == model.countries
        assert (loaded.m, loaded.n_in, loaded.s_out) == (4, 8, 3)

    def test_forecasts_survive_roundtrip(self, tmp_path):
        model = small_model()
        x, q = sample_batch(Rng(50), 1, 8, 2)
        before = fluenet.forward_batch(model, "JP", x, q)
        path = str(tmp_path / "ck.json")
        fluenet.save_checkpoint(path, model)
        loaded, _ = fluenet.load_checkpoint(path)
        after = fluenet.forward_batch(loaded, "JP", x, q)
        assert np.array_equal(before[0].data, after[0].data)
        assert np.array_equal(before[1], after[1])

    def test_tampered_file_rejected(self, tmp_path):
        import json
        model = small_model()
        path = str(tmp_path / "ck.json")
        fluenet.save_checkpoint(path, model)
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
        del blob["tensors"]["shared.decoder.u_z"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(blob, f)
        with pytest.raises(nk.ContractError):
            fluenet.load_checkpoint(path)
