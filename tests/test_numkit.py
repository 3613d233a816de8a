import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from flucast import numkit as nk, trainer
from flucast.numkit import Tensor2
from test_trainer import cores, fit_outcome, make_data, quick_config

# The GRU has one gate form, the paper's literal one; the ids name it.
LITERAL = pytest.mark.parametrize("gate", ["literal"])


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_identity(self):
        out = nk.matmul(Tensor2([[1, 0], [0, 1]]), Tensor2([[3], [4]]))
        assert np.array_equal(out.data, [[3], [4]])

    def test_dot_product(self):
        out = nk.matmul(Tensor2([[1, 2]]), Tensor2([[3], [4]]))
        assert out.data[0, 0] == 11

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        out = nk.matmul(Tensor2(a), Tensor2(b))
        assert np.max(np.abs(out.data - triple_loop_matmul(a, b))) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(nk.ContractError, match=r"\(2, 3\).*\(2, 2\)"):
            nk.matmul(Tensor2(np.zeros((2, 3))), Tensor2(np.zeros((2, 2))))

    def test_associativity_on_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (Tensor2(rng.uniform(-1, 1, (2, 2)))
                       for _ in range(3))
            left = nk.matmul(nk.matmul(a, b), c).data
            right = nk.matmul(a, nk.matmul(b, c)).data
            assert np.max(np.abs(left - right)) < 1e-10


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert nk._sigmoid(np.array([[0.0]]))[0, 0] == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        out = nk._sigmoid(np.array([[-1000.0, 1000.0]]))
        assert np.array_equal(out, [[0.0, 1.0]])

    def test_sigmoid_matches_exp_form(self):
        # Within one ulp of 1.0 of the sign-split exp form it replaced.
        x = np.linspace(-40.0, 40.0, 20001)
        e = np.exp(-np.abs(x))
        exp_form = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.max(np.abs(nk._sigmoid(x) - exp_form)) <= np.spacing(1.0)

    def test_tanh_at_zero(self):
        assert nk.tanh(Tensor2([[0.0]])).data[0, 0] == 0.0

    def test_mul(self):
        out = nk.mul(Tensor2([[2, 3]]), Tensor2([[4, 5]]))
        assert np.array_equal(out.data, [[8, 15]])

    def test_shape_mismatch(self):
        with pytest.raises(nk.ContractError):
            nk.add(Tensor2([[1, 2]]), Tensor2([[1], [2]]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_raises(self):
        big = Tensor2([[1e308]])
        with pytest.raises(nk.NonFiniteError):
            nk.mul(big, big)


class TestSoftmaxRow:
    """The row softmax behind dot_attention, shifted by the row max."""

    def test_symmetry(self):
        assert np.allclose(nk._softmax(np.array([[0.0, 0.0]])),
                           [[0.5, 0.5]], atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = nk._softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_direct_formula(self):
        out = nk._softmax(np.array([[np.log(1.0), np.log(3.0)]]))
        assert np.max(np.abs(out - [[0.25, 0.75]])) < 1e-12

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-5, 5, (4, 6))
            out = nk._softmax(x)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
            shifted = nk._softmax(x + 3.7)
            assert np.max(np.abs(out - shifted)) < 1e-12


def finite_difference(f, x, step=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
    return g


def assert_grad_close(analytic, numeric, rtol=1e-4, floor=1e-8):
    mask = np.abs(analytic) > floor
    if not np.any(mask):
        return
    rel = np.abs(analytic - numeric)[mask] / np.abs(analytic)[mask]
    assert rel.max() < rtol


class TestBackward:
    @pytest.mark.parametrize("op", [nk.add, nk.sub, nk.mul],
                             ids=["add", "sub", "mul"])
    def test_binary_primitives_match_finite_differences(self, op):
        rng = np.random.default_rng(17)
        a = Tensor2(rng.uniform(-1, 1, (3, 4)))
        b = Tensor2(rng.uniform(-1, 1, (3, 4)))

        def loss():
            return nk.mean_all(nk.mul(op(a, b), op(a, b))).item()

        with nk.GradTape() as tape:
            y = op(a, b)
            l = nk.mean_all(nk.mul(y, y))
        nk.backward(tape, l)
        assert_grad_close(a.grad, finite_difference(loss, a.data))
        assert_grad_close(b.grad, finite_difference(loss, b.data))

    @pytest.mark.parametrize("op", [nk.tanh], ids=["tanh"])
    def test_unary_primitives_match_finite_differences(self, op):
        rng = np.random.default_rng(19)
        a = Tensor2(rng.uniform(-2, 2, (3, 4)))

        def loss():
            y = op(a)
            return nk.mean_all(nk.mul(y, y)).item()

        with nk.GradTape() as tape:
            y = op(a)
            l = nk.mean_all(nk.mul(y, y))
        nk.backward(tape, l)
        assert_grad_close(a.grad, finite_difference(loss, a.data))

    def test_sigmoid_derivative_matches_finite_differences(self):
        x = np.random.default_rng(19).uniform(-4, 4, (3, 4))
        s = nk._sigmoid(x)
        step = 1e-6
        fd = (nk._sigmoid(x + step) - nk._sigmoid(x - step)) / (2 * step)
        assert_grad_close(s * (1.0 - s), fd)

    def test_softmax_grad_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, (2, 4))
        c = rng.uniform(-1, 1, (2, 4))

        def loss():
            return float(np.mean(nk._softmax(x) ** 2 * c))

        out = nk._softmax(x)
        analytic = nk._softmax_grad(out, 2.0 * out * c / x.size)
        assert_grad_close(analytic, finite_difference(loss, x))

    def test_hstack_gradients(self):
        rng = np.random.default_rng(29)
        a = Tensor2(rng.uniform(-1, 1, (2, 2)))
        b = Tensor2(rng.uniform(-1, 1, (2, 3)))
        c = Tensor2(rng.uniform(-1, 1, (2, 5)))

        def loss():
            y = nk.hstack([a, b])
            return nk.mean_all(nk.mul(nk.mul(y, y), c)).item()

        with nk.GradTape() as tape:
            y = nk.hstack([a, b])
            l = nk.mean_all(nk.mul(nk.mul(y, y), c))
        nk.backward(tape, l)
        assert_grad_close(a.grad, finite_difference(loss, a.data))
        assert_grad_close(b.grad, finite_difference(loss, b.data))

    def test_add_bias_gradients(self):
        rng = np.random.default_rng(31)
        a = Tensor2(rng.uniform(-1, 1, (4, 3)))
        bias = Tensor2(rng.uniform(-1, 1, (1, 3)))

        def loss():
            y = nk.tanh(nk.add_bias(a, bias))
            return nk.mean_all(nk.mul(y, y)).item()

        with nk.GradTape() as tape:
            y = nk.tanh(nk.add_bias(a, bias))
            l = nk.mean_all(nk.mul(y, y))
        nk.backward(tape, l)
        assert_grad_close(a.grad, finite_difference(loss, a.data))
        assert_grad_close(bias.grad, finite_difference(loss, bias.data))

    def test_tile_rows_gradients(self):
        rng = np.random.default_rng(37)
        a = Tensor2(rng.uniform(-1, 1, (2, 3)))
        w = Tensor2(rng.uniform(-1, 1, (6, 3)))

        def loss():
            y = nk.tanh(nk.mul(nk.tile_rows(a, 3), w))
            return nk.mean_all(nk.mul(y, y)).item()

        with nk.GradTape() as tape:
            y = nk.tanh(nk.mul(nk.tile_rows(a, 3), w))
            l = nk.mean_all(nk.mul(y, y))
        nk.backward(tape, l)
        assert_grad_close(a.grad, finite_difference(loss, a.data))
        assert_grad_close(w.grad, finite_difference(loss, w.data))

    def test_tile_rows_values(self):
        a = Tensor2([[1.0, 2.0], [3.0, 4.0]])
        t = nk.tile_rows(a, 3)
        assert np.array_equal(t.data, np.vstack([a.data] * 3))
        with pytest.raises(nk.ContractError):
            nk.add_bias(a, Tensor2([[1.0, 2.0, 3.0]]))

    def test_dot_attention_gradients(self):
        rng = np.random.default_rng(41)
        b, m, l = 3, 4, 5
        query = Tensor2(rng.uniform(-1, 1, (b, m)))
        maps = [Tensor2(rng.uniform(-1, 1, (m, m))) for _ in range(3)]
        keys = Tensor2(np.concatenate([rng.uniform(-1, 1, (b, m))
                                       for _ in range(l)]))
        c = Tensor2(rng.uniform(-1, 1, (b, m)))

        def loss():
            ctx, _ = nk.dot_attention(query, *maps, keys)
            return nk.mean_all(nk.mul(nk.mul(ctx, ctx), c)).item()

        with nk.GradTape() as tape:
            ctx, _ = nk.dot_attention(query, *maps, keys)
            assert len(tape) == 1
            l_ = nk.mean_all(nk.mul(nk.mul(ctx, ctx), c))
        nk.backward(tape, l_)
        for t in [query] + maps + [keys]:
            assert_grad_close(t.grad, finite_difference(loss, t.data))

    @LITERAL
    def test_gru_sequence_gradients(self, gate):
        rng = np.random.default_rng(43)
        t_len, b, n_in, m = 4, 3, 2, 3
        steps = [Tensor2(rng.uniform(-1, 1, (b, n_in)))
                 for _ in range(t_len)]
        h0 = Tensor2(rng.uniform(-1, 1, (b, m)))
        maps = [Tensor2(rng.normal(0, 0.7, shape))
                for shape in [(n_in, m)] * 3 + [(m, m)] * 3]
        c = Tensor2(rng.uniform(-1, 1, (b, m)))

        def run():
            h = nk.gru_sequence(steps, h0, *maps)
            return nk.mean_all(nk.mul(nk.mul(h, h), c))

        with nk.GradTape() as tape:
            l_ = run()
            assert len(tape) == 4
        nk.backward(tape, l_)
        for t in steps + [h0] + maps:
            fd = finite_difference(lambda: run().item(), t.data)
            assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-9)
            assert_grad_close(t.grad, fd)

    def test_gru_sequence_contract(self):
        h0 = nk.zeros(2, 3)
        maps = [nk.zeros(*shape) for shape in [(1, 3)] * 3 + [(3, 3)] * 3]
        with pytest.raises(nk.ContractError):
            nk.gru_sequence([], h0, *maps)
        with pytest.raises(nk.ContractError, match="gru_sequence"):
            nk.gru_sequence([nk.zeros(2, 2)], h0, *maps)
        with pytest.raises(nk.ContractError, match="gru_sequence"):
            nk.gru_sequence([nk.zeros(3, 1)], h0, *maps)

    def test_non_scalar_loss_rejected(self):
        with nk.GradTape() as tape:
            y = nk.add(Tensor2([[1.0, 2.0]]), Tensor2([[3.0, 4.0]]))
        with pytest.raises(nk.ContractError):
            nk.backward(tape, y)

    def test_reused_tensor_accumulates(self):
        a = Tensor2([[2.0]])
        with nk.GradTape() as tape:
            l = nk.mean_all(nk.mul(a, a))  # d/da a^2 = 2a
        nk.backward(tape, l)
        assert abs(a.grad[0, 0] - 4.0) < 1e-12


def oracle_gru_sequence(steps, h0, u_z, u_r, u_h, w_z, w_r, w_h):
    """`gru_sequence` in plain numpy: a fresh array for every result, a
    (T, B, 3M) pre-activation block with the input projection as one
    GEMM, z|r in one (T, B, 2M) block, and one finiteness check after
    the loop. The kernel must match it bit for bit, outputs and
    gradients."""
    steps = list(steps)
    b, m = h0.shape
    t_len = len(steps)
    x_all = np.concatenate([x.data for x in steps])
    u_all = np.concatenate([u_z.data, u_r.data, u_h.data], axis=1)
    w_zr = np.concatenate([w_z.data, w_r.data], axis=1)
    pre = (x_all @ u_all).reshape(t_len, b, 3 * m)
    gates = np.empty((t_len, b, 2 * m))  # z | r
    cand = np.empty((t_len, b, m))  # f
    mix = np.empty((t_len, b, m))  # r W_h
    states = np.empty((t_len + 1, b, m))
    states[0] = h0.data
    for t in range(t_len):
        h, a = states[t], pre[t]
        a[:, :2 * m] += h @ w_zr
        gates[t] = 0.5 * np.tanh(0.5 * a[:, :2 * m]) + 0.5
        z, r = gates[t, :, :m], gates[t, :, m:]
        mix[t] = r @ w_h.data
        a[:, 2 * m:] += h * mix[t]
        cand[t] = np.tanh(a[:, 2 * m:])
        states[t + 1] = (1.0 - z) * h + z * cand[t]
    finite = np.isfinite(pre).reshape(t_len, -1).all(axis=1)
    if not finite.all():
        raise nk.NonFiniteError(
            f"gru_sequence produced non-finite values at step "
            f"{int(np.argmin(finite)) + 1} of {t_len}")

    def bw(g):
        d_pre = np.empty_like(pre)
        dh = g
        for t in range(t_len - 1, -1, -1):
            h, f, d_a = states[t], cand[t], d_pre[t]
            z, r = gates[t, :, :m], gates[t, :, m:]
            d_a[:, :m] = dh * (f - h) * z * (1.0 - z)
            d_a[:, 2 * m:] = dh * z * (1.0 - f * f)
            dh_prev = dh * (1.0 - z)
            dh_prev += d_a[:, 2 * m:] * mix[t]
            d_a[:, m:2 * m] = ((d_a[:, 2 * m:] * h) @ w_h.data.T
                               * r * (1.0 - r))
            dh_prev += d_a[:, :2 * m] @ w_zr.T
            dh = dh_prev
        d_flat = d_pre.reshape(-1, 3 * m)
        h_flat = states[:-1].reshape(-1, m)
        d_x = d_flat @ u_all.T
        d_u = x_all.T @ d_flat
        d_wzr = h_flat.T @ d_flat[:, :2 * m]
        d_wh = (gates[:, :, m:].reshape(-1, m).T
                @ (d_flat[:, 2 * m:] * h_flat))
        return [d_x[t * b:(t + 1) * b] for t in range(t_len)] + [
            dh, d_u[:, :m], d_u[:, m:2 * m], d_u[:, 2 * m:],
            d_wzr[:, :m], d_wzr[:, m:], d_wh]

    return nk._record(states[-1].copy(), steps + [h0, u_z, u_r, u_h, w_z,
                                                  w_r, w_h], bw)


def gru_case(seed, t_len, b, m, n_in):
    """Inputs (T, B, in), h0 and the six maps of one GRU run, and loss
    weights. The inputs hold exact zeros (min-max scaling makes them) and
    h0 holds some -0.0, so the sign of a zero product shows."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, (t_len, b, n_in))
    xs[rng.random(xs.shape) < 0.2] = 0.0
    h0 = rng.normal(0.0, 1.0, (b, m))
    h0[rng.random(h0.shape) < 0.2] = -0.0
    maps = [rng.normal(0.0, 0.6, s) for s in [(n_in, m)] * 3 + [(m, m)] * 3]
    return xs, h0, maps, rng.normal(0.0, 1.0, (b, m))


def gru_run(fn, case, taped=True, as_array=False):
    """Final state of `fn` on a `gru_case`, and under a tape the gradients
    of mean(weights * h) for h0, the maps and (list input) every step."""
    xs, h0, maps, weights = case
    steps = xs.copy() if as_array else [Tensor2(x) for x in xs]
    h0, maps = Tensor2(h0), [Tensor2(a) for a in maps]
    if not taped:
        return fn(steps, h0, *maps).data, []
    with nk.GradTape() as tape:
        h = fn(steps, h0, *maps)
        loss = nk.mean_all(nk.mul(h, Tensor2(weights)))
    nk.backward(tape, loss)
    grads = [h0.grad] + [t.grad for t in maps]
    if not as_array:
        grads += [x.grad for x in steps]
    return h.data, grads


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_matches_oracle(case, taped, as_array):
    want, want_g = gru_run(oracle_gru_sequence, case)
    got, got_g = gru_run(nk.gru_sequence, case, taped, as_array)
    assert_same_bits(got, want)
    if taped:
        assert len(got_g) == len(want_g) - (len(case[0]) if as_array else 0)
        for g, w in zip(got_g, want_g):
            assert_same_bits(g, w)


class TestGruSequenceMatchesOracle:
    """The kernel, with its per-step buffers, against the plain oracle."""

    @LITERAL
    @pytest.mark.parametrize("n_in", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 26])
    @pytest.mark.parametrize("taped", [True, False], ids=["tape", "no_tape"])
    @pytest.mark.parametrize("as_array", [False, True],
                             ids=["tensors", "array"])
    def test_same_bits(self, gate, n_in, t_len, taped, as_array):
        case = gru_case(80 + t_len + n_in, t_len, 7, 5, n_in)
        for _ in range(2):  # a second run gives the same bits
            assert_matches_oracle(case, taped, as_array)

    @LITERAL
    def test_hidden_size_one(self, gate):
        # At M = 1 the W_h gradient is a dot product, whose summation
        # order follows the stride of its operands.
        for t_len, b in ((1, 1), (3, 1), (5, 300)):
            assert_matches_oracle(gru_case(81, t_len, b, 1, 1), True, False)

    def test_two_live_tapes(self):
        a, b = gru_case(82, 26, 6, 4, 1), gru_case(83, 26, 6, 4, 1)
        want_a = gru_run(oracle_gru_sequence, a)
        want_b = gru_run(oracle_gru_sequence, b)
        runs = []
        for xs, h0, maps, weights in (a, b):
            h0, maps = Tensor2(h0), [Tensor2(t) for t in maps]
            with nk.GradTape() as tape:
                h = nk.gru_sequence(xs, h0, *maps)
                loss = nk.mean_all(nk.mul(h, Tensor2(weights)))
            runs.append((tape, loss, h, [h0] + maps))
        for (tape, loss, h, inputs), (want, want_g) in zip(
                reversed(runs), (want_b, want_a)):
            nk.backward(tape, loss)
            assert_same_bits(h.data, want)
            for t, w in zip(inputs, want_g):
                assert_same_bits(t.grad, w)

    def test_backward_after_later_forward(self):
        case = gru_case(84, 26, 6, 4, 1)
        xs, h0, maps, weights = case
        want, want_g = gru_run(oracle_gru_sequence, case)
        h0, maps = Tensor2(h0), [Tensor2(t) for t in maps]
        with nk.GradTape() as tape:
            h = nk.gru_sequence(xs, h0, *maps)
            loss = nk.mean_all(nk.mul(h, Tensor2(weights)))
        other = gru_case(85, 26, 6, 4, 1)
        gru_run(nk.gru_sequence, other, taped=False, as_array=True)
        gru_run(nk.gru_sequence, other, as_array=True)  # tape dropped
        nk.backward(tape, loss)
        assert_same_bits(h.data, want)
        for t, w in zip([h0] + maps, want_g):
            assert_same_bits(t.grad, w)

    def test_memory_is_returned_once_the_tape_is_dropped(self):
        # A shape no other test runs, so no earlier call can have left
        # buffers of it allocated before tracing starts.
        t_len, b, m = 26, 41, 23
        case = gru_case(89, t_len, b, m, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = gru_run(nk.gru_sequence, case, as_array=True)
            del result
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left < t_len * b * m * 8  # one (T, B, M) history block

    def test_backward_writes_over_the_history(self):
        # The taped backward writes its (T, B, 3M) gate gradients over
        # the z, mix and f it has read and forms d_h h in place, so past
        # its scratch it allocates less than one (T, B, M) block. The
        # scratch is eight (B, M) buffers (d_z|d_r|d_h, three temporaries,
        # two dh) and, for the strided in-place d_h h, numpy's ufunc
        # buffers of np.getbufsize() elements per operand.
        t_len, b, m = 31, 43, 29
        xs, h0, maps, weights = gru_case(90, t_len, b, m, 1)
        h0, maps = Tensor2(h0), [Tensor2(t) for t in maps]
        with nk.GradTape() as tape:
            h = nk.gru_sequence(xs, h0, *maps)
            loss = nk.mean_all(nk.mul(h, Tensor2(weights)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nk.backward(tape, loss)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        scratch = (8 * b * m + 2 * np.getbufsize()) * 8
        assert rise < scratch + t_len * b * m * 8

    def test_second_backward_is_refused(self):
        xs, h0, maps, weights = gru_case(91, 5, 3, 4, 1)
        h0, maps = Tensor2(h0), [Tensor2(t) for t in maps]
        with nk.GradTape() as tape:
            h = nk.gru_sequence(xs, h0, *maps)
            loss = nk.mean_all(nk.mul(h, Tensor2(weights)))
        nk.backward(tape, loss)
        with pytest.raises(nk.ContractError,
                           match="^gru_sequence: backward already ran"):
            nk.backward(tape, loss)

    def test_grads_unchanged_by_a_later_run(self):
        case = gru_case(86, 26, 6, 4, 1)
        for _ in range(2):
            _, grads = gru_run(nk.gru_sequence, case)
            kept = [g.copy() for g in grads]
            gru_run(nk.gru_sequence, gru_case(87, 26, 6, 4, 1))
            for g, k in zip(grads, kept):
                assert_same_bits(g, k)

    # The in = 3 projection is a GEMM, where BLAS flags inf * 0 as invalid.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @pytest.mark.parametrize("n_in", [1, 3])
    def test_nonfinite_step_same_with_and_without_tape(self, n_in):
        xs, h0, maps, _ = gru_case(88, 26, 3, 4, n_in)
        xs[13, 1, 0] = np.inf
        messages = []
        for fn, taped in ((oracle_gru_sequence, False),
                          (nk.gru_sequence, False), (nk.gru_sequence, True)):
            args = [Tensor2(t) for t in [h0] + maps]
            with pytest.raises(nk.NonFiniteError) as err:
                if taped:
                    with nk.GradTape():
                        fn(xs.copy(), *args)
                else:
                    fn([Tensor2(x) for x in xs], *args)
            messages.append(str(err.value))
        assert messages == ["gru_sequence produced non-finite values at "
                            "step 14 of 26"] * 3


def adam_run(p, grads, lr):
    """p after one Adam.step per gradient, from a fresh optimizer."""
    adam = nk.Adam(lr)
    for g in grads:
        p.grad = g
        adam.step({"p": p})
        assert p.grad is None
    return p


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = adam_run(Tensor2([[1.0, 2.0]]), [np.zeros((1, 2))], lr=0.1)
        assert np.array_equal(p.data, [[1.0, 2.0]])

    def test_first_step_matches_hand_formula(self):
        # t=1: m_hat = g, v_hat = g^2, update = lr * g/|g| = lr
        p = adam_run(Tensor2([[0.5]]), [np.array([[1.0]])], lr=0.1)
        assert abs(p.data[0, 0] - (0.5 - 0.1 * (1.0 / (1.0 + 1e-8)))) < 1e-15

    def test_determinism(self):
        def run():
            g = np.array([[0.3, -0.2]])
            return adam_run(Tensor2([[1.0, -1.0]]), [g] * 5, lr=0.01).data
        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        with pytest.raises(nk.ContractError):
            adam_run(Tensor2([[1.0]]), [np.zeros((2, 2))], lr=0.1)

    def test_nonpositive_learning_rate_rejected(self):
        for lr in (0.0, -0.1):
            with pytest.raises(nk.ContractError, match="learning rate"):
                nk.Adam(lr)

    def test_sparse_gradients_keep_per_tensor_step_counts(self):
        # "every" gets a gradient on each of 6 steps, "odd" only on steps
        # 1, 3 and 5 (a country drawn every other batch); each must follow
        # the hand formula with its own step count, bit for bit.
        rng = np.random.default_rng(77)
        params = {"every": Tensor2(rng.normal(0, 1, (2, 3))),
                  "odd": Tensor2(rng.normal(0, 1, (3, 1)))}
        grads = {n: [rng.normal(0, 1, p.shape) for _ in range(6)]
                 for n, p in params.items()}
        want = {}
        for name, p in params.items():
            x, m, v, t = p.data.copy(), 0.0, 0.0, 0
            for step, g in enumerate(grads[name], start=1):
                if name == "odd" and step % 2 == 0:
                    continue
                t += 1
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
                x = x - 0.05 * (m / (1.0 - 0.9 ** t)) / (
                    np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            want[name] = x
        adam = nk.Adam(0.05)
        for step in range(1, 7):
            for name, p in params.items():
                if name == "every" or step % 2 == 1:
                    p.grad = grads[name][step - 1]
            adam.step(params)
        for name, p in params.items():
            assert np.array_equal(p.data, want[name]), name


class TestDeriveSeed:
    def test_chain_of_sha256_prefixes(self):
        seed = 2 ** 64 - 5
        for name in ("grid/3", "batches"):
            digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
            seed = int.from_bytes(digest[:8], "big")
        assert nk.derive_seed(-5, "grid/3", "batches") == seed
        assert nk.derive_seed(nk.derive_seed(-5, "grid/3"),
                              "batches") == seed

    def test_root_is_masked_to_64_bits(self):
        assert nk.derive_seed(-1) == nk.derive_seed(2 ** 64 - 1)
        assert nk.derive_seed(-1) == 2 ** 64 - 1
        assert nk.derive_seed(2 ** 64 + 7, "a") == nk.derive_seed(7, "a")

    def test_streams_differ_by_name(self):
        a, b = (np.random.default_rng(nk.derive_seed(5, name)).random(10)
                for name in "ab")
        assert not np.array_equal(a, b)

    def test_glorot_bounds(self):
        t = nk.glorot_uniform(np.random.default_rng(1), 8, 8)
        assert np.max(np.abs(t.data)) <= np.sqrt(6.0 / 16)


class TestOneBlasThread:
    def test_sets_one_thread_and_restores_the_count(self):
        calls = nk._openblas_threads()
        if calls is None:
            pytest.skip("no OpenBLAS with thread-count calls is mapped")
        get, set_ = calls
        original = get()
        set_(3)
        try:
            with pytest.raises(KeyError):
                with nk.one_blas_thread() as one_thread:
                    assert one_thread is True and get() == 1
                    raise KeyError("left the block")
            assert get() == 3
        finally:
            set_(original)

    def test_reports_when_no_openblas_is_mapped(self, monkeypatch):
        monkeypatch.setattr(nk, "_mapped_files", lambda: [])
        with nk.one_blas_thread() as one_thread:
            assert one_thread is False

    def test_fit_then_trains_in_one_process(self, monkeypatch):
        data = make_data(["US"], seed=23)
        config = quick_config(lr_grid=(0.01, 0.02), max_epochs=4)
        cores(monkeypatch, 1)
        want = fit_outcome(config, data)
        monkeypatch.setattr(nk, "_mapped_files", lambda: [])
        monkeypatch.setattr(trainer.os, "fork",
                            lambda: pytest.fail("a process started"))
        cores(monkeypatch, 2)
        assert fit_outcome(config, data) == want
