import numpy as np
import pytest

from flucast import numkit as nk
from flucast.numkit import Tensor2


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
        rng = nk.Rng(7)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        out = nk.matmul(Tensor2(a), Tensor2(b))
        assert np.max(np.abs(out.data - triple_loop_matmul(a, b))) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(nk.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            nk.matmul(Tensor2(np.zeros((2, 3))), Tensor2(np.zeros((2, 2))))

    def test_associativity_on_random_chains(self):
        rng = nk.Rng(11)
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
        with pytest.raises(nk.ShapeError):
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
        rng = nk.Rng(3)
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
        rng = nk.Rng(17)
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
        rng = nk.Rng(19)
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
        x = nk.Rng(19).uniform(-4, 4, (3, 4))
        s = nk._sigmoid(x)
        step = 1e-6
        fd = (nk._sigmoid(x + step) - nk._sigmoid(x - step)) / (2 * step)
        assert_grad_close(s * (1.0 - s), fd)

    def test_softmax_grad_matches_finite_differences(self):
        rng = nk.Rng(23)
        x = rng.uniform(-1, 1, (2, 4))
        c = rng.uniform(-1, 1, (2, 4))

        def loss():
            return float(np.mean(nk._softmax(x) ** 2 * c))

        out = nk._softmax(x)
        analytic = nk._softmax_grad(out, 2.0 * out * c / x.size)
        assert_grad_close(analytic, finite_difference(loss, x))

    def test_hstack_gradients(self):
        rng = nk.Rng(29)
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
        rng = nk.Rng(31)
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

    def test_tile_rows_and_row_block_gradients(self):
        rng = nk.Rng(37)
        a = Tensor2(rng.uniform(-1, 1, (2, 3)))
        w = Tensor2(rng.uniform(-1, 1, (6, 3)))

        def blocks():
            y = nk.tanh(nk.mul(nk.tile_rows(a, 3), w))
            return [nk.row_block(y, 2 * j, 2 * j + 2) for j in (0, 2)]

        def loss():
            p, r = blocks()
            return nk.mean_all(nk.mul(p, nk.add(r, p))).item()

        with nk.GradTape() as tape:
            p, r = blocks()
            l = nk.mean_all(nk.mul(p, nk.add(r, p)))
        nk.backward(tape, l)
        assert_grad_close(a.grad, finite_difference(loss, a.data))
        assert_grad_close(w.grad, finite_difference(loss, w.data))
        assert np.all(w.grad[2:4] == 0.0)

    def test_tile_rows_and_row_block_values(self):
        a = Tensor2([[1.0, 2.0], [3.0, 4.0]])
        t = nk.tile_rows(a, 3)
        assert np.array_equal(t.data, np.vstack([a.data] * 3))
        assert np.array_equal(nk.row_block(t, 2, 4).data, a.data)
        with pytest.raises(nk.ShapeError):
            nk.row_block(t, 4, 7)
        with pytest.raises(nk.ShapeError):
            nk.add_bias(a, Tensor2([[1.0, 2.0, 3.0]]))

    def test_dot_attention_gradients(self):
        rng = nk.Rng(41)
        b, m, l = 3, 4, 5
        query = Tensor2(rng.uniform(-1, 1, (b, m)))
        maps = [Tensor2(rng.uniform(-1, 1, (m, m))) for _ in range(3)]
        keys = [Tensor2(rng.uniform(-1, 1, (b, m))) for _ in range(l)]
        c = Tensor2(rng.uniform(-1, 1, (b, m)))

        def loss():
            ctx, _ = nk.dot_attention(query, *maps, keys)
            return nk.mean_all(nk.mul(nk.mul(ctx, ctx), c)).item()

        with nk.GradTape() as tape:
            ctx, _ = nk.dot_attention(query, *maps, keys)
            assert len(tape) == 1
            l_ = nk.mean_all(nk.mul(nk.mul(ctx, ctx), c))
        nk.backward(tape, l_)
        for t in [query] + maps + keys:
            assert_grad_close(t.grad, finite_difference(loss, t.data))

    @pytest.mark.parametrize("standard", [False, True],
                             ids=["literal", "standard"])
    def test_gru_sequence_gradients(self, standard):
        rng = nk.Rng(43)
        t_len, b, n_in, m = 4, 3, 2, 3
        steps = [Tensor2(rng.uniform(-1, 1, (b, n_in)))
                 for _ in range(t_len)]
        h0 = Tensor2(rng.uniform(-1, 1, (b, m)))
        maps = [Tensor2(rng.normal(0, 0.7, shape))
                for shape in [(n_in, m)] * 3 + [(m, m)] * 3]
        c = Tensor2(rng.uniform(-1, 1, (b, m)))

        def run():
            h = nk.gru_sequence(steps, h0, *maps, standard)
            return nk.mean_all(nk.mul(nk.mul(h, h), c))

        with nk.GradTape() as tape:
            l_ = run()
            assert len(tape) == 4
        nk.backward(tape, l_)
        for t in steps + [h0] + maps:
            fd = finite_difference(lambda: run().item(), t.data)
            assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-9)

    def test_gru_sequence_contract(self):
        h0 = nk.zeros(2, 3)
        maps = [nk.zeros(*shape) for shape in [(1, 3)] * 3 + [(3, 3)] * 3]
        with pytest.raises(nk.ContractError):
            nk.gru_sequence([], h0, *maps)
        with pytest.raises(nk.ShapeError, match="gru_sequence"):
            nk.gru_sequence([nk.zeros(2, 2)], h0, *maps)
        with pytest.raises(nk.ShapeError, match="gru_sequence"):
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


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor2([[1.0, 2.0]])
        st = nk.AdamState(p.shape, lr=0.1)
        out = nk.adam_step(st, p, np.zeros((1, 2)))
        assert np.array_equal(out.data, p.data)

    def test_first_step_matches_hand_formula(self):
        # t=1: m_hat = g, v_hat = g^2, update = lr * g/|g| = lr
        p = Tensor2([[0.5]])
        st = nk.AdamState(p.shape, lr=0.1)
        out = nk.adam_step(st, p, np.array([[1.0]]))
        assert abs(out.data[0, 0] - (0.5 - 0.1 * (1.0 / (1.0 + 1e-8)))) < 1e-15

    def test_determinism(self):
        def run():
            p = Tensor2([[1.0, -1.0]])
            st = nk.AdamState(p.shape, lr=0.01)
            g = np.array([[0.3, -0.2]])
            for _ in range(5):
                p = nk.adam_step(st, p, g)
            return p.data
        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        p = Tensor2([[1.0]])
        st = nk.AdamState(p.shape, lr=0.1)
        with pytest.raises(nk.ShapeError):
            nk.adam_step(st, p, np.zeros((2, 2)))


class TestRng:
    def test_same_seed_identical_draws(self):
        a = nk.Rng(123).uniform(0, 1, 10_000)
        b = nk.Rng(123).uniform(0, 1, 10_000)
        assert np.array_equal(a, b)

    def test_spawn_streams_differ_by_name(self):
        root = nk.Rng(5)
        a = root.spawn("a").uniform(0, 1, 10)
        b = root.spawn("b").uniform(0, 1, 10)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, nk.Rng(5).spawn("a").uniform(0, 1, 10))

    def test_glorot_bounds(self):
        t = nk.glorot_uniform(nk.Rng(1), 8, 8)
        assert np.max(np.abs(t.data)) <= np.sqrt(6.0 / 16)
