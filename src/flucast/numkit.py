"""Dense 2-D float64 tensors with reverse-mode gradients, a seeded RNG, and Adam.

All higher-level model code computes on `Tensor2` values. Gradients are
recorded on an explicit `GradTape` at tensor-operation granularity: each
primitive appends one entry, so the tape order is already topological and
`backward` is a single reverse sweep. Primitives range from elementwise
ops to whole model layers: `dot_attention` is one entry, and
`gru_sequence` runs a GRU over T steps with fused gate GEMMs and a
hand-written BPTT backward as one entry.
"""

from __future__ import annotations

import hashlib

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent for the requested operation."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


class ContractError(ValueError):
    """A caller violated an operation precondition."""


class Tensor2:
    """Immutable-by-convention 2-D float64 matrix (row-major)."""

    __slots__ = ("data", "grad")

    def __init__(self, data, copy: bool = True):
        arr = np.array(data, dtype=np.float64, copy=copy)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor2 requires 2-D data, got ndim={arr.ndim}")
        self.data = arr
        self.grad = None  # filled in by backward()

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def copy(self) -> "Tensor2":
        return Tensor2(self.data.copy(), copy=False)

    def __repr__(self):
        return f"Tensor2(shape={self.shape})"


def zeros(rows: int, cols: int) -> Tensor2:
    return Tensor2(np.zeros((rows, cols)), copy=False)


_ACTIVE_TAPE = None


class GradTape:
    """Ordered record of primitive ops; replayed backward once per backward().

    Usable as a context manager; only one tape may be active at a time.
    """

    def __init__(self):
        self._entries = []  # (out, inputs, backward_fn)

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a GradTape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out, inputs, backward_fn):
        self._entries.append((out, inputs, backward_fn))

    def __len__(self):
        return len(self._entries)


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op} produced non-finite values")
    return arr


def _record(out_data, inputs, backward_fn) -> Tensor2:
    out = Tensor2(out_data, copy=False)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(out, inputs, backward_fn)
    return out


def _emit(out_data, inputs, backward_fn, op: str) -> Tensor2:
    return _record(_finite(out_data, op), inputs, backward_fn)


def matmul(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")

    def bw(g):
        return [g @ b.data.T, a.data.T @ g]

    return _emit(a.data @ b.data, [a, b], bw, "matmul")


def add(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, [a, b], lambda g: [g, g], "add")


def sub(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data - b.data, [a, b], lambda g: [g, -g], "sub")


def mul(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data * b.data, [a, b],
                 lambda g: [g * b.data, g * a.data], "mul")


def tanh(a: Tensor2) -> Tensor2:
    out = np.tanh(a.data)
    return _emit(out, [a], lambda g: [g * (1.0 - out * out)], "tanh")


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of each row, shifted by the row max so exp never overflows."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the softmax input, given its output and output grad."""
    return out * (g - (g * out).sum(axis=1, keepdims=True))


def hstack(tensors) -> Tensor2:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("hstack of nothing")
    r = tensors[0].rows
    if any(t.rows != r for t in tensors):
        raise ShapeError("hstack row mismatch: "
                         + ", ".join(str(t.shape) for t in tensors))
    widths = [t.cols for t in tensors]

    def bw(g):
        outs, j = [], 0
        for w in widths:
            outs.append(g[:, j:j + w])
            j += w
        return outs

    return _emit(np.concatenate([t.data for t in tensors], axis=1),
                 tensors, bw, "hstack")


def add_bias(a: Tensor2, bias: Tensor2) -> Tensor2:
    """a + bias, with the 1 x cols bias broadcast over every row of a."""
    if bias.shape != (1, a.cols):
        raise ShapeError(f"add_bias shape mismatch: {a.shape} + {bias.shape}")
    return _emit(a.data + bias.data, [a, bias],
                 lambda g: [g, g.sum(axis=0, keepdims=True)], "add_bias")


def tile_rows(a: Tensor2, k: int) -> Tensor2:
    """k copies of a stacked by rows; block j holds rows j*a.rows onward."""
    if k < 1:
        raise ContractError(f"tile_rows needs k >= 1, got {k}")

    def bw(g):
        return [g.reshape(k, a.rows, a.cols).sum(axis=0)]

    return _emit(np.tile(a.data, (k, 1)), [a], bw, "tile_rows")


def row_block(a: Tensor2, i0: int, i1: int) -> Tensor2:
    """Rows i0..i1-1 of a."""
    if not (0 <= i0 < i1 <= a.rows):
        raise ShapeError(f"row_block [{i0}:{i1}] out of range for {a.shape}")

    def bw(g):
        full = np.zeros_like(a.data)
        full[i0:i1] = g
        return [full]

    return _emit(a.data[i0:i1].copy(), [a], bw, "row_block")


def dot_attention(query: Tensor2, w_q: Tensor2, w_k: Tensor2,
                  w_v: Tensor2, keys) -> tuple:
    """Unscaled dot-product attention of each row over L key tensors.

    With H the (B, L, M) stack of the L (B x M) `keys`, q = query w_q,
    K = H w_k and V = H w_v, the weights are softmax_j(q . K_j) and the
    context is sum_j weight_j V_j. Returns (context, weights). Only the
    context is recorded on the tape; the weights are a constant.
    """
    keys = list(keys)
    if not keys:
        raise ContractError("dot_attention over no keys")
    b, m = query.shape
    if any(k.shape != (b, m) for k in keys) or any(
            w.shape != (m, m) for w in (w_q, w_k, w_v)):
        raise ShapeError(
            f"dot_attention shape mismatch: query {query.shape}, maps "
            f"{[w.shape for w in (w_q, w_k, w_v)]}, keys "
            f"{[k.shape for k in keys]}")
    h = np.stack([k.data for k in keys], axis=1)
    q = query.data @ w_q.data
    k_all = h @ w_k.data
    v_all = h @ w_v.data
    logits = np.einsum("bm,blm->bl", q, k_all)
    weights = _finite(_softmax(logits), "dot_attention")
    ctx = np.einsum("bl,blm->bm", weights, v_all)

    def bw(g):
        g_w = np.einsum("bm,blm->bl", g, v_all)
        g_logits = _softmax_grad(weights, g_w)
        g_q = np.einsum("bl,blm->bm", g_logits, k_all)
        g_k = g_logits[:, :, None] * q[:, None, :]
        g_v = weights[:, :, None] * g[:, None, :]
        flat_h = h.reshape(-1, m)
        g_h = g_k @ w_k.data.T + g_v @ w_v.data.T
        return [g_q @ w_q.data.T, query.data.T @ g_q,
                flat_h.T @ g_k.reshape(-1, m),
                flat_h.T @ g_v.reshape(-1, m)] + [
                    g_h[:, j] for j in range(len(keys))]

    out = _emit(ctx, [query, w_q, w_k, w_v] + keys, bw, "dot_attention")
    return out, Tensor2(weights, copy=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 tanh(x/2) + 0.5, which cannot overflow.

    Its derivative is s (1 - s) for s = _sigmoid(x).
    """
    return 0.5 * np.tanh(0.5 * x) + 0.5


def gru_sequence(steps, h0: Tensor2, u_z: Tensor2, u_r: Tensor2,
                 u_h: Tensor2, w_z: Tensor2, w_r: Tensor2, w_h: Tensor2,
                 standard: bool = False) -> Tensor2:
    """Final state of a bias-free GRU run over T >= 1 (B x in) step inputs.

    Each step computes
        z = sigmoid(x U_z + h W_z),  r = sigmoid(x U_r + h W_r),
        f = tanh(x U_h + h * (r W_h))    (literal form), or
        f = tanh(x U_h + (r * h) W_h)    (standard form),
        h' = (1 - z) * h + z * f.
    The input projections of all T steps are one GEMM with [U_z|U_r|U_h],
    and each step's hidden projection is one GEMM with [W_z|W_r]. The
    (T, B, 3M) pre-activations are checked once: every matmul term and
    product enters one of them, so an inf that a saturated sigmoid or
    tanh would hide is still caught. The backward is BPTT in one reverse
    loop, with the weight gradients as one GEMM each over all steps.
    """
    steps = list(steps)
    if not steps:
        raise ContractError("gru_sequence needs at least one step")
    b, m = h0.shape
    n_in = u_z.rows
    if (any(x.shape != (b, n_in) for x in steps)
            or any(u.shape != (n_in, m) for u in (u_z, u_r, u_h))
            or any(w.shape != (m, m) for w in (w_z, w_r, w_h))):
        raise ShapeError(
            f"gru_sequence shape mismatch: h0 {h0.shape}, steps "
            f"{sorted({x.shape for x in steps})}, maps "
            f"{[t.shape for t in (u_z, u_r, u_h, w_z, w_r, w_h)]}")
    t_len = len(steps)
    x_all = np.concatenate([x.data for x in steps])
    u_all = np.concatenate([u_z.data, u_r.data, u_h.data], axis=1)
    w_zr = np.concatenate([w_z.data, w_r.data], axis=1)
    pre = (x_all @ u_all).reshape(t_len, b, 3 * m)
    gates = np.empty((t_len, b, 2 * m))  # z | r
    cand = np.empty((t_len, b, m))  # f
    mix = np.empty((t_len, b, m))  # r * h (standard) or r W_h (literal)
    states = np.empty((t_len + 1, b, m))
    states[0] = h0.data
    for t in range(t_len):
        h, a = states[t], pre[t]
        a[:, :2 * m] += h @ w_zr
        gates[t] = _sigmoid(a[:, :2 * m])
        z, r = gates[t, :, :m], gates[t, :, m:]
        if standard:
            mix[t] = r * h
            a[:, 2 * m:] += mix[t] @ w_h.data
        else:
            mix[t] = r @ w_h.data
            a[:, 2 * m:] += h * mix[t]
        cand[t] = np.tanh(a[:, 2 * m:])
        states[t + 1] = (1.0 - z) * h + z * cand[t]
    finite = np.isfinite(pre).reshape(t_len, -1).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"gru_sequence produced non-finite values at "
                             f"step {int(np.argmin(finite)) + 1} of {t_len}")

    def bw(g):
        d_pre = np.empty_like(pre)
        dh = g
        for t in range(t_len - 1, -1, -1):
            h, f, d_a = states[t], cand[t], d_pre[t]
            z, r = gates[t, :, :m], gates[t, :, m:]
            d_a[:, :m] = dh * (f - h) * z * (1.0 - z)
            d_a[:, 2 * m:] = dh * z * (1.0 - f * f)
            dh_prev = dh * (1.0 - z)
            if standard:
                d_rh = d_a[:, 2 * m:] @ w_h.data.T
                d_a[:, m:2 * m] = d_rh * h * r * (1.0 - r)
                dh_prev += d_rh * r
            else:
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
        if standard:
            d_wh = mix.reshape(-1, m).T @ d_flat[:, 2 * m:]
        else:
            d_wh = (gates[:, :, m:].reshape(-1, m).T
                    @ (d_flat[:, 2 * m:] * h_flat))
        return [d_x[t * b:(t + 1) * b] for t in range(t_len)] + [
            dh, d_u[:, :m], d_u[:, m:2 * m], d_u[:, 2 * m:],
            d_wzr[:, :m], d_wzr[:, m:], d_wh]

    return _record(states[-1].copy(), steps + [h0, u_z, u_r, u_h, w_z,
                                               w_r, w_h], bw)


def mean_all(a: Tensor2) -> Tensor2:
    n = a.data.size

    def bw(g):
        return [np.full_like(a.data, g[0, 0] / n)]

    return _emit(np.array([[a.data.mean()]]), [a], bw, "mean_all")


def backward(tape: GradTape, loss: Tensor2) -> dict:
    """Reverse sweep over the tape; fills .grad on every visited tensor.

    Returns a mapping id(tensor) -> gradient array for convenience.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"loss must be scalar 1x1, got {loss.shape}")
    grads = {id(loss): np.ones((1, 1))}
    tensors = {id(loss): loss}
    for out, inputs, bw in reversed(tape._entries):
        g = grads.get(id(out))
        if g is None:
            continue
        for inp, gi in zip(inputs, bw(g)):
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
            tensors[key] = inp
    for key, t in tensors.items():
        t.grad = grads[key]
    return grads


class Rng:
    """Deterministic seeded RNG; identical seed gives identical draws."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, name: str) -> "Rng":
        """Derive an independent child stream keyed by (seed, name)."""
        h = hashlib.sha256(f"{self.seed}/{name}".encode("utf-8")).digest()
        return Rng(int.from_bytes(h[:8], "big"))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def bernoulli(self, p: float, shape) -> np.ndarray:
        return (self._gen.random(size=shape) < p).astype(np.float64)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)

    def normal(self, loc: float, scale: float, shape) -> np.ndarray:
        return self._gen.normal(loc, scale, size=shape)


def glorot_uniform(rng: Rng, rows: int, cols: int) -> Tensor2:
    """Uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor2(rng.uniform(-limit, limit, (rows, cols)), copy=False)


class AdamState:
    """Per-tensor Adam accumulators with bias correction."""

    def __init__(self, shape, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ContractError("learning rate must be positive")
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(state: AdamState, param: Tensor2, grad: np.ndarray) -> Tensor2:
    """One Adam update; returns the updated parameter tensor."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape or state.m.shape != param.shape:
        raise ShapeError(f"adam_step shape mismatch: param {param.shape}, "
                         f"grad {grad.shape}, state {state.m.shape}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    new = param.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return Tensor2(_finite(new, "adam_step"), copy=False)


class Adam:
    """Adam over a named parameter dict; updates tensors in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._states = {}

    def step(self, params: dict) -> None:
        """Update every param whose .grad is set; then clear grads."""
        for name, p in params.items():
            if p.grad is None:
                continue
            st = self._states.get(name)
            if st is None:
                st = AdamState(p.shape, self.lr, self.beta1, self.beta2,
                               self.eps)
                self._states[name] = st
            p.data = adam_step(st, p, p.grad).data
            p.grad = None
