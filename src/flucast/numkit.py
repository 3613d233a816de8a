"""Dense 2-D float64 tensors with reverse-mode gradients, seed paths, and Adam.

All higher-level model code computes on `Tensor2` values. Gradients are
recorded on an explicit `GradTape` at tensor-operation granularity: each
primitive appends one entry, so the tape order is already topological and
`backward` is a single reverse sweep. Primitives range from elementwise
ops to whole model layers: `dot_attention` is one entry, and
`gru_sequence` runs a GRU over T steps with fused gate GEMMs and a
hand-written BPTT backward as one entry.

`gru_sequence` has two paths. With no active tape it runs the recurrence
on one step's buffers and keeps no history. Under a tape it keeps the
states and r as contiguous (T, B, M) blocks, and z, the mix term and f in
one (T, 3, B, M) block, which the backward overwrites with its gate
gradients as it consumes each step. Each call allocates its own buffers;
a history lives until the tape entry's backward has run, which it may do
once.

`one_blas_thread` runs a block with the process's OpenBLAS on one
thread, so processes that each run numpy do not oversubscribe the cores.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from . import Error


class NonFiniteError(Error):
    """An operation produced NaN or Inf."""


class ContractError(Error):
    """A caller violated an operation precondition, such as operand
    shapes that do not fit the operation."""


class Tensor2:
    """Immutable-by-convention 2-D float64 matrix (row-major)."""

    __slots__ = ("data", "grad")

    def __init__(self, data, copy: bool = True):
        arr = np.array(data, dtype=np.float64, copy=copy)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ContractError(
                f"Tensor2 requires 2-D data, got ndim={arr.ndim}")
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
        raise ContractError(f"matmul shape mismatch: {a.shape} x {b.shape}")

    def bw(g):
        return [g @ b.data.T, a.data.T @ g]

    return _emit(a.data @ b.data, [a, b], bw, "matmul")


def add(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ContractError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, [a, b], lambda g: [g, g], "add")


def sub(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ContractError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data - b.data, [a, b], lambda g: [g, -g], "sub")


def mul(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ContractError(f"mul shape mismatch: {a.shape} vs {b.shape}")
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
        raise ContractError("hstack row mismatch: "
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
        raise ContractError(
            f"add_bias shape mismatch: {a.shape} + {bias.shape}")
    return _emit(a.data + bias.data, [a, bias],
                 lambda g: [g, g.sum(axis=0, keepdims=True)], "add_bias")


def tile_rows(a: Tensor2, k: int) -> Tensor2:
    """k copies of a stacked by rows; block j holds rows j*a.rows onward."""
    if k < 1:
        raise ContractError(f"tile_rows needs k >= 1, got {k}")

    def bw(g):
        return [g.reshape(k, a.rows, a.cols).sum(axis=0)]

    return _emit(np.tile(a.data, (k, 1)), [a], bw, "tile_rows")


def dot_attention(query: Tensor2, w_q: Tensor2, w_k: Tensor2,
                  w_v: Tensor2, keys: Tensor2) -> tuple:
    """Unscaled dot-product attention of each row over L keys.

    `keys` is an (L*B x M) block in the layout of `tile_rows`: row j*B + i
    holds key j of row i. With H the (B, L, M) array of those keys,
    q = query w_q, K = H w_k and V = H w_v, the weights are
    softmax_j(q . K_j) and the context is sum_j weight_j V_j. Returns
    (context, weights). Only the context is recorded on the tape; the
    weights are a constant.
    """
    b, m = query.shape
    if (keys.rows == 0 or keys.rows % b or keys.cols != m
            or any(w.shape != (m, m) for w in (w_q, w_k, w_v))):
        raise ContractError(
            f"dot_attention shape mismatch: query {query.shape}, maps "
            f"{[w.shape for w in (w_q, w_k, w_v)]}, keys {keys.shape}")
    h = np.ascontiguousarray(
        keys.data.reshape(keys.rows // b, b, m).transpose(1, 0, 2))
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
                flat_h.T @ g_v.reshape(-1, m),
                g_h.transpose(1, 0, 2).reshape(-1, m)]

    out = _emit(ctx, [query, w_q, w_k, w_v, keys], bw, "dot_attention")
    return out, Tensor2(weights, copy=False)


def _sigmoid(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Logistic function as 0.5 tanh(x/2) + 0.5, which cannot overflow.

    Writes into `out` when given; `out` may be x itself. Its derivative
    is s (1 - s) for s = _sigmoid(x).
    """
    out = np.multiply(0.5, x, out=out)
    np.tanh(out, out=out)
    np.multiply(0.5, out, out=out)
    return np.add(out, 0.5, out=out)


def gru_sequence(steps, h0: Tensor2, u_z: Tensor2, u_r: Tensor2,
                 u_h: Tensor2, w_z: Tensor2, w_r: Tensor2, w_h: Tensor2
                 ) -> Tensor2:
    """Final state of a bias-free GRU run over T >= 1 steps of input.

    Each step computes
        z = sigmoid(x U_z + h W_z),  r = sigmoid(x U_r + h W_r),
        f = tanh(x U_h + h * (r W_h)),
        h' = (1 - z) * h + z * f.
    `steps` is either a (T, B, in) array of data, which gets no gradient,
    or a list of T (B x in) tensors, which do (the decoder feeds its own
    outputs back). A data array must not change while the tape lives.

    Each step's hidden projection is one GEMM with [W_z|W_r]. The input
    projection is x * [U_z|U_r|U_h] per step when in = 1 (an outer
    product), else one GEMM over all T steps. Each step's z|r and h
    pre-activations are checked for NaN and inf, which the sigmoid and
    tanh would hide; the error names the first bad step, so numpy's
    overflow and invalid-value warnings are off for the run. Every
    elementwise op writes into a preallocated buffer with the operand
    order of the formulas, so no result depends on the buffer layout.

    With no active tape the recurrence runs on one step's buffers and
    keeps no history. Under a tape, the states and r are kept as
    contiguous (T, B, M) blocks, and z, the mix term r W_h and f as one
    (T, 3, B, M) block whose step slices are contiguous. The tape entry's
    backward is BPTT in one reverse loop, which writes each step's z|r|h
    pre-activation gradients over that step's z, mix and f once it has
    read them, then one GEMM per weight gradient over all steps. So the
    backward consumes the history: a second backward through the same
    entry is a ContractError, and the history is freed once the first
    returns. Each call allocates its own buffers. The final state is a
    copy, so an output never holds on to the whole history.
    """
    b, m = h0.shape
    n_in = u_z.rows
    if isinstance(steps, np.ndarray):
        xs, steps = np.ascontiguousarray(steps, dtype=np.float64), []
        if xs.ndim != 3:
            raise ContractError(f"gru_sequence input array must be (T, B, "
                                f"in), got shape {xs.shape}")
        t_len, step_shapes = len(xs), {xs.shape[1:]}
    else:
        steps = list(steps)
        t_len, step_shapes = len(steps), {x.shape for x in steps}
    if t_len == 0:
        raise ContractError("gru_sequence needs at least one step")
    if (step_shapes != {(b, n_in)}
            or any(u.shape != (n_in, m) for u in (u_z, u_r, u_h))
            or any(w.shape != (m, m) for w in (w_z, w_r, w_h))):
        raise ContractError(
            f"gru_sequence shape mismatch: h0 {h0.shape}, steps "
            f"{sorted(step_shapes)}, maps "
            f"{[t.shape for t in (u_z, u_r, u_h, w_z, w_r, w_h)]}")
    if steps:
        xs = np.stack([x.data for x in steps])
    u_all = np.concatenate([u_z.data, u_r.data, u_h.data], axis=1)
    w_zr = np.concatenate([w_z.data, w_r.data], axis=1)
    taped = _ACTIVE_TAPE is not None
    keep = t_len if taped else 1
    hist = (np.empty((keep + 1, b, m)), np.empty((keep, b, m)),
            np.empty((keep, 3, b, m)))
    with np.errstate(over="ignore", invalid="ignore"):
        h_last = _gru_forward(xs, h0.data, u_all, w_zr, w_h.data,
                              hist).copy()
    if not taped:
        return Tensor2(h_last, copy=False)
    saved = [(xs, hist)]

    def bw(g):
        if not saved:
            raise ContractError(
                "gru_sequence: backward already ran through this tape "
                "entry and consumed its history")
        xs, hist = saved.pop()
        return _gru_backward(g, xs, hist, u_all, w_zr, w_h.data, bool(steps))

    return _record(h_last, steps + [h0, u_z, u_r, u_h, w_z, w_r, w_h], bw)


def _gru_forward(xs, h0, u_all, w_zr, w_h, hist) -> np.ndarray:
    """Run the recurrence into `hist`; returns the final state's buffer.

    hist is (states, r, zmf): zmf[t] holds z, mix and f as three (B, M)
    slices. With T steps of room, step t writes r[t], zmf[t] and
    states[t + 1]. With one step of room, every step writes slot 0 and
    the states alternate between two rows.
    """
    t_len, b, n_in = xs.shape
    m = w_h.shape[0]
    states, r, zmf = hist
    keep = len(r)
    pzr, hzr = np.empty((b, 2 * m)), np.empty((b, 2 * m))
    ph, tmp = np.empty((b, m)), np.empty((b, m))
    if n_in == 1:
        u_zr, u_h = u_all[:, :2 * m], u_all[:, 2 * m:]
    else:
        xu = (xs.reshape(-1, n_in) @ u_all).reshape(t_len, b, 3 * m)
    states[0] = h0
    for t in range(t_len):
        h = states[t % (keep + 1)]
        h_new = states[(t + 1) % (keep + 1)]
        i = t % keep
        (z_t, mix_t, f_t), r_t = zmf[i], r[i]
        if n_in == 1:
            # x U as the K = 1 GEMM gives it, +0 for a zero product;
            # adding h W_zr below does the same for the z|r part.
            x_zr = np.multiply(xs[t], u_zr, out=pzr)
            x_h = np.add(np.multiply(xs[t], u_h, out=ph), 0.0, out=ph)
        else:
            x_zr, x_h = xu[t, :, :2 * m], xu[t, :, 2 * m:]
        np.add(x_zr, np.matmul(h, w_zr, out=hzr), out=pzr)
        _sigmoid(pzr, out=hzr)
        z_t[...] = hzr[:, :m]
        r_t[...] = hzr[:, m:]
        np.matmul(r_t, w_h, out=mix_t)
        np.multiply(h, mix_t, out=tmp)
        np.add(x_h, tmp, out=ph)
        if not (np.isfinite(pzr).all() and np.isfinite(ph).all()):
            raise NonFiniteError(
                f"gru_sequence produced non-finite values at step "
                f"{t + 1} of {t_len}")
        np.tanh(ph, out=f_t)
        np.subtract(1.0, z_t, out=ph)
        np.multiply(ph, h, out=ph)
        np.multiply(z_t, f_t, out=tmp)
        np.add(ph, tmp, out=h_new)
    return h_new


def _gru_backward(g, xs, hist, u_all, w_zr, w_h, need_dx) -> list:
    """BPTT for `gru_sequence`: gradients of its inputs, given g = dL/dh_T.

    The per-step products keep the operand order of the formulas
        d_z = dh (f - h) z (1 - z),  d_h = dh z (1 - f f),
        d_r = ((d_h h) W_h^T) r (1 - r),
    into a (B, 3M) d_z|d_r|d_h scratch. Once step t is done its z, mix
    and f are dead, so the scratch is copied over their 3BM floats, read
    as a (B, 3M) block: after the loop the zmf history is the (T, B, 3M)
    gradient block, and d_h h is formed in place over its d_h columns
    once the other GEMMs have read them. Each GEMM multiplies the same
    operands as the plain-array oracle in tests/test_numkit.py, so the
    gradients are bitwise that oracle's. The history is consumed.
    """
    t_len, b, n_in = xs.shape
    m = w_h.shape[0]
    states, r, zmf = hist
    d_pre = zmf.reshape(t_len, b, 3 * m)
    d_a = np.empty((b, 3 * m))
    d_h = d_a[:, 2 * m:]
    e1, e2, e3, dh_a, dh_b = (np.empty((b, m)) for _ in range(5))
    dh = g
    for t in range(t_len - 1, -1, -1):
        h, r_t, (z_t, mix_t, f_t) = states[t], r[t], zmf[t]
        dh_prev = dh_b if dh is dh_a else dh_a
        np.subtract(1.0, z_t, out=e1)
        np.subtract(f_t, h, out=e2)
        np.multiply(dh, e2, out=e2)
        np.multiply(e2, z_t, out=e2)
        np.multiply(e2, e1, out=d_a[:, :m])
        np.multiply(f_t, f_t, out=e2)
        np.subtract(1.0, e2, out=e2)
        np.multiply(dh, z_t, out=e3)
        np.multiply(e3, e2, out=d_h)
        np.multiply(dh, e1, out=dh_prev)
        np.subtract(1.0, r_t, out=e1)
        np.multiply(d_h, h, out=e2)
        np.matmul(e2, w_h.T, out=e3)
        np.multiply(e3, r_t, out=e3)
        np.multiply(e3, e1, out=d_a[:, m:2 * m])
        np.multiply(d_h, mix_t, out=e2)
        np.add(dh_prev, e2, out=dh_prev)
        np.add(dh_prev, np.matmul(d_a[:, :2 * m], w_zr.T, out=e2),
               out=dh_prev)
        d_pre[t] = d_a
        dh = dh_prev
    d_flat = d_pre.reshape(-1, 3 * m)
    h_flat = states[:-1].reshape(-1, m)
    d_u = xs.reshape(-1, n_in).T @ d_flat
    d_wzr = h_flat.T @ d_flat[:, :2 * m]
    d_x = []
    if need_dx:
        d_all = d_flat @ u_all.T
        d_x = [d_all[t * b:(t + 1) * b] for t in range(t_len)]
    if m == 1:
        # This product is then a dot, whose summation order follows the
        # stride of its operands: keep d_h h contiguous, and read r as a
        # stride-2 column, as the oracle lays out z|r.
        r_rows = np.empty((t_len * b, 2))
        r_rows[:, 1] = r.ravel()
        d_wh = r_rows[:, 1:].T @ (d_flat[:, 2:] * h_flat)
    else:
        dh_h = np.multiply(d_flat[:, 2 * m:], h_flat, out=d_flat[:, 2 * m:])
        d_wh = r.reshape(-1, m).T @ dh_h
    return d_x + [dh, d_u[:, :m], d_u[:, m:2 * m], d_u[:, 2 * m:],
                  d_wzr[:, :m], d_wzr[:, m:], d_wh]


def mean_all(a: Tensor2) -> Tensor2:
    n = a.data.size

    def bw(g):
        return [np.full_like(a.data, g[0, 0] / n)]

    return _emit(np.array([[a.data.mean()]]), [a], bw, "mean_all")


def backward(tape: GradTape, loss: Tensor2) -> None:
    """Reverse sweep over the tape; fills .grad on every visited tensor."""
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


def derive_seed(seed: int, *names: str) -> int:
    """The seed of the stream at path `names` under `seed`, for
    `np.random.default_rng`; equal paths give equal streams.

    The root seed is masked to 64 bits. Each name then replaces the seed
    s by the first 8 bytes, big-endian, of sha256(f"{s}/{name}").
    """
    import hashlib
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    for name in names:
        h = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
        seed = int.from_bytes(h[:8], "big")
    return seed


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int
                   ) -> Tensor2:
    """Uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor2(rng.uniform(-limit, limit, (rows, cols)), copy=False)


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict.

    Each name keeps its own moments m, v and step count t. A tensor with
    no gradient in a step keeps all three, so a per-country tensor is
    bias-corrected by the number of batches of its country.
    """

    def __init__(self, lr: float):
        if lr <= 0:
            raise ContractError("learning rate must be positive")
        self.lr = lr
        self._states = {}  # name -> (m, v, t)

    def step(self, params: dict) -> None:
        """Update every param whose .grad is set; then clear grads."""
        for name, p in params.items():
            if p.grad is None:
                continue
            grad = np.asarray(p.grad, dtype=np.float64)
            m, v, t = self._states.get(name) or (
                np.zeros(p.shape), np.zeros(p.shape), 0)
            if grad.shape != p.shape or m.shape != p.shape:
                raise ContractError(
                    f"adam_step shape mismatch: param {p.shape}, "
                    f"grad {grad.shape}, state {m.shape}")
            t += 1
            m = _BETA1 * m + (1.0 - _BETA1) * grad
            v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
            self._states[name] = (m, v, t)
            m_hat = m / (1.0 - _BETA1 ** t)
            v_hat = v / (1.0 - _BETA2 ** t)
            new = p.data - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
            p.data = _finite(new, "adam_step")
            p.grad = None


# Thread-count calls that OpenBLAS builds export, by symbol prefix and
# suffix: numpy's wheels link scipy-openblas with 64-bit integers.
_OPENBLAS_THREAD_CALLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


def _mapped_files() -> list:
    """Paths of the files mapped into this process; [] where the
    process's memory map cannot be read (outside Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            return [fields[5].rstrip("\n") for fields in
                    (line.split(maxsplit=5) for line in f)
                    if len(fields) == 6]
    except OSError:
        return []


def _openblas_threads():
    """(get, set) thread-count calls of the mapped OpenBLAS, or None."""
    import ctypes

    for path in dict.fromkeys(_mapped_files()):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread; restore the count after.

    Yields True once the count is 1. Yields False, and changes nothing,
    when no OpenBLAS with thread-count calls is mapped into the process.
    """
    calls = _openblas_threads()
    if calls is None:
        yield False
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)
