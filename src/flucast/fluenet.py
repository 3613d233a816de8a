"""GRU encoder-decoder with search-query attention and reseasonalization.

The network forecasts the deseasonalized component: a GRU encodes the
deseasonalized ILI window, one shared GRU encodes all L query series
in a single pass over L*batch rows, dot-product attention fuses them,
and a GRU decoder with scheduled sampling rolls out S steps. Final
forecasts add the periodic seasonal extension back on.

Gate equations follow the literal form
    r = sigma(x U_r + h W_r)
    f = tanh(x U_h + h * (r W_h))
    z = sigma(x U_z + h W_z)
    h' = (1 - z) * h + z * f
with no bias terms in the gates, as the paper gives them.
Each encoder runs as one `numkit.gru_sequence` tape op with fused gate
GEMMs, on its input series passed as one (T x batch x in_dim) array:
the series are data, so the op skips their gradient. The decoder, whose
inputs depend on its own outputs, calls `gru_cell` (the same op with
T = 1 and its input as a tensor, which gets a gradient) once per step.
Without a tape, in validation and inference, the op keeps no per-step
history.

Each parameter group is a tuple in its op's argument order: a GRU
(u_z, u_r, u_h, w_z, w_r, w_h) for `numkit.gru_sequence`, attention
(w_q, w_k, w_v) for `numkit.dot_attention`, an MLP (w1, b1, w2, b2).
"""

from __future__ import annotations

import json

import numpy as np

from . import numkit as nk
from .numkit import Tensor2


ARCHS = ("proposed", "gru_baseline")


def _glorot(seed):
    """The default `make`: a bias (stream None) starts at zero; a weight is
    drawn from `model-init` or from its child stream of that name."""
    init = nk.derive_seed(seed, "model-init")
    streams = {}

    def make(name, rows, cols, stream):
        if stream is None:
            return nk.zeros(rows, cols)
        if stream not in streams:
            streams[stream] = np.random.default_rng(
                init if stream == "model-init"
                else nk.derive_seed(init, stream))
        return nk.glorot_uniform(streams[stream], rows, cols)

    return make


class ModelParams:
    """All learnable tensors, partitioned into shared and per-country groups.

    GRUs and the fusion MLP are shared across countries; attention and the
    output MLP are country-specific. The country embedding (one-hot -> M
    linear map) supplies the initial hidden state of both encoders when
    the model covers more than one country. The model takes queries
    exactly when its query count `l_queries` (L) is above 0.

    The constructor is the only list of the tensors. It walks them in the
    Glorot draw order, getting each from `make(name, rows, cols, stream)`;
    the default `make` initializes, and `load_checkpoint` reads the file.
    It keeps each group as that tuple: GRUs `ili_encoder`, `decoder` and
    `query_encoder`, MLPs `fusion` and `output[c]`, and `attention[c]`.
    """

    def __init__(self, m: int, n_in: int, s_out: int, l_queries: int,
                 countries, seed: int, use_country_embedding: bool = False,
                 arch: str = "proposed", make=None):
        if arch not in ARCHS:
            raise ValueError(f"unknown arch {arch!r}")
        if l_queries < 0:
            raise ValueError(f"l_queries must be >= 0, got {l_queries}")
        self.m = m
        self.n_in = n_in
        self.s_out = s_out
        self.l_queries = l_queries
        self.countries = list(countries)
        self.seed = seed
        self.use_country_embedding = use_country_embedding
        self.arch = arch

        make = make or _glorot(seed)
        self._params = {}

        def put(name, rows, cols, stream):
            self._params[name] = make(name, rows, cols, stream)
            return self._params[name]

        def gru(name, in_dim):
            return tuple(
                put(f"shared.{name}.{g}", m if g[0] == "w" else in_dim, m,
                    "model-init")
                for g in ("u_z", "u_r", "u_h", "w_z", "w_r", "w_h"))

        def mlp(prefix, in_dim, out_dim, stream):
            return (put(f"{prefix}.w1", in_dim, m, stream),
                    put(f"{prefix}.b1", 1, m, None),
                    put(f"{prefix}.w2", m, out_dim, stream),
                    put(f"{prefix}.b2", 1, out_dim, None))

        self.ili_encoder = gru("ili_encoder", 1 + self.l_queries
                               if arch == "gru_baseline" else 1)
        self.decoder = gru("decoder", 1)
        self.query_encoder = (gru("query_encoder", 1) if self.has_attention
                              else None)
        self.fusion = mlp("shared.fusion", 2 * m if self.has_attention else m,
                          m, "model-init")
        self.attention, self.output = {}, {}
        for c in self.countries:
            stream = f"country/{c}"
            if self.has_attention:
                self.attention[c] = tuple(
                    put(f"country.{c}.attention.{w}", m, m, stream)
                    for w in ("w_q", "w_k", "w_v"))
            self.output[c] = mlp(f"country.{c}.output", m, 1, stream)
        self.country_embed = (put("shared.country_embed", len(countries),
                                  m, "country-embed")
                              if use_country_embedding else None)

    @property
    def has_attention(self) -> bool:
        return self.l_queries > 0 and self.arch == "proposed"

    def country_id(self, country: str) -> int:
        try:
            return self.countries.index(country) + 1
        except ValueError:
            raise nk.ContractError(f"unregistered country {country!r}"
                                   ) from None

    def named_params(self) -> dict:
        """Every tensor by name, in walk order; the model's own dict."""
        return self._params


def gru_cell(gru: tuple, x: Tensor2, h_prev: Tensor2) -> Tensor2:
    """One gated-recurrent step on a (batch x in_dim) input."""
    return nk.gru_sequence([x], h_prev, *gru)


def encode_ili(gru: tuple, x_des: np.ndarray, h0: Tensor2) -> Tensor2:
    """Encode the (batch x N) deseasonalized window; returns final state."""
    return nk.gru_sequence(x_des.T[:, :, None], h0, *gru)


def encode_queries(gru: tuple, q: np.ndarray, h0: Tensor2) -> Tensor2:
    """Encode the L query columns with the shared GRU in one pass.

    q is (batch x N x L). The L columns run as one GRU over L*batch rows,
    where row j*batch + i holds query j of sample i; this is exact
    because every column shares the weights. Returns the (L*batch x M)
    final states in that layout.
    """
    b, n, l = q.shape
    steps = q.transpose(1, 2, 0).reshape(n, l * b, 1)
    return nk.gru_sequence(steps, nk.tile_rows(h0, l), *gru)


def attend(att: tuple, h_tau: Tensor2, h_queries) -> tuple:
    """Unscaled dot-product attention over the L query encodings.

    h_queries is `encode_queries`' (L*batch x M) block. Returns (context
    (batch x M), weights (batch x L) tensor); the weights carry no
    gradient.
    """
    return nk.dot_attention(h_tau, *att, h_queries)


def _mlp_apply(mlp: tuple, x: Tensor2) -> Tensor2:
    w1, b1, w2, b2 = mlp
    hidden = nk.tanh(nk.add_bias(nk.matmul(x, w1), b1))
    return nk.add_bias(nk.matmul(hidden, w2), b2)


def decode(decoder: tuple, output_mlp: tuple, h_enc: Tensor2,
           x_last: np.ndarray, s_out: int, teacher: np.ndarray = None,
           eps: float = 0.0, rng=None) -> Tensor2:
    """Roll the decoder S steps with scheduled sampling.

    Step inputs after the first are the teacher value with probability eps
    (per sample, per step), else the model's previous output. eps > 0
    requires both a teacher array (batch x S) and an rng.
    """
    if not 0.0 <= eps <= 1.0:
        raise nk.ContractError(f"eps must be in [0,1], got {eps}")
    if eps > 0.0 and (teacher is None or rng is None):
        raise nk.ContractError("eps > 0 requires teacher values and an rng")
    b = x_last.shape[0]
    h = gru_cell(decoder, Tensor2(x_last.reshape(b, 1)), h_enc)
    outputs = [_mlp_apply(output_mlp, h)]
    for i in range(1, s_out):
        prev = outputs[-1]
        if eps > 0.0:
            mask = (rng.random((b, 1)) < eps).astype(np.float64)
            t_col = Tensor2(teacher[:, i - 1:i])
            inp = nk.add(nk.mul(Tensor2(mask), t_col),
                         nk.mul(Tensor2(1.0 - mask), prev))
        else:
            inp = prev
        h = gru_cell(decoder, inp, h)
        outputs.append(_mlp_apply(output_mlp, h))
    return nk.hstack(outputs)


def initial_state(model: ModelParams, country: str, batch: int) -> Tensor2:
    """Country embedding row when enabled, else a zero vector."""
    if model.country_embed is None:
        return nk.zeros(batch, model.m)
    cid = model.country_id(country)
    onehot = np.zeros((batch, len(model.countries)))
    onehot[:, cid - 1] = 1.0
    return nk.matmul(Tensor2(onehot, copy=False), model.country_embed)


# every op checks its own output, so a NonFiniteError reports an overflow
# without numpy's warning
@np.errstate(over="ignore", invalid="ignore")
def forward_batch(model: ModelParams, country: str, x_des: np.ndarray,
                  q: np.ndarray, teacher: np.ndarray = None,
                  eps: float = 0.0, rng=None) -> tuple:
    """Full pipeline on a batch; returns (o_hat tensor (B x S), weights).

    x_des is (B x N), q is (B x N x L). Weights is a (B x L) numpy array
    of attention weights, or None when attention is off.
    """
    model.country_id(country)
    b = x_des.shape[0]
    h0 = initial_state(model, country, b)

    if model.arch == "gru_baseline":
        joined = np.concatenate([x_des.T[:, :, None], q.transpose(1, 0, 2)],
                                axis=2)
        h_tau = nk.gru_sequence(joined, h0, *model.ili_encoder)
    else:
        h_tau = encode_ili(model.ili_encoder, x_des, h0)

    weights = None
    if model.has_attention:
        h_queries = encode_queries(model.query_encoder, q, h0)
        ctx, w = attend(model.attention[country], h_tau, h_queries)
        h_tau = nk.hstack([h_tau, ctx])  # the fusion MLP's input
        weights = w.data
    h_enc = _mlp_apply(model.fusion, h_tau)

    o_hat = decode(model.decoder, model.output[country], h_enc,
                   x_des[:, -1], model.s_out, teacher, eps, rng)
    return o_hat, weights


# The ModelParams arguments a checkpoint's `meta` holds.
_META_KEYS = ("m", "n_in", "s_out", "l_queries", "countries", "seed",
              "use_country_embedding", "arch")


def save_checkpoint(path: str, model: ModelParams, extra: dict = None
                    ) -> None:
    """Versioned JSON checkpoint; float data round-trips bit-exactly.

    `meta.l_queries` is the model's L, the largest query count of any
    country, 0 for no queries; each country's query list is in `extra`.
    """
    doc = {
        "format": "flucast-checkpoint",
        "version": 3,
        "meta": {k: getattr(model, k) for k in _META_KEYS},
        "extra": extra or {},
        "tensors": {
            name: {"shape": [t.rows, t.cols],
                   "data": t.data.ravel().tolist()}
            for name, t in model.named_params().items()
        },
    }
    # json.dumps runs the C encoder, where json.dump streams through the
    # pure-Python one; both write the same bytes
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: str) -> tuple:
    """Rebuild a ModelParams (plus the extra dict) from a checkpoint.

    The tensors are read in the model layout's walk; nothing is drawn.
    Only what `save_checkpoint` writes is accepted. Anything else is a
    ContractError naming the file and the key or tensor: a file that is
    not JSON, another format or version, a missing `meta` key (a key it
    does not read, such as one older files hold, is ignored), a tensor
    missing, unexpected or of another shape than the model layout, or a
    tensor holding NaN or inf.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:
        raise nk.ContractError(f"{path}: not a JSON checkpoint: {e}"
                               ) from None
    if not isinstance(doc, dict) or doc.get("format") != "flucast-checkpoint":
        raise nk.ContractError(
            f"{path}: not a flucast checkpoint (format is not "
            f"'flucast-checkpoint')")
    if doc.get("version") != 3:
        raise nk.ContractError(
            f"{path}: checkpoint version {doc.get('version')!r} is not 3")
    meta, saved = doc.get("meta"), doc.get("tensors")
    for key, value in (("meta", meta), ("tensors", saved),
                       ("extra", doc.get("extra"))):
        if not isinstance(value, dict):
            raise nk.ContractError(
                f"{path}: checkpoint key {key} is missing or not an object")
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise nk.ContractError(
            f"{path}: checkpoint meta lacks {', '.join(missing)}")
    faults = []  # held back until the layout check has named every gap

    def read(name, rows, cols, _stream):
        entry, shape = saved.get(name), [rows, cols]
        got = entry.get("shape") if isinstance(entry, dict) else None
        if got != shape:
            faults.append(f"{name} shape mismatch: saved {got}, model "
                          f"layout {shape}")
            return None
        try:
            arr = np.array(entry["data"], dtype=np.float64).reshape(shape)
        except (KeyError, TypeError, ValueError):
            faults.append(f"{name} data does not fill its shape {shape}")
            return None
        if not np.all(np.isfinite(arr)):
            faults.append(f"{name} holds non-finite values")
        return Tensor2(arr, copy=False)

    try:
        model = ModelParams(**{k: meta[k] for k in _META_KEYS}, make=read)
    except (TypeError, ValueError) as e:
        raise nk.ContractError(f"{path}: checkpoint meta: {e}") from None
    params = model.named_params()
    unknown = sorted(set(saved) - set(params))
    absent = [n for n in params if n not in saved]
    if unknown or absent:
        raise nk.ContractError(
            f"{path}: checkpoint tensors do not match the model layout: "
            f"missing {absent}, unexpected {unknown}")
    if faults:
        raise nk.ContractError(f"{path}: checkpoint tensor {faults[0]}")
    return model, doc["extra"]
