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
with no bias terms in the gates. A conventional-GRU variant
(f = tanh(x U_h + (r * h) W_h)) is available behind `standard_gru`.
Each encoder runs as one `numkit.gru_sequence` tape op with fused gate
GEMMs, on its input series passed as one (T x batch x in_dim) array:
the series are data, so the op skips their gradient. The decoder, whose
inputs depend on its own outputs, calls `gru_cell` (the same op with
T = 1 and its input as a tensor, which gets a gradient) once per step.
Without a tape, in validation and inference, the op keeps no per-step
history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .numkit import Tensor2


class UnknownCountryError(KeyError):
    pass


ARCHS = ("proposed", "gru_baseline")


@dataclass
class GruParams:
    """Input-to-hidden (in_dim x M) and hidden-to-hidden (M x M) maps."""

    u_z: Tensor2
    u_r: Tensor2
    u_h: Tensor2
    w_z: Tensor2
    w_r: Tensor2
    w_h: Tensor2


@dataclass
class AttentionParams:
    w_q: Tensor2  # M x M
    w_k: Tensor2
    w_v: Tensor2


@dataclass
class Mlp:
    """Two affine layers, tanh after the first."""

    w1: Tensor2
    b1: Tensor2
    w2: Tensor2
    b2: Tensor2


def _init_gru(rng, in_dim, m):
    return GruParams(u_z=nk.glorot_uniform(rng, in_dim, m),
                     u_r=nk.glorot_uniform(rng, in_dim, m),
                     u_h=nk.glorot_uniform(rng, in_dim, m),
                     w_z=nk.glorot_uniform(rng, m, m),
                     w_r=nk.glorot_uniform(rng, m, m),
                     w_h=nk.glorot_uniform(rng, m, m))


def _init_mlp(rng, in_dim, hidden, out_dim):
    return Mlp(w1=nk.glorot_uniform(rng, in_dim, hidden),
               b1=nk.zeros(1, hidden),
               w2=nk.glorot_uniform(rng, hidden, out_dim),
               b2=nk.zeros(1, out_dim))


class ModelParams:
    """All learnable tensors, partitioned into shared and per-country groups.

    GRUs and the fusion MLP are shared across countries; attention and the
    output MLP are country-specific. The country embedding (one-hot -> M
    linear map) supplies the initial hidden state of both encoders in
    multi-task mode.
    """

    def __init__(self, m: int, n_in: int, s_out: int, l_queries: int,
                 countries, seed: int, use_queries: bool = True,
                 use_country_embedding: bool = False,
                 standard_gru: bool = False, arch: str = "proposed"):
        if arch not in ARCHS:
            raise ValueError(f"unknown arch {arch!r}")
        if use_queries and arch == "proposed" and l_queries < 1:
            raise ValueError("l_queries must be >= 1 when queries are used")
        self.m = m
        self.n_in = n_in
        self.s_out = s_out
        self.l_queries = l_queries if use_queries else 0
        self.countries = list(countries)
        self.seed = seed
        self.use_queries = use_queries
        self.use_country_embedding = use_country_embedding
        self.standard_gru = standard_gru
        self.arch = arch

        rng = nk.Rng(seed).spawn("model-init")
        ili_in = 1
        if arch == "gru_baseline" and use_queries:
            ili_in = 1 + l_queries
        self.ili_encoder = _init_gru(rng, ili_in, m)
        self.decoder = _init_gru(rng, 1, m)
        self.query_encoder = None
        fuse_in = m
        if self.has_attention:
            self.query_encoder = _init_gru(rng, 1, m)
            fuse_in = 2 * m
        self.fusion = _init_mlp(rng, fuse_in, m, m)
        self.attention = {}
        self.output = {}
        for c in self.countries:
            crng = rng.spawn(f"country/{c}")
            if self.has_attention:
                self.attention[c] = AttentionParams(
                    w_q=nk.glorot_uniform(crng, m, m),
                    w_k=nk.glorot_uniform(crng, m, m),
                    w_v=nk.glorot_uniform(crng, m, m))
            self.output[c] = _init_mlp(crng, m, m, 1)
        self.country_embed = None
        if use_country_embedding:
            self.country_embed = nk.glorot_uniform(
                rng.spawn("country-embed"), len(self.countries), m)

    @property
    def has_attention(self) -> bool:
        return self.use_queries and self.arch == "proposed"

    def country_id(self, country: str) -> int:
        try:
            return self.countries.index(country) + 1
        except ValueError:
            raise UnknownCountryError(f"unregistered country {country!r}"
                                      ) from None

    def named_params(self) -> dict:
        out = {}

        def put_gru(prefix, g):
            for f in ("u_z", "u_r", "u_h", "w_z", "w_r", "w_h"):
                out[f"{prefix}.{f}"] = getattr(g, f)

        def put_mlp(prefix, mlp):
            for f in ("w1", "b1", "w2", "b2"):
                out[f"{prefix}.{f}"] = getattr(mlp, f)

        put_gru("shared.ili_encoder", self.ili_encoder)
        if self.query_encoder is not None:
            put_gru("shared.query_encoder", self.query_encoder)
        put_gru("shared.decoder", self.decoder)
        put_mlp("shared.fusion", self.fusion)
        for c in self.countries:
            if c in self.attention:
                a = self.attention[c]
                out[f"country.{c}.attention.w_q"] = a.w_q
                out[f"country.{c}.attention.w_k"] = a.w_k
                out[f"country.{c}.attention.w_v"] = a.w_v
            put_mlp(f"country.{c}.output", self.output[c])
        if self.country_embed is not None:
            out["shared.country_embed"] = self.country_embed
        return out


def gru_cell(params: GruParams, x: Tensor2, h_prev: Tensor2,
             standard: bool = False) -> Tensor2:
    """One gated-recurrent step on a (batch x in_dim) input."""
    return encode_sequence(params, [x], h_prev, standard)


def encode_sequence(params: GruParams, steps, h0: Tensor2,
                    standard: bool = False) -> Tensor2:
    """Run the GRU over T inputs as one tape op; returns the final state.

    steps is a (T x batch x in_dim) data array, or a list of T
    (batch x in_dim) tensors when the inputs need gradients.
    """
    return nk.gru_sequence(steps, h0, params.u_z, params.u_r, params.u_h,
                           params.w_z, params.w_r, params.w_h, standard)


def encode_ili(params: GruParams, x_des: np.ndarray, h0: Tensor2,
               standard: bool = False) -> Tensor2:
    """Encode the (batch x N) deseasonalized window; returns final state."""
    return encode_sequence(params, x_des.T[:, :, None], h0, standard)


def encode_queries(params: GruParams, q: np.ndarray, h0: Tensor2,
                   standard: bool = False) -> list:
    """Encode the L query columns with the shared GRU in one pass.

    q is (batch x N x L). The L columns run as one GRU over L*batch rows,
    where row j*batch + i holds query j of sample i; this is exact
    because every column shares the weights. Returns a list of L
    (batch x M) final states.
    """
    b, n, l = q.shape
    steps = q.transpose(1, 2, 0).reshape(n, l * b, 1)
    h = encode_sequence(params, steps, nk.tile_rows(h0, l), standard)
    return [nk.row_block(h, j * b, (j + 1) * b) for j in range(l)]


def attend(att: AttentionParams, h_tau: Tensor2, h_queries) -> tuple:
    """Unscaled dot-product attention over the L query encodings.

    Returns (context (batch x M), weights (batch x L) tensor); the
    weights carry no gradient.
    """
    return nk.dot_attention(h_tau, att.w_q, att.w_k, att.w_v, h_queries)


def _mlp_apply(mlp: Mlp, x: Tensor2) -> Tensor2:
    hidden = nk.tanh(nk.add_bias(nk.matmul(x, mlp.w1), mlp.b1))
    return nk.add_bias(nk.matmul(hidden, mlp.w2), mlp.b2)


def fuse(fusion: Mlp, h_tau: Tensor2, ctx: Tensor2) -> Tensor2:
    """MLP over the concatenation of ILI encoding and attention context."""
    return _mlp_apply(fusion, nk.hstack([h_tau, ctx]))


def decode(decoder: GruParams, output_mlp: Mlp, h_enc: Tensor2,
           x_last: np.ndarray, s_out: int, teacher: np.ndarray = None,
           eps: float = 0.0, rng=None, standard: bool = False) -> Tensor2:
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
    h = gru_cell(decoder, Tensor2(x_last.reshape(b, 1)), h_enc, standard)
    outputs = [_mlp_apply(output_mlp, h)]
    for i in range(1, s_out):
        prev = outputs[-1]
        if eps > 0.0:
            mask = rng.bernoulli(eps, (b, 1))
            t_col = Tensor2(teacher[:, i - 1:i])
            inp = nk.add(nk.mul(Tensor2(mask), t_col),
                         nk.mul(Tensor2(1.0 - mask), prev))
        else:
            inp = prev
        h = gru_cell(decoder, inp, h, standard)
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
    std = model.standard_gru

    if model.arch == "gru_baseline" and model.use_queries:
        joined = np.concatenate([x_des.T[:, :, None], q.transpose(1, 0, 2)],
                                axis=2)
        h_tau = encode_sequence(model.ili_encoder, joined, h0, std)
    else:
        h_tau = encode_ili(model.ili_encoder, x_des, h0, std)

    weights = None
    if model.has_attention:
        h_queries = encode_queries(model.query_encoder, q, h0, std)
        ctx, w = attend(model.attention[country], h_tau, h_queries)
        h_enc = fuse(model.fusion, h_tau, ctx)
        weights = w.data
    else:
        h_enc = _mlp_apply(model.fusion, h_tau)

    o_hat = decode(model.decoder, model.output[country], h_enc,
                   x_des[:, -1], model.s_out, teacher, eps, rng, std)
    return o_hat, weights


# The ModelParams arguments a checkpoint's `meta` holds.
_META_KEYS = ("m", "n_in", "s_out", "l_queries", "countries", "seed",
              "use_queries", "use_country_embedding", "standard_gru", "arch")


def save_checkpoint(path: str, model: ModelParams, extra: dict = None
                    ) -> None:
    """Versioned JSON checkpoint; float data round-trips bit-exactly.

    `meta.l_queries` is the model's L, the largest query count of any
    country; the query list of each country belongs in `extra`.
    """
    doc = {
        "format": "flucast-checkpoint",
        "version": 2,
        "meta": {k: getattr(model, k) for k in _META_KEYS},
        "extra": extra or {},
        "tensors": {
            name: {"shape": [t.rows, t.cols],
                   "data": [float(f"{v:.17g}") for v in t.data.ravel()]}
            for name, t in model.named_params().items()
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path: str) -> tuple:
    """Rebuild a ModelParams (plus the extra dict) from a checkpoint.

    Only what `save_checkpoint` writes is accepted. Anything else is a
    ContractError naming the file and the key or tensor: a file that is
    not JSON, another format or version, a missing `meta` key, a tensor
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
    if doc.get("version") != 2:
        raise nk.ContractError(
            f"{path}: checkpoint version {doc.get('version')!r} is not 2")
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
    try:
        model = ModelParams(**{k: meta[k] for k in _META_KEYS})
    except (TypeError, ValueError) as e:
        raise nk.ContractError(f"{path}: checkpoint meta: {e}") from None
    params = model.named_params()
    unknown = sorted(set(saved) - set(params))
    absent = [n for n in params if n not in saved]
    if unknown or absent:
        raise nk.ContractError(
            f"{path}: checkpoint tensors do not match the model layout: "
            f"missing {absent}, unexpected {unknown}")
    for name, t in params.items():
        entry, shape = saved[name], [t.rows, t.cols]
        if not isinstance(entry, dict) or entry.get("shape") != shape:
            got = entry.get("shape") if isinstance(entry, dict) else None
            raise nk.ContractError(
                f"{path}: checkpoint tensor {name} shape mismatch: saved "
                f"{got}, model layout {shape}")
        try:
            arr = np.array(entry["data"], dtype=np.float64).reshape(shape)
        except (KeyError, TypeError, ValueError):
            raise nk.ContractError(
                f"{path}: checkpoint tensor {name} data does not fill its "
                f"shape {shape}") from None
        if not np.all(np.isfinite(arr)):
            raise nk.ContractError(
                f"{path}: checkpoint tensor {name} holds non-finite values")
        t.data = arr
    return model, doc["extra"]
