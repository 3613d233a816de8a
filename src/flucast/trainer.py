"""Training loops: loss, batching, scheduled-sampling decay, early stopping,
and the (learning rate x hidden size) grid, for single- and multi-task modes.

Multi-task batches hold one country at a time: a country is drawn
uniformly, then a batch of its windows. GRUs and the fusion MLP are
shared; attention and output layers are per-country; the country
embedding seeds both encoders' initial state.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fluenet
from . import numkit as nk
from .numkit import Tensor2


class TrainingError(ValueError):
    pass


@dataclass
class TrainConfig:
    countries: list
    n_in: int = 52
    s_out: int = 5
    lr_grid: tuple = (0.001, 0.01, 0.1, 1.0)
    m_grid: tuple = (8, 16, 32, 64)
    max_epochs: int = 300
    patience: int = 20
    batch_size: int = 32
    seed: int = 0
    mode: str = "single"
    use_queries: bool = True
    use_country_embedding: bool = True
    standard_gru: bool = False
    arch: str = "proposed"

    def __post_init__(self):
        if not self.lr_grid or not self.m_grid:
            raise TrainingError("hyperparameter grids must be nonempty")
        if not all(lr > 0 for lr in self.lr_grid):
            raise TrainingError(f"learning rates must be positive, got "
                                f"{list(self.lr_grid)}")
        for name, value in (("m_grid", min(self.m_grid)),
                            ("max_epochs", self.max_epochs),
                            ("n_in", self.n_in), ("s_out", self.s_out),
                            ("patience", self.patience),
                            ("batch_size", self.batch_size)):
            if value < 1:
                raise TrainingError(f"{name} must be >= 1, got {value}")
        if self.arch not in fluenet.ARCHS:
            raise TrainingError(f"unknown arch {self.arch!r}")
        if self.mode not in ("single", "multi"):
            raise TrainingError(f"unknown mode {self.mode!r}")
        if self.mode == "multi" and len(self.countries) < 2:
            raise TrainingError("multi mode needs at least 2 countries")


@dataclass
class TrainLog:
    lr: float = 0.0
    m: int = 0
    entries: list = field(default_factory=list)  # per-epoch dicts
    chosen_epoch: int = 0
    wall_time: float = 0.0
    diverged_grid_points: list = field(default_factory=list)

    def write_csv(self, path: str, countries) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["epoch", "train_mse"]
                       + [f"val_mse_{c}" for c in countries])
            for e in self.entries:
                w.writerow([e["epoch"], repr(e["train_mse"])]
                           + [repr(e["val_mse"][c]) for c in countries])


def mse_loss(o_hat: Tensor2, o: np.ndarray) -> Tensor2:
    """Mean over batch and horizon of squared error, as a 1x1 tensor."""
    target = Tensor2(o)
    if o_hat.shape != target.shape:
        raise nk.ShapeError(
            f"mse_loss shape mismatch: {o_hat.shape} vs {target.shape}")
    d = nk.sub(o_hat, target)
    return nk.mean_all(nk.mul(d, d))


def sample_country_batch(rng: nk.Rng, datasets: dict, batch_size: int
                         ) -> tuple:
    """Uniform country, then a single-country batch without replacement."""
    countries = sorted(datasets)
    for c in countries:
        if not datasets[c]:
            raise TrainingError(f"no training samples for country {c}")
    c = countries[int(rng.integers(0, len(countries)))]
    pool = datasets[c]
    if len(pool) >= batch_size:
        idx = rng.choice_without_replacement(len(pool), batch_size)
    else:
        idx = rng.integers(0, len(pool), size=batch_size)
    return c, [pool[i] for i in idx]


def epsilon_at(epoch: int, max_epochs: int) -> float:
    """Linear decay from 1 at epoch 1 to 0 at the final epoch."""
    if not 1 <= epoch <= max_epochs:
        raise TrainingError(f"epoch {epoch} outside 1..{max_epochs}")
    if max_epochs == 1:
        return 0.0
    return min(1.0, max(0.0, 1.0 - (epoch - 1) / (max_epochs - 1)))


def _batch_arrays(samples):
    x = np.stack([s.x_des for s in samples])
    q = np.stack([s.q for s in samples])
    o = np.stack([s.o for s in samples])
    return x, q, o


def _validation_mse(model, data) -> dict:
    out = {}
    for c in sorted(data):
        val = data[c]["val"]
        if not val:
            raise TrainingError(f"no validation samples for country {c}")
        x, q, o = _batch_arrays(val)
        o_hat, _ = fluenet.forward_batch(model, c, x, q)
        out[c] = float(np.mean((o_hat.data - o) ** 2))
    return out


def _snapshot(model):
    return {n: t.data.copy() for n, t in model.named_params().items()}


def _restore(model, snap):
    for n, t in model.named_params().items():
        t.data = snap[n].copy()


def _query_count(config: TrainConfig, data: dict) -> int:
    """The largest L of any country; gru_baseline needs one L for all."""
    for c in sorted(data):
        if not data[c]["train"]:
            raise TrainingError(f"no training samples for country {c}")
    counts = {c: d["train"][0].q.shape[1] for c, d in data.items()}
    if (config.arch == "gru_baseline" and config.use_queries
            and len(set(counts.values())) > 1):
        raise TrainingError(
            "gru_baseline needs the same number of queries in every "
            "country, got " + ", ".join(f"{c}: L={counts[c]}"
                                        for c in sorted(counts)))
    return max(counts.values())


def _train_step(model, adam, country, batch, eps, rng) -> float:
    """One Adam step on one batch; returns the batch loss.

    The tape goes out of scope on return, so the GRU histories it holds
    go back to the buffer pool before validation runs.
    """
    x, q, o = _batch_arrays(batch)
    with nk.GradTape() as tape:
        o_hat, _ = fluenet.forward_batch(model, country, x, q, teacher=o,
                                         eps=eps, rng=rng)
        loss = mse_loss(o_hat, o)
        nk.backward(tape, loss)
    adam.step(model.named_params())
    return loss.item()


def _train_one(config: TrainConfig, data: dict, l_queries: int, lr: float,
               m: int, grid_index: int) -> tuple:
    """Train a single grid point; returns (model, log, best val mse)."""
    root = nk.Rng(config.seed).spawn(f"grid/{grid_index}")
    model = fluenet.ModelParams(
        m=m, n_in=config.n_in, s_out=config.s_out, l_queries=l_queries,
        countries=sorted(data), seed=root.spawn("init").seed,
        use_queries=config.use_queries,
        use_country_embedding=(config.mode == "multi"
                               and config.use_country_embedding),
        standard_gru=config.standard_gru, arch=config.arch)
    adam = nk.Adam(lr)
    batch_rng = root.spawn("batches")
    sample_rng = root.spawn("scheduled-sampling")
    train_sets = {c: data[c]["train"] for c in sorted(data)}
    total = sum(len(v) for v in train_sets.values())
    steps_per_epoch = max(1, math.ceil(total / config.batch_size))

    log = TrainLog(lr=lr, m=m)
    best_val = math.inf
    best_snap = None
    since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        eps = epsilon_at(epoch, config.max_epochs)
        losses = []
        for _ in range(steps_per_epoch):
            country, batch = sample_country_batch(
                batch_rng, train_sets, config.batch_size)
            losses.append(_train_step(model, adam, country, batch, eps,
                                      sample_rng))
        val = _validation_mse(model, data)
        avg_val = float(np.mean(list(val.values())))
        log.entries.append({"epoch": epoch,
                            "train_mse": float(np.mean(losses)),
                            "val_mse": val})
        if avg_val < best_val:
            best_val = avg_val
            best_snap = _snapshot(model)
            log.chosen_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    _restore(model, best_snap)
    return model, log, best_val


def fit(config: TrainConfig, data: dict) -> tuple:
    """Grid search over (lr, M); returns the best (ModelParams, TrainLog).

    `data` maps country -> {"train": [WindowSample], "val": [WindowSample]}.
    Divergent grid points (non-finite values during training) are skipped.
    """
    if config.mode == "single" and len(data) != 1:
        raise TrainingError("single mode expects exactly one country")
    if config.mode == "multi" and len(data) < 2:
        raise TrainingError("multi mode expects at least two countries")
    l_queries = _query_count(config, data)
    start = time.monotonic()
    best = None
    diverged = []
    for gi, (lr, m) in enumerate(itertools.product(config.lr_grid,
                                                   config.m_grid)):
        try:
            model, log, val = _train_one(config, data, l_queries, lr, m,
                                         gi)
        except nk.NonFiniteError:
            diverged.append({"lr": lr, "m": m})
            continue
        if best is None or val < best[2]:
            best = (model, log, val)
    if best is None:
        raise TrainingError("every grid point diverged")
    model, log, _ = best
    log.diverged_grid_points = diverged
    log.wall_time = time.monotonic() - start
    return model, log
