"""Training loops: loss, batching, scheduled-sampling decay, early stopping,
and the (learning rate x hidden size) grid. One country trains a
single-task model; two or more train one multi-task model.

Multi-task batches hold one country at a time: a country is drawn
uniformly, then a batch of its windows. GRUs and the fusion MLP are
shared; attention and output layers are per-country; the country
embedding seeds both encoders' initial state.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import types
from dataclasses import dataclass, field

import numpy as np

from . import Error, datahub, fluenet
from . import numkit as nk
from .numkit import Tensor2


class TrainingError(Error):
    pass


@dataclass
class TrainConfig:
    """Every training setting; `cli._train_config` reads and checks them."""

    n_in: int
    s_out: int
    lr_grid: tuple
    m_grid: tuple
    max_epochs: int
    patience: int
    batch_size: int
    seed: int
    use_country_embedding: bool
    arch: str


@dataclass
class TrainLog:
    lr: float = 0.0
    m: int = 0
    entries: list = field(default_factory=list)  # per-epoch dicts
    chosen_epoch: int = 0
    diverged_grid_points: list = field(default_factory=list)

    def write_csv(self, path: str, countries) -> None:
        datahub.write_csv(
            path, ["epoch", "train_mse"] + [f"val_mse_{c}" for c in countries],
            ([e["epoch"], repr(e["train_mse"])]
             + [repr(e["val_mse"][c]) for c in countries]
             for e in self.entries))


def mse_loss(o_hat: Tensor2, o: np.ndarray) -> Tensor2:
    """Mean over batch and horizon of squared error, as a 1x1 tensor."""
    target = Tensor2(o)
    if o_hat.shape != target.shape:
        raise nk.ContractError(
            f"mse_loss shape mismatch: {o_hat.shape} vs {target.shape}")
    d = nk.sub(o_hat, target)
    return nk.mean_all(nk.mul(d, d))


def sample_country_batch(rng: np.random.Generator, datasets: dict,
                         batch_size: int) -> tuple:
    """Uniform country, then a single-country batch without replacement."""
    countries = sorted(datasets)
    for c in countries:
        if not datasets[c]:
            raise TrainingError(f"no training samples for country {c}")
    c = countries[int(rng.integers(0, len(countries)))]
    pool = datasets[c]
    if len(pool) >= batch_size:
        idx = rng.choice(len(pool), batch_size, replace=False)
    else:
        idx = rng.integers(0, len(pool), size=batch_size)
    return c, pool.take(idx)


def epsilon_at(epoch: int, max_epochs: int) -> float:
    """Linear decay from 1 at epoch 1 to 0 at the final epoch."""
    if not 1 <= epoch <= max_epochs:
        raise TrainingError(f"epoch {epoch} outside 1..{max_epochs}")
    if max_epochs == 1:
        return 0.0
    return min(1.0, max(0.0, 1.0 - (epoch - 1) / (max_epochs - 1)))


def _validation_mse(model, data) -> dict:
    out = {}
    for c in sorted(data):
        val = data[c]["val"]
        if not val:
            raise TrainingError(f"no validation samples for country {c}")
        o_hat, _ = fluenet.forward_batch(model, c, val.x_des, val.q)
        out[c] = float(np.mean((o_hat.data - val.o) ** 2))
    return out


def _snapshot(model):
    return {n: t.data.copy() for n, t in model.named_params().items()}


def _restore(model, snap):
    for n, t in model.named_params().items():
        t.data = snap[n].copy()


def _query_count(config: TrainConfig, data: dict) -> int:
    """The largest L of any country, the model's L (0: no queries);
    gru_baseline needs one L for all."""
    for c in sorted(data):
        if not data[c]["train"]:
            raise TrainingError(f"no training samples for country {c}")
    counts = {c: d["train"].q.shape[2] for c, d in data.items()}
    if config.arch == "gru_baseline" and len(set(counts.values())) > 1:
        raise TrainingError(
            "gru_baseline needs the same number of queries in every "
            "country, got " + ", ".join(f"{c}: L={counts[c]}"
                                        for c in sorted(counts)))
    return max(counts.values())


def _train_step(model, adam, country, batch, eps, rng) -> float:
    """One Adam step on one batch; returns the batch loss.

    The tape goes out of scope on return, so the GRU histories it holds
    are freed before validation runs.
    """
    with nk.GradTape() as tape:
        o_hat, _ = fluenet.forward_batch(model, country, batch.x_des,
                                         batch.q, teacher=batch.o, eps=eps,
                                         rng=rng)
        loss = mse_loss(o_hat, batch.o)
        nk.backward(tape, loss)
    adam.step(model.named_params())
    return loss.item()


def _train_one(config: TrainConfig, data: dict, l_queries: int, lr: float,
               m: int, grid_index: int) -> tuple:
    """Train a single grid point; returns (model, log, best val mse)."""
    root = nk.derive_seed(config.seed, f"grid/{grid_index}")
    model = fluenet.ModelParams(
        m=m, n_in=config.n_in, s_out=config.s_out, l_queries=l_queries,
        countries=sorted(data), seed=nk.derive_seed(root, "init"),
        use_country_embedding=len(data) > 1 and config.use_country_embedding,
        arch=config.arch)
    adam = nk.Adam(lr)
    batch_rng = np.random.default_rng(nk.derive_seed(root, "batches"))
    sample_rng = np.random.default_rng(
        nk.derive_seed(root, "scheduled-sampling"))
    train_sets = {c: data[c]["train"] for c in sorted(data)}
    total = sum(len(v) for v in train_sets.values())
    steps_per_epoch = max(1, math.ceil(total / config.batch_size))

    log = TrainLog(lr=lr, m=m)
    best_val = math.inf
    best_snap = None
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
        elif epoch - log.chosen_epoch >= config.patience:
            break
    _restore(model, best_snap)
    return model, log, best_val


def _drain(config, data, l_queries, points, next_point) -> dict:
    """Train the grid points taken from the counter `next_point` until
    none is left; returns {grid index: result}.

    A result is the point's (model, log, best val mse), or the
    NonFiniteError that ended it. numpy's overflow warnings are off: the
    forward ops' own checks report a divergence, wherever the overflow
    started. Any other error is kept as the point's result and empties
    the counter, so no process starts another point. Every point before
    it in grid order was taken already and still finishes.
    """
    done = {}
    while True:
        with next_point.get_lock():
            gi = next_point.value
            next_point.value += 1
        if gi >= len(points):
            return done
        lr, m = points[gi]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                done[gi] = _train_one(config, data, l_queries, lr, m, gi)
        except nk.NonFiniteError as e:  # its frames hold the point's tape
            done[gi] = e.with_traceback(None)
        except Exception as e:  # re-raised by `fit` in grid order
            done[gi] = e
            with next_point.get_lock():
                next_point.value = len(points)
            return done


def _send_drained(conn, *args) -> None:
    """A child's work: send its `_drain` results, each error carrying the
    child's traceback as its cause."""
    from multiprocessing.pool import ExceptionWithTraceback

    conn.send({gi: ExceptionWithTraceback(r, r.__traceback__)
               if isinstance(r, Exception) else r
               for gi, r in _drain(*args).items()})
    conn.close()


def _train_in_pool(config, data, l_queries, points, workers) -> dict:
    """Train the grid in `workers` processes, this one included.

    Children are forked, so they share the data without copying it, and
    each sends its results back through a pipe. Every child is joined,
    or terminated and joined, before this returns or raises.
    """
    # Children seed their streams through nk.derive_seed, which imports
    # hashlib; loaded before the fork, it is shared rather than loaded
    # (with OpenSSL) by each child, ~1-2 MB of resident memory apiece.
    import hashlib
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    next_point = ctx.Value("q", 0)
    children = []
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_drained, daemon=True, args=(
                send, config, data, l_queries, points, next_point))
            child.start()
            send.close()
            children.append((child, recv))
        done = _drain(config, data, l_queries, points, next_point)
        for child, recv in children:
            try:
                done.update(recv.recv())
            except EOFError:
                child.join()
                raise TrainingError(f"a grid-point process exited with code "
                                    f"{child.exitcode}") from None
            child.join()
        return done
    finally:
        for child, recv in children:
            recv.close()
            child.terminate()  # a no-op once the child is joined
            child.join()


def _grid_results(config, data, l_queries, points) -> dict:
    """{grid index: `_drain` result}; after an error other than
    divergence, later points may be missing.

    The points train in min(usable cores, points) processes, with
    OpenBLAS on one thread while they run. With one process, or no
    OpenBLAS to set, `_drain` runs here alone on a plain counter: no
    process starts and `multiprocessing` is not imported.
    """
    workers = min(len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else 1, len(points))
    if workers > 1:
        with nk.one_blas_thread() as one_thread:
            if one_thread:
                return _train_in_pool(config, data, l_queries, points,
                                      workers)
    return _drain(config, data, l_queries, points, types.SimpleNamespace(
        value=0, get_lock=contextlib.nullcontext))


def fit(config: TrainConfig, data: dict) -> tuple:
    """Grid search over (lr, M); returns the best (ModelParams, TrainLog).

    `data` maps country -> {"train": Windows, "val": Windows}.
    Divergent grid points (non-finite values during training) are skipped.
    Points are compared in grid order, so the result does not depend on
    how many processes trained them.
    """
    if not data:
        raise TrainingError("no country to train")
    l_queries = _query_count(config, data)
    points = list(itertools.product(config.lr_grid, config.m_grid))
    best = None
    diverged = []
    done = _grid_results(config, data, l_queries, points)
    for gi in range(len(done)):  # taken in grid order, so no gap
        (lr, m), result = points[gi], done[gi]
        if isinstance(result, nk.NonFiniteError):
            diverged.append({"lr": lr, "m": m})
        elif isinstance(result, Exception):
            raise result
        elif best is None or result[2] < best[2]:
            best = result
    if best is None:
        raise TrainingError("every grid point diverged")
    model, log, _ = best
    log.diverged_grid_points = diverged
    return model, log
