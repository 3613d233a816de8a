import gc
import os
import select
import subprocess
import sys
import time

import numpy as np
import pytest

from flucast import datahub, trainer
from flucast import numkit as nk
from flucast.numkit import Tensor2


def make_windows(rng, count, n_in=6, s_out=2, l=1,
                 learnable=False):
    rows = []
    for _ in range(count):
        x = rng.normal(0, 1, n_in)
        q = rng.uniform(0, 1, (n_in, l))
        if learnable:
            o = np.full(s_out, float(x[-1]))
        else:
            o = rng.normal(0, 1, s_out)
        rows.append((x, q, o))
    x, q, o = (np.stack(a) for a in zip(*rows))
    return datahub.Windows(
        last_week=1000 + np.arange(count), x_des=x, q=q, y_raw=o + 0.5,
        o=o, x_seas=np.full(o.shape, 0.5))


def make_data(countries, n_train=12, n_val=4, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return {c: {"train": make_windows(rng, n_train, **kw),
                "val": make_windows(rng, n_val, **kw)}
            for c in countries}


class TestMseLoss:
    def test_hand_value(self):
        o_hat = Tensor2(np.array([[2.0, 3.0]]))
        assert trainer.mse_loss(o_hat, np.array([[1.0, 1.0]])).item() == 2.5

    def test_zero_at_perfect_fit(self):
        o = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert trainer.mse_loss(Tensor2(o), o).item() == 0.0

    def test_mean_over_batch_and_horizon(self):
        o_hat = Tensor2(np.array([[1.0, 2.0], [0.0, 1.0]]))
        o = np.zeros((2, 2))
        assert trainer.mse_loss(o_hat, o).item() == (1 + 4 + 0 + 1) / 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(nk.ContractError):
            trainer.mse_loss(Tensor2(np.ones((1, 2))), np.ones((1, 3)))


class TestEpsilonSchedule:
    def test_endpoints(self):
        assert trainer.epsilon_at(1, 300) == 1.0
        assert trainer.epsilon_at(300, 300) == 0.0

    def test_midpoint_of_300(self):
        assert abs(trainer.epsilon_at(151, 300) - 0.4983) < 5e-4
        assert trainer.epsilon_at(151, 300) == 1.0 - 150.0 / 299.0

    def test_monotone_decay(self):
        vals = [trainer.epsilon_at(e, 50) for e in range(1, 51)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_single_epoch_run_uses_zero(self):
        assert trainer.epsilon_at(1, 1) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(trainer.TrainingError):
            trainer.epsilon_at(0, 10)
        with pytest.raises(trainer.TrainingError):
            trainer.epsilon_at(11, 10)


class TestCountryBatches:
    def test_batch_never_mixes_countries(self):
        data = make_data(["AU", "JP", "US"], n_train=20)
        sets = {c: data[c]["train"] for c in data}
        rng = np.random.default_rng(nk.derive_seed(5, "batches"))
        for _ in range(50):
            c, batch = trainer.sample_country_batch(rng, sets, 8)
            assert len(batch) == 8
            assert all((sets[c].x_des == row).all(axis=1).any()
                       for row in batch.x_des)

    def test_no_repeats_when_pool_is_large_enough(self):
        data = make_data(["US"], n_train=30)
        sets = {"US": data["US"]["train"]}
        rng = np.random.default_rng(nk.derive_seed(6, "batches"))
        _, batch = trainer.sample_country_batch(rng, sets, 10)
        assert len(set(batch.last_week.tolist())) == 10

    def test_country_draw_is_uniform(self):
        data = make_data(["AU", "JP", "US"], n_train=4)
        sets = {c: data[c]["train"] for c in data}
        rng = np.random.default_rng(nk.derive_seed(7, "batches"))
        n = 10000
        counts = {c: 0 for c in sets}
        for _ in range(n):
            c, _ = trainer.sample_country_batch(rng, sets, 2)
            counts[c] += 1
        p = 1.0 / 3.0
        sigma = (n * p * (1 - p)) ** 0.5
        for c in counts:
            assert abs(counts[c] - n * p) < 5 * sigma

    def test_empty_pool_rejected(self):
        empty = make_windows(np.random.default_rng(0), 1).take([])
        with pytest.raises(trainer.TrainingError):
            trainer.sample_country_batch(np.random.default_rng(0),
                                         {"US": empty}, 2)


class TestConfig:
    def test_empty_grid_rejected(self):
        with pytest.raises(trainer.TrainingError):
            trainer.TrainConfig(lr_grid=())


def quick_config(**kw):
    args = dict(n_in=6, s_out=2, lr_grid=(0.01,), m_grid=(8,),
                max_epochs=40, patience=40, batch_size=8, seed=3)
    args.update(kw)
    return trainer.TrainConfig(**args)


class TestFit:
    def test_overfits_a_learnable_toy_problem(self):
        rng = np.random.default_rng(0)
        samples = make_windows(rng, 8, learnable=True)
        data = {"US": {"train": samples, "val": samples}}
        config = quick_config(max_epochs=250, patience=250)
        model, log = trainer.fit(config, data)
        first = log.entries[0]["train_mse"]
        best_val = min(np.mean(list(e["val_mse"].values()))
                       for e in log.entries)
        assert best_val < 0.01 * first

    def test_reproducible_end_to_end(self):
        data = make_data(["US"], seed=9)
        config = quick_config(max_epochs=6)
        model_a, log_a = trainer.fit(config, data)
        model_b, log_b = trainer.fit(config, make_data(["US"], seed=9))
        pa, pb = model_a.named_params(), model_b.named_params()
        assert set(pa) == set(pb)
        assert all(np.array_equal(pa[n].data, pb[n].data) for n in pa)
        assert log_a.entries == log_b.entries
        assert log_a.chosen_epoch == log_b.chosen_epoch

    def test_restores_best_epoch_weights(self):
        data = make_data(["US"], seed=10)
        config = quick_config(max_epochs=15)
        model, log = trainer.fit(config, data)
        avg = [float(np.mean(list(e["val_mse"].values())))
               for e in log.entries]
        assert log.chosen_epoch == int(np.argmin(avg)) + 1
        got = trainer._validation_mse(model, data)
        assert abs(float(np.mean(list(got.values()))) - min(avg)) < 1e-12

    def test_early_stopping_bounds_epochs(self):
        data = make_data(["US"], seed=11)
        config = quick_config(max_epochs=60, patience=3)
        _, log = trainer.fit(config, data)
        assert len(log.entries) <= 60
        assert len(log.entries) == log.chosen_epoch + 3 or \
            len(log.entries) == 60

    def test_diverged_grid_point_is_skipped(self):
        data = make_data(["US"], seed=12)
        config = quick_config(lr_grid=(0.01, 1e160), max_epochs=4,
                              patience=4)
        model, log = trainer.fit(config, data)
        assert log.diverged_grid_points == [{"lr": 1e160, "m": 8}]
        assert log.lr == 0.01

    def test_all_diverged_raises(self):
        data = make_data(["US"], seed=13)
        config = quick_config(lr_grid=(1e160,), max_epochs=4, patience=4)
        with pytest.raises(trainer.TrainingError, match="diverged"):
            trainer.fit(config, data)

    def test_grid_prefers_lower_validation_mse(self):
        data = make_data(["US"], seed=14, learnable=True)
        config = quick_config(lr_grid=(1e-7, 0.02), max_epochs=30,
                              patience=30)
        _, log = trainer.fit(config, data)
        assert log.lr == 0.02

    def test_multi_mode_shares_and_specializes(self):
        data = make_data(["JP", "US"], n_train=8, n_val=4, seed=15)
        config = quick_config(max_epochs=5)
        model, log = trainer.fit(config, data)
        assert model.country_embed is not None
        assert set(model.attention) == {"JP", "US"}
        assert all(set(e["val_mse"]) == {"JP", "US"} for e in log.entries)

    def test_single_mode_never_uses_embedding(self):
        data = make_data(["US"], seed=16)
        config = quick_config(max_epochs=3, use_country_embedding=True)
        model, _ = trainer.fit(config, data)
        assert model.country_embed is None

    def test_no_tape_alive_during_validation(self, monkeypatch):
        # A live tape keeps its GRU histories allocated.
        validation_mse = trainer._validation_mse
        tapes = []

        def counted(model, data):
            gc.collect()
            tapes.append(sum(isinstance(o, nk.GradTape)
                             for o in gc.get_objects()))
            return validation_mse(model, data)

        monkeypatch.setattr(trainer, "_validation_mse", counted)
        trainer.fit(quick_config(max_epochs=2), make_data(["US"], seed=17))
        assert tapes == [0, 0]

    def test_no_country_rejected(self):
        with pytest.raises(trainer.TrainingError, match="no country"):
            trainer.fit(quick_config(max_epochs=2), {})


class TestTrainLogCsv:
    def test_layout_and_determinism(self, tmp_path):
        log = trainer.TrainLog(lr=0.01, m=8)
        log.entries = [{"epoch": 1, "train_mse": 0.5,
                        "val_mse": {"JP": 0.25, "US": 0.125}},
                       {"epoch": 2, "train_mse": 0.4,
                        "val_mse": {"JP": 0.2, "US": 0.1}}]
        path = tmp_path / "log.csv"
        log.write_csv(str(path), ["JP", "US"])
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "epoch,train_mse,val_mse_JP,val_mse_US"
        assert lines[1] == "1,0.5,0.25,0.125"
        log.write_csv(str(path), ["JP", "US"])
        assert path.read_text(encoding="utf-8") == text


def cores(monkeypatch, n):
    """Make `n` cores usable as trainer sees them."""
    monkeypatch.setattr(trainer.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class ChildFirst:
    """Children report each grid index they take through a pipe, and once
    children were started, the parent starts taking points only after a
    child has taken point 0. A lone process drains without waiting.

    `train_one` is the function children and parent train a point with.
    """

    def __init__(self, monkeypatch):
        self.parent = os.getpid()
        self.read, self.write = os.pipe()
        self.first = b""
        self.pooled = False
        self.train_one = trainer._train_one
        drain, pool = trainer._drain, trainer._train_in_pool

        def reported(*args):
            if os.getpid() != self.parent:
                os.write(self.write, bytes([args[-1]]))
            return self.train_one(*args)

        def in_pool(*args):
            self.pooled = True
            try:
                return pool(*args)
            finally:
                self.pooled = False

        def drain_after_child(*args):
            if os.getpid() == self.parent and self.pooled:
                ready, _, _ = select.select([self.read], [], [], 60)
                assert ready, "no child took a grid point"
                self.first += os.read(self.read, 1)
            return drain(*args)

        monkeypatch.setattr(trainer, "_train_one", reported)
        monkeypatch.setattr(trainer, "_drain", drain_after_child)
        monkeypatch.setattr(trainer, "_train_in_pool", in_pool)

    def child_points(self) -> list:
        """Grid indices the children trained, in the order they took them."""
        os.close(self.write)
        with os.fdopen(self.read, "rb") as f:
            return list(self.first + f.read())


@pytest.fixture
def child_first(monkeypatch):
    return ChildFirst(monkeypatch)


def fit_outcome(config, data):
    model, log = trainer.fit(config, data)
    return ({n: t.data.tobytes() for n, t in model.named_params().items()},
            log.entries, log.chosen_epoch, log.diverged_grid_points,
            (log.lr, log.m))


class TestSeedChain:
    """Grid point 0's init seed and the first draw of its `batches` and
    `scheduled-sampling` streams, recorded once, as the training loop
    sees them: an edit that moves a draw fails here."""

    PINNED = {
        0: (17739463486159703637, 4215005529268449423, 1179892060925228672),
        -1: (16915221829365036993, 4220305149549939773, 579736143230485064),
    }

    @pytest.mark.parametrize("seed", [0, -1])
    def test_first_draws_of_grid_point_zero(self, monkeypatch, seed):
        class Seen(Exception):
            pass

        seen = []

        def first_batch(rng, datasets, batch_size):
            seen.append(int(rng.integers(0, 2 ** 62)))
            return "JP", None

        def first_step(model, adam, country, batch, eps, rng):
            seen[:0] = [model.seed]
            seen.append(int(rng.integers(0, 2 ** 62)))
            raise Seen()

        monkeypatch.setattr(trainer, "sample_country_batch", first_batch)
        monkeypatch.setattr(trainer, "_train_step", first_step)
        cores(monkeypatch, 1)
        with pytest.raises(Seen):
            trainer.fit(quick_config(seed=seed), make_data(["JP", "US"]))
        assert tuple(seen) == self.PINNED[seed]


class TestGridPool:
    """Grid points train in min(usable cores, points) processes."""

    GRID = dict(lr_grid=(1e160, 0.01, 0.02), max_epochs=6, patience=6)

    def test_one_and_two_workers_agree_bitwise(self, monkeypatch,
                                                child_first):
        data = make_data(["JP", "US"], n_train=16, seed=21)
        config = quick_config(**self.GRID)
        cores(monkeypatch, 1)
        sequential = fit_outcome(config, data)
        cores(monkeypatch, 2)
        pooled = fit_outcome(config, data)
        assert child_first.child_points()[0] == 0  # diverges in a child
        assert sequential[3] == [{"lr": 1e160, "m": 8}]
        assert pooled == sequential
        assert list(pooled[0]) == list(sequential[0])
        assert_no_child_left()

    def test_child_error_reaches_the_caller(self, monkeypatch, child_first):
        def fail(*args):
            if os.getpid() != child_first.parent:
                raise trainer.TrainingError("no data in this child")
            raise nk.NonFiniteError("diverged in the parent")

        child_first.train_one = fail
        cores(monkeypatch, 2)
        with pytest.raises(trainer.TrainingError) as caught:
            trainer.fit(quick_config(**self.GRID), make_data(["US"]))
        assert type(caught.value) is trainer.TrainingError
        assert str(caught.value) == "no data in this child"
        assert child_first.child_points()[0] == 0
        assert_no_child_left()

    def test_interrupted_parent_terminates_the_children(self, monkeypatch,
                                                        child_first):
        class Interrupt(BaseException):
            pass

        def stall_or_interrupt(*args):
            if os.getpid() != child_first.parent:
                time.sleep(60)
            raise Interrupt()

        child_first.train_one = stall_or_interrupt
        cores(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(Interrupt):
            trainer.fit(quick_config(**self.GRID), make_data(["US"]))
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_one_core_error_stops_the_grid(self, monkeypatch):
        taken = []

        def fail(*args):
            taken.append(args[-1])
            raise trainer.TrainingError("no data at the first point")

        monkeypatch.setattr(trainer, "_train_one", fail)
        cores(monkeypatch, 1)
        with pytest.raises(trainer.TrainingError) as caught:
            trainer.fit(quick_config(**self.GRID), make_data(["US"]))
        assert type(caught.value) is trainer.TrainingError
        assert str(caught.value) == "no data at the first point"
        assert taken == [0]

    def test_one_core_imports_no_multiprocessing(self):
        code = "\n".join([
            "import os, sys",
            "import numpy as np",
            "from flucast import datahub, trainer",
            "os.sched_getaffinity = lambda pid: {0}",
            "rng = np.random.default_rng(0)",
            "def windows(n):",
            "    x, o = rng.normal(size=(n, 6)), rng.normal(size=(n, 2))",
            "    q = rng.uniform(size=(n, 6, 1))",
            "    return datahub.Windows(np.arange(n), x, q, o, o, o)",
            "config = trainer.TrainConfig(n_in=6, s_out=2, m_grid=(4,),",
            "    lr_grid=(0.01, 0.02), max_epochs=1, batch_size=4)",
            "data = {'US': {'train': windows(8), 'val': windows(4)}}",
            "trainer.fit(config, data)",
            "print('multiprocessing' in sys.modules)"])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        assert out.stdout == "False\n"

    @pytest.mark.parametrize("n_cores, lr_grid", [(2, (0.01,)),
                                                  (1, (0.01, 0.02))],
                             ids=["one_point", "one_core"])
    def test_starts_no_process(self, monkeypatch, n_cores, lr_grid):
        cores(monkeypatch, n_cores)
        monkeypatch.setattr(trainer.os, "fork",
                            lambda: pytest.fail("a process started"))
        monkeypatch.setattr(nk, "one_blas_thread",
                            lambda: pytest.fail("BLAS threads were set"))
        _, log = trainer.fit(quick_config(lr_grid=lr_grid, max_epochs=2),
                             make_data(["US"], seed=22))
        assert len(log.entries) == 2
