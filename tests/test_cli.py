import argparse
import ast
import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

from flucast import cli, datahub, decompose, evalbench, querysel, trainer
from flucast.numkit import Rng
from ili_csv import series_rows, write_ili_csv

START = "2010-W01"
WEEKS = 280
TEST_LEN = 40
QUERIES = ["flu fever", "cold remedy"]


def synth_series(rng, weeks, phase=0.0):
    i = np.arange(weeks)
    return (5.0 + 3.0 * np.sin(2 * np.pi * (i / 52.0 + phase))
            + 0.002 * i + 0.1 * rng.normal(0, 1, weeks))


def build_workspace(root):
    """ILI + query-trend CSVs, query lists, and a config for two countries."""
    rng = Rng(99)
    start = datahub.parse_week(START)
    ili = {}
    for country, phase in (("JP", 0.1), ("US", 0.0)):
        ili[country] = datahub.WeeklySeries(
            country=country, start=start,
            values=np.maximum(synth_series(rng, WEEKS, phase), 0.1))
    ili_path = root / "ili.csv"
    write_ili_csv(ili_path, series_rows(ili))

    trends = root / "trends"
    for country in ili:
        d = trends / country
        d.mkdir(parents=True)
        for q in QUERIES:
            vals = (0.7 * ili[country].values
                    + 0.3 * rng.uniform(0, 5, WEEKS))
            with open(d / (datahub.query_slug(q) + ".csv"), "w",
                      encoding="utf-8") as f:
                f.write("iso_week,value\n")
                for i, week in enumerate(ili[country].weeks()):
                    f.write(f"{datahub.format_week(week)},"
                            f"{float(vals[i])!r}\n")

    queries_path = root / "queries.txt"
    queries_path.write_text("\n".join(QUERIES) + "\n", encoding="utf-8")

    test_start = datahub.format_week(start + WEEKS - TEST_LEN - 8)
    config = root / "flucast.cfg"
    config.write_text(
        f"""# synthetic two-country fixture
countries = JP,US
data.ili = {ili_path}
data.trends_dir = {trends}
queries.JP = {queries_path}
queries.US = {queries_path}
split.test_start = {test_start}
split.test_len = {TEST_LEN}
model.n = 20
model.s = 4
train.lr_grid = 0.05
train.m_grid = 4
train.max_epochs = 3
train.patience = 3
seed = 1
""", encoding="utf-8")
    return config


def _write_embeddings(path, table):
    path.write_text("".join(f"{w} {' '.join(map(repr, v))}\n"
                            for w, v in table.items()), encoding="utf-8")


def build_wt_inputs(root, config, out):
    """Embeddings and candidate trends for `select-queries --method wt`.

    Source words are unit axes, so theta_w is a mean of designed
    cosines. With k=2 the candidates are the pairs of each token's two
    nearest target words. Per English query, the expected row is the
    only candidate whose forward-filled training series is usable, or
    the one whose correlation outweighs a higher theta_w. Returns
    (config path, [(english, selected, theta_w, theta_t)]).
    """
    _write_embeddings(out / "src.txt", {
        "flu": [1, 0, 0, 0], "fever": [0, 1, 0, 0],
        "cold": [0, 0, 1, 0], "remedy": [0, 0, 0, 1]})
    _write_embeddings(out / "tgt.txt", {
        "gripe": [1, 0, 0, 0], "influenza": [0.8, 0.6, 0, 0],
        "fiebre": [0, 1, 0, 0], "resfriado": [0, 0, 1, 0],
        "tos": [0, 0, 0.6, 0.8], "remedio": [0, 0, 0, 1]})
    english = out / "english.txt"
    english.write_text("flu fever\ncold remedy\n", encoding="utf-8")

    cfg = cli.load_config(str(config))
    series = datahub.load_ili(cfg["data.ili"])["US"]
    weeks = series.weeks()
    fit_len = datahub.parse_week(cfg["split.test_start"]) - 52 - series.start
    rng = Rng(5)
    cand = out / "candidates"
    cand.mkdir()

    def write(name, pairs, leading=""):
        with open(cand / (datahub.query_slug(name) + ".csv"), "w",
                  encoding="utf-8") as f:
            f.write("iso_week,value\n" + leading)
            for week, v in pairs:
                f.write(f"{datahub.format_week(week)},{float(v)!r}\n")

    # Starts at week 3, skips weeks 10-12 and has a dropped week 53.
    signal = 0.9 * series.values + rng.uniform(0, 0.5, len(series))
    kept = [i for i in range(3, len(series)) if not 10 <= i <= 12]
    write("influenza fiebre", [(weeks[i], signal[i]) for i in kept],
          leading="2009-W53,7.0\n")
    filled = np.zeros(fit_len)
    for i in range(3, fit_len):
        filled[i] = signal[i if i in kept else 9]
    write("gripe fiebre", zip(weeks, rng.uniform(0, 1, len(series))))
    # Constant, and zero until after training: both unusable.
    write("resfriado remedio", [(w, 2.0) for w in weeks])
    write("resfriado tos", [(w, 1.0 + i) for i, w in enumerate(weeks)
                            if i >= fit_len])
    remedy = series.values + rng.uniform(0, 2, len(series))
    write("tos remedio", zip(weeks, remedy))

    ili_train = series.values[:fit_len]

    def r(x):
        return float(np.corrcoef(x, ili_train)[0, 1])

    cfg2 = out / "wt.cfg"
    cfg2.write_text(config.read_text(encoding="utf-8") + f"""
querysel.country = US
querysel.english_queries = {english}
querysel.source_embeddings = {out / "src.txt"}
querysel.target_embeddings = {out / "tgt.txt"}
querysel.candidates_dir = {cand}
querysel.k = 2
""", encoding="utf-8")
    return cfg2, [("flu fever", "influenza fiebre", 0.9, r(filled)),
                  ("cold remedy", "tos remedio", 0.8, r(remedy[:fit_len]))]


def ili_rows(path):
    """The data rows of an ili.csv, as lists of strings."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    return root, build_workspace(root)


def run(config, out, *argv):
    return cli.main(["--config", str(config), "--out", str(out), *argv])


class TestConfigParsing:
    def test_comments_whitespace_and_dots(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n a.b = 1 # tail\n\nx=y=z\n",
                        encoding="utf-8")
        cfg = cli.load_config(str(path))
        assert cfg == {"a.b": "1", "x": "y=z"}

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("not a pair\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=":1:"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("Yes", True), ("ON", True), ("1", True),
        ("false", False), ("No", False), ("off", False), ("0", False)])
    def test_boolean_spellings(self, text, value):
        assert cli._get({"no_queries": text}, "no_queries", False,
                        bool) is value

    def test_unset_training_keys_take_the_train_config_defaults(self):
        args = argparse.Namespace(seed=None, no_queries=False,
                                  no_country_embedding=False)
        assert cli._train_config({}, args) == trainer.TrainConfig()

    def test_missing_required_key_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("countries = US\n", encoding="utf-8")
        assert run(path, tmp_path, "decompose") == 1
        assert "data.ili" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_components_reassemble_observed(self, workspace, tmp_path):
        root, config = workspace
        assert run(config, tmp_path, "decompose", "--countries", "US") == 0
        with open(tmp_path / "decomp_US.csv", newline="",
                  encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == WEEKS
        assert rows[0]["iso_week"] == START
        for row in rows:
            total = (float(row["trend"]) + float(row["seasonal"])
                     + float(row["remainder"]))
            assert abs(total - float(row["observed"])) < 1e-9


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_trailing_comma_in_countries_is_ignored(self, tmp_path, source):
        """--countries is read by the config's list reader, so `US,` names
        US alone either way."""
        config = build_workspace(tmp_path)
        argv = ["--countries", "US,"]
        if source == "config":
            config.write_text(config.read_text(encoding="utf-8")
                              + "countries = US,\n", encoding="utf-8")
            argv = []
        assert run(config, tmp_path / "out", "decompose", *argv) == 0
        assert os.listdir(tmp_path / "out") == ["decomp_US.csv"]


class TestSelectQueriesCommand:
    def test_mapping_method(self, workspace, tmp_path):
        root, config = workspace
        mapping = tmp_path / "map.csv"
        mapping.write_text("english,translated\n"
                           "flu fever,fiebre gripe\n"
                           "cold remedy,remedio resfriado\n",
                           encoding="utf-8")
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text(config.read_text(encoding="utf-8")
                        + f"querysel.english_queries = {root}/queries.txt\n"
                        f"querysel.mapping = {mapping}\n", encoding="utf-8")
        assert run(cfg2, tmp_path, "select-queries",
                   "--method", "mapping") == 0
        got = querysel.read_selected(str(tmp_path / "selected_queries.csv"))
        assert got == ["fiebre gripe", "remedio resfriado"]

    def test_wt_method(self, workspace, tmp_path):
        root, config = workspace
        cfg2, expected = build_wt_inputs(root, config, tmp_path)
        assert run(cfg2, tmp_path, "select-queries", "--method", "wt") == 0
        with open(tmp_path / "selected_queries.csv", newline="",
                  encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert [(r["english"], r["selected"]) for r in rows] == [
            (e, s) for e, s, _, _ in expected]
        for r, (_, _, theta_w, theta_t) in zip(rows, expected):
            assert float(r["theta_w"]) == pytest.approx(theta_w, abs=1e-12)
            assert float(r["theta_t"]) == pytest.approx(theta_t, abs=1e-12)


@pytest.fixture(scope="module")
def trained_single(workspace, tmp_path_factory):
    root, config = workspace
    out = tmp_path_factory.mktemp("single")
    rc = run(config, out, "train", "--countries", "US")
    assert rc == 0
    return config, out


class TestTrainCommand:
    def test_single_mode_artifacts(self, trained_single):
        config, out = trained_single
        ckpt = json.loads((out / "checkpoint.json"
                           ).read_text(encoding="utf-8"))
        assert ckpt["meta"]["countries"] == ["US"]
        cfg = cli.load_config(str(config))
        series = datahub.load_ili(cfg["data.ili"])["US"]
        fit_len = (datahub.parse_week(cfg["split.test_start"]) - 52
                   - series.start)
        seasonal = decompose.stl_decompose(series.values[:fit_len], 52
                                           ).seasonal
        assert ckpt["extra"]["seasonal.US"] == seasonal.tolist()
        assert ckpt["extra"]["queries.US"] == QUERIES
        assert [q for q, _, _ in ckpt["extra"]["norm.US"]] == QUERIES
        assert sorted(ckpt["extra"]) == ["norm.US", "queries.US",
                                         "seasonal.US", "term"]
        lines = (out / "trainlog.csv").read_text(encoding="utf-8"
                                                 ).splitlines()
        assert lines[0] == "epoch,train_mse,val_mse_US"
        assert len(lines) <= 4

    def test_same_seed_reproduces_checkpoint_bytes(self, workspace,
                                                   tmp_path):
        root, config = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(config, out, "train", "--countries", "US") == 0
        assert ((a / "checkpoint.json").read_bytes()
                == (b / "checkpoint.json").read_bytes())
        assert ((a / "trainlog.csv").read_bytes()
                == (b / "trainlog.csv").read_bytes())

    def test_no_queries_drops_attention(self, workspace, tmp_path):
        root, config = workspace
        assert run(config, tmp_path, "train", "--countries", "US",
                   "--no-queries") == 0
        ckpt = json.loads((tmp_path / "checkpoint.json"
                           ).read_text(encoding="utf-8"))
        assert not any("attention" in n or "query_encoder" in n
                       for n in ckpt["tensors"])
        assert ckpt["extra"]["queries.US"] == []

    def test_multi_mode_covers_both_countries(self, workspace, tmp_path):
        root, config = workspace
        assert run(config, tmp_path, "train") == 0
        ckpt = json.loads((tmp_path / "checkpoint.json"
                           ).read_text(encoding="utf-8"))
        assert ckpt["meta"]["countries"] == ["JP", "US"]
        assert ckpt["meta"]["use_country_embedding"] is True
        names = set(ckpt["tensors"])
        assert "shared.country_embed" in names
        assert "country.JP.output.w1" in names
        assert "country.US.attention.w_q" in names
        header = (tmp_path / "trainlog.csv").read_text(encoding="utf-8"
                                                       ).splitlines()[0]
        assert header == "epoch,train_mse,val_mse_JP,val_mse_US"


    @pytest.mark.filterwarnings("ignore:JP. query")
    def test_multi_run_records_largest_query_count(self, tmp_path):
        config = build_workspace(tmp_path)
        path = tmp_path / "trends" / "JP" / (datahub.query_slug(QUERIES[0])
                                             + ".csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + [
            ln.split(",")[0] + ",1.0" for ln in lines[1:]]) + "\n",
            encoding="utf-8")
        assert run(config, tmp_path / "out", "train") == 0
        ckpt = json.loads((tmp_path / "out" / "checkpoint.json"
                           ).read_text(encoding="utf-8"))
        assert ckpt["extra"]["queries.JP"] == QUERIES
        counts = [len(ckpt["extra"][f"norm.{c}"]) for c in ("JP", "US")]
        assert counts == [1, 2]
        assert ckpt["meta"]["l_queries"] == max(counts)


class TestEvaluateCommand:
    def test_reports_baselines_and_attention(self, trained_single,
                                             tmp_path):
        config, trained = trained_single
        assert run(config, tmp_path, "evaluate", "--checkpoint",
                   str(trained / "checkpoint.json"),
                   "--with-baselines") == 0
        with open(tmp_path / "report.csv", newline="",
                  encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        models = {r["model"] for r in rows}
        assert models == {"proposed", "seasonal_naive", "ar_exog"}
        by_model = {}
        for r in rows:
            by_model.setdefault(r["model"], []).append(int(r["horizon"]))
        assert sorted(by_model["proposed"]) == [1, 2, 3, 4]
        assert by_model["ar_exog"] == [1]

        with open(tmp_path / "attention.csv", newline="",
                  encoding="utf-8") as f:
            reader = csv.DictReader(f)
            att = list(reader)
        assert reader.fieldnames == ["iso_week", "country", "query",
                                     "weight"]
        assert {r["country"] for r in att} == {"US"}
        assert {r["query"] for r in att} == set(QUERIES)
        per_week = {}
        for r in att:
            key = (r["country"], r["iso_week"])
            per_week[key] = per_week.get(key, 0.0) + float(r["weight"])
        assert all(abs(v - 1.0) < 1e-9 for v in per_week.values())
        assert len(per_week) == TEST_LEN - 4 + 1

    def test_forecast_traces_use_true_values(self, trained_single,
                                             tmp_path):
        config, trained = trained_single
        assert run(config, tmp_path, "evaluate", "--checkpoint",
                   str(trained / "checkpoint.json")) == 0
        with open(tmp_path / "forecasts.csv", newline="",
                  encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        series = datahub.load_ili(
            cli.load_config(str(config))["data.ili"])["US"]
        for r in rows[:20]:
            week = datahub.parse_week(r["iso_week"])
            assert float(r["y_true"]) == series.values[series.pos(week)]


class TestInferenceDrawsNothing:
    @pytest.mark.parametrize("argv", [["evaluate", "--with-baselines"],
                                      ["forecast"]])
    def test_no_numpy_random_in_a_fresh_interpreter(self, trained_single,
                                                    tmp_path, argv):
        """Loading a checkpoint reads its tensors and draws no weights,
        so inference never imports numpy.random."""
        config, trained = trained_single
        probe = ("import sys; from flucast import cli; "
                 "assert cli.main(sys.argv[1:]) == 0; "
                 "print([m for m in sys.modules "
                 "if m.startswith('numpy.random')])")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", probe, "--config", str(config), "--out",
             str(tmp_path), argv[0], "--checkpoint",
             str(trained / "checkpoint.json"), *argv[1:]],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "[]"


class TestForecastCommand:
    def test_projects_past_series_end(self, trained_single, tmp_path):
        config, trained = trained_single
        assert run(config, tmp_path, "forecast", "--checkpoint",
                   str(trained / "checkpoint.json")) == 0
        with open(tmp_path / "forecasts.csv", newline="",
                  encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        series = datahub.load_ili(
            cli.load_config(str(config))["data.ili"])["US"]
        weeks = [datahub.parse_week(r["iso_week"]) for r in rows]
        assert weeks == [series.end + 1 + h for h in range(4)]
        assert [int(r["horizon"]) for r in rows] == [1, 2, 3, 4]
        assert all(np.isfinite(float(r["y_pred"])) for r in rows)


@pytest.fixture(scope="module")
def trained_multi(workspace, tmp_path_factory):
    """A multi-mode checkpoint plus its evaluate and forecast outputs."""
    root, config = workspace
    out = tmp_path_factory.mktemp("multi")
    assert run(config, out, "train") == 0
    ckpt = str(out / "checkpoint.json")
    assert run(config, out / "evaluate", "evaluate", "--checkpoint", ckpt,
               "--with-baselines") == 0
    assert run(config, out / "forecast", "forecast", "--checkpoint",
               ckpt) == 0
    return config, out


class TestCheckpointWindowSizes:
    """evaluate and forecast window with the checkpoint's N and S."""

    @pytest.mark.parametrize("edit", ["model.n = 16", "model.s = 6"])
    def test_config_window_sizes_ignored(self, trained_multi, tmp_path,
                                         edit):
        config, trained = trained_multi
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text(config.read_text(encoding="utf-8") + edit + "\n",
                        encoding="utf-8")
        ckpt = str(trained / "checkpoint.json")
        assert run(cfg2, tmp_path / "evaluate", "evaluate", "--checkpoint",
                   ckpt, "--with-baselines") == 0
        assert run(cfg2, tmp_path / "forecast", "forecast", "--checkpoint",
                   ckpt) == 0
        for name in ("evaluate/report.csv", "evaluate/forecasts.csv",
                     "evaluate/attention.csv", "forecast/forecasts.csv"):
            assert ((tmp_path / name).read_bytes()
                    == (trained / name).read_bytes()), name


class TestStoredPreprocessing:
    """evaluate and forecast apply the STL seasonal and min-max stats
    that train fitted and saved, and fit neither again."""

    def test_training_range_edits_leave_outputs_unchanged(self, tmp_path):
        config = build_workspace(tmp_path)
        ckpt = tmp_path / "checkpoint.json"
        assert run(config, tmp_path, "train", "--countries", "US") == 0

        def outputs(name):
            out = tmp_path / name
            assert run(config, out, "evaluate", "--checkpoint",
                       str(ckpt)) == 0
            assert run(config, out / "fc", "forecast", "--checkpoint",
                       str(ckpt)) == 0
            return {f: (out / f).read_bytes() for f in (
                "report.csv", "forecasts.csv", "attention.csv",
                "fc/forecasts.csv")}

        cfg = cli.load_config(str(config))
        fit_len = (datahub.parse_week(cfg["split.test_start"]) - 52
                   - datahub.parse_week(START))

        def training_seasonal():
            series = datahub.load_ili(cfg["data.ili"])["US"]
            return decompose.stl_decompose(series.values[:fit_len], 52
                                           ).seasonal

        fitted = training_seasonal()
        before = outputs("before")
        # week 10 lies in the training range; it becomes the new maximum
        # of the US ILI series and of one US trends series
        week = datahub.format_week(datahub.parse_week(START) + 10)
        rows = ili_rows(tmp_path / "ili.csv")
        peak = max(float(r[2]) for r in rows if r[1] == "US")
        write_ili_csv(tmp_path / "ili.csv", [
            [w, c, repr(peak + 5.0) if (w, c) == (week, "US") else v]
            for w, c, v in rows])
        trend = tmp_path / "trends" / "US" / "flu_fever.csv"
        lines = trend.read_text(encoding="utf-8").splitlines()
        peak = max(float(ln.split(",")[1]) for ln in lines[1:])
        trend.write_text("\n".join([lines[0]] + [
            f"{week},{peak + 5.0!r}" if ln.startswith(week + ",") else ln
            for ln in lines[1:]]) + "\n", encoding="utf-8")

        # a refit would see the edit
        assert not np.array_equal(training_seasonal(), fitted)
        assert outputs("after") == before

    @pytest.mark.filterwarnings("ignore:US. query")
    def test_dropped_query_needs_no_trends_file(self, tmp_path):
        config = build_workspace(tmp_path)
        path = tmp_path / "trends" / "US" / "flu_fever.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + [
            ln.split(",")[0] + ",1.0" for ln in lines[1:]]) + "\n",
            encoding="utf-8")
        assert run(config, tmp_path, "train", "--countries", "US") == 0
        path.unlink()
        ckpt = str(tmp_path / "checkpoint.json")
        assert run(config, tmp_path / "eval", "evaluate", "--checkpoint",
                   ckpt) == 0
        assert run(config, tmp_path / "fc", "forecast", "--checkpoint",
                   ckpt) == 0
        with open(tmp_path / "eval" / "attention.csv", newline="",
                  encoding="utf-8") as f:
            assert {r["query"] for r in csv.DictReader(f)} == {"cold remedy"}


# The per-country checkpoint entries `train` writes.
STORED_KEYS = ["seasonal", "queries", "norm"]


def corrupt(path, lineno):
    """Append 'x' to the number that ends a 1-based line of a CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] += "x"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def put_nan(entry):
    entry["data"][0] = float("nan")


def put_huge(entry):
    entry["data"] = [1.7e308] * len(entry["data"])


def flatten(entry):
    entry["shape"] = [1, len(entry["data"])]


class TestBadInput:
    """Bad input ends in one 'error:' line and exit code 1."""

    @pytest.mark.parametrize("case", [
        "ili_rate", "trends_value", "candidate_value", "model.n",
        "train.lr_grid"])
    def test_malformed_number(self, tmp_path, capsys, case):
        config = build_workspace(tmp_path)
        argv = ["train", "--countries", "US"]
        if case == "ili_rate":
            corrupt(tmp_path / "ili.csv", 5)
            argv, where = ["decompose"], "ili.csv:5:"
        elif case == "trends_value":
            corrupt(tmp_path / "trends" / "US" / "flu_fever.csv", 7)
            where = "flu_fever.csv:7:"
        elif case == "candidate_value":
            config, _ = build_wt_inputs(tmp_path, config, tmp_path)
            corrupt(tmp_path / "candidates" / "tos_remedio.csv", 9)
            argv, where = ["select-queries"], "tos_remedio.csv:9:"
        else:
            config.write_text(config.read_text(encoding="utf-8")
                              + f"{case} = 0.05,x\n", encoding="utf-8")
            where = repr(case)
        assert run(config, tmp_path / "out", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err

    @pytest.mark.parametrize("case", ["ili", "trends"])
    def test_short_row(self, tmp_path, capsys, case):
        config = build_workspace(tmp_path)
        argv = ["train", "--countries", "US"]
        if case == "ili":
            path, argv = tmp_path / "ili.csv", ["decompose"]
        else:
            path = tmp_path / "trends" / "US" / "flu_fever.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(config, tmp_path / "out", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path.name}:6:" in err

    @pytest.mark.parametrize("command", ["decompose", "train"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_ili_rate(self, tmp_path, capsys, command, value):
        """Refused where it is read, with its line, not later as a series
        with missing or non-finite values."""
        config = build_workspace(tmp_path)
        path = tmp_path / "ili.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(config, tmp_path / "out", command) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:7: non-finite ili_rate {value}\n")

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    def test_reordered_queries_refused(self, trained_single, tmp_path,
                                       capsys, command):
        config, trained = trained_single
        swapped = tmp_path / "swapped.txt"
        swapped.write_text("\n".join(QUERIES[::-1]) + "\n",
                           encoding="utf-8")
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text(config.read_text(encoding="utf-8")
                        + f"queries.US = {swapped}\n", encoding="utf-8")
        assert run(cfg2, tmp_path, command, "--checkpoint",
                   str(trained / "checkpoint.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: US: queries") and "differ" in err

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    @pytest.mark.parametrize("name, edit, message", [
        ("shared.decoder.w_h", put_nan,
         "checkpoint tensor shared.decoder.w_h holds non-finite values"),
        ("shared.ili_encoder.u_h", put_huge,
         "gru_sequence produced non-finite values"),
        ("shared.decoder.w_h", flatten,
         "checkpoint tensor shared.decoder.w_h shape mismatch")],
        ids=["nan", "overflow", "reshaped"])
    def test_bad_checkpoint_tensor_is_one_line(self, trained_single,
                                               tmp_path, capsys, command,
                                               name, edit, message):
        config, trained = trained_single
        doc = json.loads((trained / "checkpoint.json"
                          ).read_text(encoding="utf-8"))
        edit(doc["tensors"][name])
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        assert run(config, tmp_path / "out", command, "--checkpoint",
                   str(ckpt)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: "not json {", "not a JSON checkpoint"),
        (lambda doc: {"a": 1}, "not a flucast checkpoint"),
        (lambda doc: {**doc, "version": 99}, "checkpoint version 99 is not 3"),
        (lambda doc: {**doc, "version": 1}, "checkpoint version 1 is not 3"),
        (lambda doc: {**doc, "version": 2,
                      "meta": {**doc["meta"], "standard_gru": True}},
         "checkpoint version 2 is not 3"),
        (lambda doc: {**doc, "meta": {}}, "checkpoint meta lacks m, n_in"),
        (lambda doc: {**doc, "tensors": {
            k: v for k, v in doc["tensors"].items()
            if k != "shared.fusion.b1"}},
         "missing ['shared.fusion.b1']"),
        (lambda doc: {**doc, "tensors": {
            **doc["tensors"],
            "shared.extra": doc["tensors"]["shared.fusion.b1"]}},
         "unexpected ['shared.extra']"),
        (lambda doc: {**doc, "meta": {**doc["meta"], "arch": "rnn"}},
         "checkpoint meta: unknown arch 'rnn'"),
        (lambda doc: {**doc, "tensors": {
            **doc["tensors"], "shared.fusion.b1": {
                **doc["tensors"]["shared.fusion.b1"], "data": [0.5]}}},
         "tensor shared.fusion.b1 data does not fill its shape"),
        (lambda doc: {**doc, "extra": {
            k: v for k, v in doc["extra"].items() if k != "norm.US"}},
         "checkpoint extra lacks norm.US"),
        (lambda doc: {**doc, "extra": {
            **doc["extra"],
            "seasonal.US": [float("nan")] + doc["extra"]["seasonal.US"][1:]}},
         "checkpoint extra seasonal.US holds non-finite values"),
        (lambda doc: {**doc, "extra": {
            **doc["extra"], "seasonal.US": doc["extra"]["seasonal.US"][1:]}},
         "checkpoint extra seasonal.US has 179 weeks, but the training "
         "range of US in"),
        (lambda doc: {**doc, "extra": {
            **doc["extra"], "norm.US": [["flu fever", 2.0, 2.0]]
            + doc["extra"]["norm.US"][1:]}},
         "checkpoint extra norm.US query 'flu fever' has min 2.0 and max "
         "2.0, not finite with min < max"),
        (lambda doc: {**doc, "extra": {
            **doc["extra"], "norm.US": [["flu fever", 2.0]]}},
         "checkpoint extra norm.US is not a list of [query, min, max]"),
        (lambda doc: {**doc, "extra": {
            **doc["extra"], "norm.US": doc["extra"]["norm.US"] * 2}},
         "checkpoint extra norm.US has 4 queries, the model takes 1 to 2")],
        ids=["not_json", "other_format", "version", "version_1", "version_2",
             "empty_meta", "missing_tensor", "unexpected_tensor",
             "bad_arch", "short_data", "missing_norm", "nan_seasonal",
             "short_seasonal", "flat_stat", "short_stat", "extra_stats"])
    def test_malformed_checkpoint_is_one_line(self, trained_single, tmp_path,
                                              capsys, command, edit,
                                              message):
        config, trained = trained_single
        doc = edit(json.loads((trained / "checkpoint.json"
                               ).read_text(encoding="utf-8")))
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(doc if isinstance(doc, str) else json.dumps(doc),
                        encoding="utf-8")
        assert run(config, tmp_path / "out", command, "--checkpoint",
                   str(ckpt)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
        assert message in err

    def test_gru_baseline_with_fewer_queries_refused(self, workspace,
                                                     tmp_path, capsys):
        root, config = workspace
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text(config.read_text(encoding="utf-8")
                        + "model.arch = gru_baseline\n", encoding="utf-8")
        assert run(cfg2, tmp_path, "train", "--countries", "US") == 0
        fewer = tmp_path / "fewer.txt"
        fewer.write_text(QUERIES[0] + "\n", encoding="utf-8")
        cfg2.write_text(cfg2.read_text(encoding="utf-8")
                        + f"queries.US = {fewer}\n", encoding="utf-8")
        assert run(cfg2, tmp_path / "eval", "evaluate", "--checkpoint",
                   str(tmp_path / "checkpoint.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: US: queries") and "differ" in err

    @pytest.mark.parametrize("row, message", [
        ("oops 1.0 x 2.0 3.0", "could not convert string to float: 'x'"),
        ("oops 1.0 2.0", "2 components, expected 4")],
        ids=["component", "length"])
    def test_malformed_embeddings_row_is_one_line(self, tmp_path, capsys,
                                                  row, message):
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        path = tmp_path / "src.txt"
        path.write_text(path.read_text(encoding="utf-8") + row + "\n",
                        encoding="utf-8")
        assert run(config, tmp_path / "out", "select-queries") == 1
        assert capsys.readouterr().err == f"error: {path}:5: {message}\n"

    def test_query_list_short_row_is_one_line(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        listed = tmp_path / "selected.csv"
        listed.write_text("english,selected,theta_w,theta_t,score\n"
                          "flu fever,flu fever,0.9,0.8,1.7\n"
                          "cold remedy\n", encoding="utf-8")
        config.write_text(config.read_text(encoding="utf-8")
                          + f"queries.US = {listed}\n", encoding="utf-8")
        assert run(config, tmp_path / "out", "train", "--countries",
                   "US") == 1
        assert capsys.readouterr().err == (
            f"error: {listed}:3: row has no selected\n")

    @pytest.mark.parametrize("text, where", [
        ("eng,translated\nflu fever,gripe\n", ": no english column"),
        ("english,translated\nflu fever,gripe\ncold remedy\n",
         ":3: row has no translated")], ids=["column", "short_row"])
    def test_malformed_mapping_is_one_line(self, workspace, tmp_path, capsys,
                                           text, where):
        root, config = workspace
        mapping = tmp_path / "map.csv"
        mapping.write_text(text, encoding="utf-8")
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text(config.read_text(encoding="utf-8")
                        + f"querysel.english_queries = {root}/queries.txt\n"
                        f"querysel.mapping = {mapping}\n", encoding="utf-8")
        assert run(cfg2, tmp_path, "select-queries", "--method",
                   "mapping") == 1
        assert capsys.readouterr().err == f"error: {mapping}{where}\n"

    def test_stopword_only_query_is_one_line(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        (tmp_path / "english.txt").write_text("flu fever\nthe of\n",
                                              encoding="utf-8")
        (tmp_path / "stop.txt").write_text("the\nof\n", encoding="utf-8")
        config.write_text(config.read_text(encoding="utf-8")
                          + f"querysel.source_stopwords = "
                            f"{tmp_path / 'stop.txt'}\n", encoding="utf-8")
        assert run(config, tmp_path / "out", "select-queries") == 1
        err = capsys.readouterr().err
        assert err == "error: query 'the of' has only stopwords\n"

    @pytest.mark.parametrize("edit, message", [
        ("train.lr_grid = 0.01,-0.1",
         "learning rates must be positive, got [0.01, -0.1]"),
        ("train.m_grid = 0", "m_grid must be >= 1, got 0"),
        ("train.m_grid = 8,1099511627776",
         "m_grid must be <= 512, got 1099511627776"),
        ("train.batch_size = 1099511627776",
         "batch_size must be <= 4096, got 1099511627776"),
        ("train.max_epochs = 0", "max_epochs must be >= 1, got 0"),
        ("model.n = 0", "n_in must be >= 1, got 0"),
        ("model.s = 0", "s_out must be >= 1, got 0"),
        ("querysel.k = 0", "k must be >= 1, got 0"),
        ("model.arch = rnn", "unknown arch 'rnn'"),
        ("train.lr_grid = 0.01,inf",
         "learning rates must be finite, got [0.01, inf]"),
        ("split.test_len = 0", "split.test_len must be >= 1, got 0"),
        ("split.test_len = -5", "split.test_len must be >= 1, got -5")],
        ids=["lr", "m", "m_huge", "batch_huge", "max_epochs", "n", "s", "k",
             "arch", "lr_inf", "test_len_0", "test_len_negative"])
    def test_out_of_range_setting_is_one_line(self, tmp_path, capsys,
                                              monkeypatch, edit, message):
        """Refused before any grid point trains."""
        monkeypatch.setattr(trainer, "_train_one", lambda *a: pytest.fail(
            "a grid point trained"))
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        config.write_text(config.read_text(encoding="utf-8") + edit + "\n",
                          encoding="utf-8")
        argv = (["select-queries"] if edit.startswith("querysel.")
                else ["train", "--countries", "US"])
        assert run(config, tmp_path / "out", *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("where", ["data.ili", "--checkpoint"])
    def test_directory_for_a_file_is_one_line(self, tmp_path, capsys, where):
        config = build_workspace(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = ["evaluate", "--checkpoint", str(folder)]
        if where == "data.ili":
            config.write_text(config.read_text(encoding="utf-8")
                              + f"data.ili = {folder}\n", encoding="utf-8")
            argv = ["decompose"]
        assert run(config, tmp_path / "out", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(folder) in err

    def test_file_for_out_is_one_line(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert run(config, out, "decompose") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("where", ["config", "ili", "trends", "queries",
                                       "embeddings", "stopwords", "mapping"])
    def test_non_utf8_byte_is_one_line(self, tmp_path, capsys, where):
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        stop, mapping = tmp_path / "stop.txt", tmp_path / "map.csv"
        stop.write_text("the\n", encoding="utf-8")
        mapping.write_text("english,translated\nflu fever,gripe\n"
                           "cold remedy,resfriado\n", encoding="utf-8")
        config.write_text(config.read_text(encoding="utf-8")
                          + f"querysel.source_stopwords = {stop}\n"
                            f"querysel.mapping = {mapping}\n",
                          encoding="utf-8")
        train = ["train", "--countries", "US"]
        path, argv = {
            "config": (config, ["decompose"]),
            "ili": (tmp_path / "ili.csv", ["decompose"]),
            "trends": (tmp_path / "trends" / "US" / "flu_fever.csv", train),
            "queries": (tmp_path / "queries.txt", train),
            "embeddings": (tmp_path / "src.txt", ["select-queries"]),
            "stopwords": (stop, ["select-queries"]),
            "mapping": (mapping, ["select-queries", "--method", "mapping"]),
        }[where]
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
        assert run(config, tmp_path / "out", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "can't decode byte 0xe9" in err

    def test_constant_ili_in_correlate_is_one_line(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        path = tmp_path / "ili.csv"
        write_ili_csv(path, [(week, c, "0.0" if c == "JP" else rate)
                             for week, c, rate in ili_rows(path)])
        assert run(config, tmp_path / "out", "correlate") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: JP: ILI rate is constant over the "
                              "overlapping weeks 2010-W01..")
        assert err.count("\n") == 1

    def test_every_query_constant_is_data_error(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        for q in QUERIES:
            path = tmp_path / "trends" / "US" / (datahub.query_slug(q)
                                                 + ".csv")
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join([lines[0]] + [
                ln.split(",")[0] + ",1.0" for ln in lines[1:]]) + "\n",
                encoding="utf-8")
        with pytest.warns(UserWarning, match="constant on training range, "
                          "dropped") as caught:
            assert run(config, tmp_path / "out", "train", "--countries",
                       "US") == 1
        assert len(caught) == len(QUERIES) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: US: no query left")

    @pytest.mark.filterwarnings("ignore:JP. query")
    def test_gru_baseline_with_unequal_query_counts_refused(self, tmp_path,
                                                            capsys):
        config = build_workspace(tmp_path)
        path = tmp_path / "trends" / "JP" / (datahub.query_slug(QUERIES[0])
                                             + ".csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + [
            ln.split(",")[0] + ",1.0" for ln in lines[1:]]) + "\n",
            encoding="utf-8")
        config.write_text(config.read_text(encoding="utf-8")
                          + "model.arch = gru_baseline\n", encoding="utf-8")
        assert run(config, tmp_path / "out", "train") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gru_baseline") and err.count("\n") == 1
        assert "JP: L=1" in err and "US: L=2" in err


    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    @pytest.mark.parametrize("key", STORED_KEYS)
    def test_each_stored_key_is_read(self, trained_single, tmp_path, capsys,
                                     command, key):
        config, trained = trained_single
        doc = json.loads((trained / "checkpoint.json"
                          ).read_text(encoding="utf-8"))
        assert {k.rsplit(".", 1)[0] for k in doc["extra"]
                if k.endswith(".US")} == set(STORED_KEYS)
        del doc["extra"][f"{key}.US"]
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        assert run(config, tmp_path / "out", command, "--checkpoint",
                   str(ckpt)) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: checkpoint extra lacks {key}.US\n")

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    def test_moved_ili_start_is_one_line(self, trained_single, tmp_path,
                                         capsys, command):
        """ili.csv starting four weeks later shortens the training range
        the stored seasonal was fitted on."""
        config, trained = trained_single
        cfg = cli.load_config(str(config))
        late = datahub.format_week(datahub.parse_week(START) + 4)
        rows = ili_rows(cfg["data.ili"])
        ili = tmp_path / "ili.csv"
        write_ili_csv(ili, [r for r in rows if r[0] >= late])
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text(config.read_text(encoding="utf-8")
                        + f"data.ili = {ili}\n", encoding="utf-8")
        ckpt = trained / "checkpoint.json"
        assert run(cfg2, tmp_path / "out", command, "--checkpoint",
                   str(ckpt)) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: checkpoint extra seasonal.US has 180 weeks, "
            f"but the training range of US in {ili} has 176\n")

    @pytest.mark.parametrize("command", [
        "decompose", "select-queries", "train", "correlate", "evaluate",
        "forecast"])
    def test_country_missing_from_ili_is_one_line(self, trained_single,
                                                  tmp_path, capsys, command):
        config, trained = trained_single
        cfg = cli.load_config(str(config))
        rows = ili_rows(cfg["data.ili"])
        ili = tmp_path / "jp_only.csv"
        write_ili_csv(ili, [r for r in rows if r[1] == "JP"])
        if command == "select-queries":
            config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text(config.read_text(encoding="utf-8")
                        + f"data.ili = {ili}\n", encoding="utf-8")
        argv = {"decompose": ["--countries", "US"],
                "train": ["--countries", "US"],
                "evaluate": ["--checkpoint", str(trained / "checkpoint.json")],
                "forecast": ["--checkpoint", str(trained / "checkpoint.json")]
                }.get(command, [])
        assert run(cfg2, tmp_path / "out", command, *argv) == 1
        assert capsys.readouterr().err == (
            f"error: {ili}: no rows for country US\n")

    def test_malformed_boolean_is_refused(self, tmp_path, capsys,
                                          monkeypatch):
        """A boolean outside true false yes no on off 1 0 is an error, not
        false: `no_queries = ture` would train with queries."""
        monkeypatch.setattr(trainer, "_train_one", lambda *a: pytest.fail(
            "a grid point trained"))
        config = build_workspace(tmp_path)
        config.write_text(config.read_text(encoding="utf-8")
                          + "no_queries = ture\n", encoding="utf-8")
        assert run(config, tmp_path / "out", "train", "--countries",
                   "US") == 1
        assert capsys.readouterr().err == (
            "error: config key 'no_queries': malformed bool 'ture'\n")

    def test_out_of_vocabulary_word_is_one_line(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        (tmp_path / "english.txt").write_text("flu fever\nzzz\n",
                                              encoding="utf-8")
        assert run(config, tmp_path / "out", "select-queries") == 1
        assert capsys.readouterr().err == (
            "error: 'zzz' not in source vocabulary\n")

    @pytest.mark.parametrize("case", [
        "ili", "ili_header", "trends", "query_list", "mapping"])
    def test_oversized_csv_field_is_one_line(self, tmp_path, capsys, case):
        """A field over csv's size limit is a DataError naming the line,
        in a header or a data row."""
        config = build_workspace(tmp_path)
        argv, lineno = ["train", "--countries", "US"], 6
        if case.startswith("ili"):
            path, argv = tmp_path / "ili.csv", ["decompose"]
            lineno = 1 if case == "ili_header" else lineno
        elif case == "trends":
            path = tmp_path / "trends" / "US" / "flu_fever.csv"
        elif case == "query_list":
            path, lineno = tmp_path / "queries.txt", 1
        else:
            path, lineno = tmp_path / "map.csv", 3
            path.write_text("english,translated\nflu fever,gripe\n"
                            "cold remedy,remedio\n", encoding="utf-8")
            config.write_text(config.read_text(encoding="utf-8")
                              + f"querysel.english_queries = "
                                f"{tmp_path / 'queries.txt'}\n"
                                f"querysel.mapping = {path}\n",
                              encoding="utf-8")
            argv = ["select-queries", "--method", "mapping"]
        limit = csv.field_size_limit()
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = "1" * (limit + 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(config, tmp_path / "out", *argv) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{lineno}: field larger than field limit "
            f"({limit})\n")

    def test_word_only_embeddings_row_is_one_line(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        path = tmp_path / "tgt.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, "gripa")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(config, tmp_path / "out", "select-queries") == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: word 'gripa' has no components\n")

    def test_diverged_grid_point_leaves_stderr_clean(self, tmp_path):
        """A grid point that overflows is reported by the kernel's own
        check, so no numpy RuntimeWarning reaches stderr, in the grid
        point's process or another."""
        config = build_workspace(tmp_path)
        config.write_text(config.read_text(encoding="utf-8")
                          + "train.lr_grid = 1e300,0.01\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "flucast.cli", "--config", str(config),
             "--out", str(tmp_path / "out"), "train"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0
        assert "lr=0.01" in done.stdout
        assert done.stdout.splitlines()[0] == (
            "grid point lr=1e+300 M=4 diverged, skipped")
        assert done.stderr == ""

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    def test_inference_overflow_is_one_line_naming_the_file(
            self, trained_single, tmp_path, command):
        """A checkpoint whose fusion weights overflow a matmul ends in one
        `error:` line naming the checkpoint, and no numpy RuntimeWarning,
        outside pytest's warning filters too."""
        config, trained = trained_single
        doc = json.loads((trained / "checkpoint.json"
                          ).read_text(encoding="utf-8"))
        entry = doc["tensors"]["shared.fusion.w1"]
        entry["data"] = [1e308] * len(entry["data"])
        ckpt = tmp_path / "huge.json"
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "flucast.cli", "--config", str(config),
             "--out", str(tmp_path / "out"), command,
             "--checkpoint", str(ckpt)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr == (f"error: {ckpt}: matmul produced non-finite "
                               f"values\n")

    def test_forecast_error_overflow_is_one_line_naming_the_file(
            self, trained_single, tmp_path):
        """Forecasts that are finite but huge overflow the squared errors:
        `evaluate` ends in one `error:` line naming the checkpoint, with
        no numpy RuntimeWarning, and writes no report."""
        config, trained = trained_single
        doc = json.loads((trained / "checkpoint.json"
                          ).read_text(encoding="utf-8"))
        entry = doc["tensors"]["country.US.output.b2"]
        entry["data"] = [1e200] * len(entry["data"])
        ckpt = tmp_path / "huge_bias.json"
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "flucast.cli", "--config", str(config),
             "--out", str(tmp_path / "out"), "evaluate",
             "--checkpoint", str(ckpt)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr == (f"error: {ckpt}: rmse is inf: the forecast "
                               f"errors overflow\n")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_only_an_overflowing_metric_is_named_after_the_checkpoint(self):
        """Other metric errors are about the data, not the checkpoint."""
        with pytest.raises(evalbench.MetricError) as info:
            with cli._naming("ckpt.json"):
                raise evalbench.MetricError("no test windows")
        assert str(info.value) == "no test windows"
        with pytest.raises(evalbench.NonFiniteMetricError,
                           match="^ckpt.json: rmse is inf"):
            with cli._naming("ckpt.json"):
                evalbench.rmse([0.0, 1e200], [0.0, -1e200])

    def test_non_finite_candidate_value_is_one_line(self, tmp_path, capsys):
        """A `nan` in a candidate's trends file is refused where it is
        read, not scored as a perfect correlation."""
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        path = tmp_path / "candidates" / "tos_remedio.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[8] = lines[8].split(",")[0] + ",nan"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(config, tmp_path / "out", "select-queries") == 1
        assert capsys.readouterr().err == (
            f"error: {path}:9: non-finite value nan\n")

    def test_a_bug_is_a_traceback_not_an_error_line(self, tmp_path,
                                                    monkeypatch):
        """Only flucast errors and OSError become `error:` lines; a
        KeyError from a bug keeps its traceback."""
        def bug(cfg, args):
            raise KeyError("name")

        monkeypatch.setattr(cli, "cmd_decompose", bug)
        config = build_workspace(tmp_path)
        with pytest.raises(KeyError):
            run(config, tmp_path / "out", "decompose")

    @pytest.mark.parametrize("command", ["decompose", "train"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_country_is_refused(self, tmp_path, capsys,
                                         monkeypatch, command, source):
        """A country named twice would train its task twice and write its
        trainlog column twice; it is refused before any data is read."""
        monkeypatch.setattr(datahub, "load_ili", lambda path: pytest.fail(
            "data was read"))
        config = build_workspace(tmp_path)
        argv, where = ["--countries", "US,JP,US"], "--countries"
        if source == "config":
            config.write_text(config.read_text(encoding="utf-8")
                              + "countries = US,JP,US\n", encoding="utf-8")
            argv, where = [], "config key 'countries'"
        assert run(config, tmp_path / "out", command, *argv) == 1
        assert capsys.readouterr().err == f"error: {where} names US twice\n"

    def test_countries_flag_naming_no_country_is_refused(self, tmp_path,
                                                         capsys):
        config = build_workspace(tmp_path)
        assert run(config, tmp_path / "out", "decompose",
                   "--countries", " , ") == 1
        assert capsys.readouterr().err == (
            "error: --countries names no country\n")

    @pytest.mark.parametrize("week, problem", [
        ("2015-13", "malformed iso_week '2015-13', expected YYYY-Www"),
        ("2015-W53", "week 53 is dropped")])
    def test_bad_test_start_names_its_key(self, tmp_path, capsys, week,
                                          problem):
        """Week 53 is dropped from every series, so it cannot start the
        test range."""
        config = build_workspace(tmp_path)
        config.write_text(config.read_text(encoding="utf-8")
                          + f"split.test_start = {week}\n", encoding="utf-8")
        assert run(config, tmp_path / "out", "train", "--countries",
                   "US") == 1
        assert capsys.readouterr().err == (
            f"error: config key 'split.test_start': {problem}\n")


def test_only_datahub_writes_csv():
    """Every CSV output goes through `datahub.write_csv`, so its format
    (encoding, line end, quoting) is decided in one module."""
    import flucast

    writers = []
    for info in pkgutil.iter_modules(flucast.__path__):
        path = os.path.join(flucast.__path__[0], f"{info.name}.py")
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if "csv.writer" in text or "lineterminator" in text:
            writers.append(info.name)
    assert writers == ["datahub"]


def test_every_exception_class_derives_from_the_base():
    """Each exception class a flucast module defines is a flucast.Error,
    so `cli.main` reports it as one line."""
    import flucast

    defined = {}
    for info in pkgutil.iter_modules(flucast.__path__):
        module = importlib.import_module(f"flucast.{info.name}")
        defined.update({f"{module.__name__}.{name}": obj
                        for name, obj in vars(module).items()
                        if isinstance(obj, type)
                        and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__})
    assert "flucast.numkit.ContractError" in defined
    assert [n for n, cls in defined.items()
            if not issubclass(cls, flucast.Error)] == []


class TestCorrelateCommand:
    def test_matrix_shape_and_diagonal(self, workspace, tmp_path):
        root, config = workspace
        assert run(config, tmp_path, "correlate") == 0
        lines = (tmp_path / "correlations.csv"
                 ).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "country,JP,US"
        rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        assert float(rows["JP"][0]) == 1.0
        assert float(rows["US"][1]) == 1.0
        assert float(rows["JP"][1]) == float(rows["US"][0])

    def test_shift_keys_change_offdiagonal(self, workspace, tmp_path):
        root, config = workspace
        shifted_cfg = tmp_path / "c.cfg"
        shifted_cfg.write_text(config.read_text(encoding="utf-8")
                               + "correlate.shift.JP = 5\n",
                               encoding="utf-8")
        assert run(config, tmp_path / "a", "correlate") == 0
        assert run(shifted_cfg, tmp_path / "b", "correlate") == 0
        base = (tmp_path / "a" / "correlations.csv").read_text("utf-8")
        shifted = (tmp_path / "b" / "correlations.csv").read_text("utf-8")
        assert base != shifted


CONFIG_READER = "_get"


def keys_cli_reads():
    """The config keys cli.py passes to its config reader, `<CC>` standing
    for a country. A key passed by name must come from a `for` loop over
    string literals; the reader forwards its own `key` argument."""
    with open(cli.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    looped = {node.target.id: [e.value for e in node.iter.elts]
              for node in ast.walk(tree)
              if isinstance(node, ast.For)
              and isinstance(node.iter, ast.Tuple)}
    keys = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == CONFIG_READER:
            continue
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == CONFIG_READER):
                continue
            key = call.args[1]
            if isinstance(key, ast.Constant):
                keys.add(key.value)
            elif isinstance(key, ast.JoinedStr):
                keys.add("".join(p.value if isinstance(p, ast.Constant)
                                 else "<CC>" for p in key.values))
            else:
                keys.update(looped[key.id])
    return keys


def keys_readme_lists():
    """The backticked keys in the first column of README's config table."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    table = text.split("### Config reference", 1)[1].split("\n###", 1)[0]
    rows = [ln.split("|")[1] for ln in table.splitlines()
            if ln.startswith("| `")]
    return {k for cell in rows for k in re.findall(r"`([^`]+)`", cell)}


class TestReadmeConfigTable:
    def test_lists_exactly_the_keys_cli_reads(self):
        read = keys_cli_reads()
        assert {"data.ili", "querysel.target_stopwords",
                "correlate.shift.<CC>"} <= read
        assert keys_readme_lists() == read
