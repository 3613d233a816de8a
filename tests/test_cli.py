import csv
import json

import numpy as np
import pytest

from flucast import cli, datahub, querysel
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
    rc = run(config, out, "train", "--mode", "single",
             "--countries", "US")
    assert rc == 0
    return config, out


class TestTrainCommand:
    def test_single_mode_artifacts(self, trained_single):
        config, out = trained_single
        ckpt = json.loads((out / "checkpoint.json"
                           ).read_text(encoding="utf-8"))
        assert ckpt["meta"]["countries"] == ["US"]
        assert "template.US" in ckpt["extra"]
        assert len(ckpt["extra"]["template.US"]) == 52
        assert ckpt["extra"]["queries.US"] == QUERIES
        lines = (out / "trainlog.csv").read_text(encoding="utf-8"
                                                 ).splitlines()
        assert lines[0] == "epoch,train_mse,val_mse_US"
        assert len(lines) <= 4

    def test_same_seed_reproduces_checkpoint_bytes(self, workspace,
                                                   tmp_path):
        root, config = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(config, out, "train", "--mode", "single",
                       "--countries", "US") == 0
        assert ((a / "checkpoint.json").read_bytes()
                == (b / "checkpoint.json").read_bytes())
        assert ((a / "trainlog.csv").read_bytes()
                == (b / "trainlog.csv").read_bytes())

    def test_no_queries_drops_attention(self, workspace, tmp_path):
        root, config = workspace
        assert run(config, tmp_path, "train", "--mode", "single",
                   "--countries", "US", "--no-queries") == 0
        ckpt = json.loads((tmp_path / "checkpoint.json"
                           ).read_text(encoding="utf-8"))
        assert not any("attention" in n or "query_encoder" in n
                       for n in ckpt["tensors"])
        assert ckpt["extra"]["queries.US"] == []

    def test_multi_mode_covers_both_countries(self, workspace, tmp_path):
        root, config = workspace
        assert run(config, tmp_path, "train", "--mode", "multi") == 0
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
        assert run(config, tmp_path / "out", "train", "--mode", "multi") == 0
        ckpt = json.loads((tmp_path / "out" / "checkpoint.json"
                           ).read_text(encoding="utf-8"))
        counts = [len(ckpt["extra"][f"queries.{c}"]) for c in ("JP", "US")]
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
    assert run(config, out, "train", "--mode", "multi") == 0
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
        argv = ["train", "--mode", "single", "--countries", "US"]
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
        argv = ["train", "--mode", "single", "--countries", "US"]
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
        pytest.param("shared.ili_encoder.u_h", put_huge,
                     "gru_sequence produced non-finite values",
                     marks=pytest.mark.filterwarnings("ignore:overflow")),
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
        (lambda doc: {**doc, "version": 99}, "checkpoint version 99 is not 1"),
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
         "tensor shared.fusion.b1 data does not fill its shape")],
        ids=["not_json", "other_format", "version", "empty_meta",
             "missing_tensor", "unexpected_tensor", "bad_arch",
             "short_data"])
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
        assert run(cfg2, tmp_path, "train", "--mode", "single",
                   "--countries", "US") == 0
        fewer = tmp_path / "fewer.txt"
        fewer.write_text(QUERIES[0] + "\n", encoding="utf-8")
        cfg2.write_text(cfg2.read_text(encoding="utf-8")
                        + f"queries.US = {fewer}\n", encoding="utf-8")
        assert run(cfg2, tmp_path / "eval", "evaluate", "--checkpoint",
                   str(tmp_path / "checkpoint.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: US: queries") and "differ" in err

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
        ("train.max_epochs = 0", "max_epochs must be >= 1, got 0"),
        ("model.n = 0", "n_in must be >= 1, got 0"),
        ("model.s = 0", "s_out must be >= 1, got 0"),
        ("querysel.k = 0", "k must be >= 1, got 0")],
        ids=["lr", "m", "max_epochs", "n", "s", "k"])
    def test_out_of_range_setting_is_one_line(self, tmp_path, capsys, edit,
                                              message):
        config = build_workspace(tmp_path)
        config, _ = build_wt_inputs(tmp_path, config, tmp_path)
        config.write_text(config.read_text(encoding="utf-8") + edit + "\n",
                          encoding="utf-8")
        argv = (["select-queries"] if edit.startswith("querysel.")
                else ["train", "--mode", "single", "--countries", "US"])
        assert run(config, tmp_path / "out", *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.filterwarnings("ignore:US. query")
    def test_every_query_constant_is_data_error(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        for q in QUERIES:
            path = tmp_path / "trends" / "US" / (datahub.query_slug(q)
                                                 + ".csv")
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join([lines[0]] + [
                ln.split(",")[0] + ",1.0" for ln in lines[1:]]) + "\n",
                encoding="utf-8")
        assert run(config, tmp_path / "out", "train", "--mode", "single",
                   "--countries", "US") == 1
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
        assert run(config, tmp_path / "out", "train", "--mode", "multi") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gru_baseline") and err.count("\n") == 1
        assert "JP: L=1" in err and "US: L=2" in err


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
