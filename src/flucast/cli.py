"""Command-line orchestration: decompose, select-queries, train, forecast,
evaluate, correlate. Config is flat key=value text with dotted section
prefixes; all randomness flows from a single seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import datahub, decompose, evalbench, fluenet, querysel, trainer
from . import numkit as nk


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    """Parse key=value lines; '#' starts a comment; keys keep dots."""
    cfg = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing config key {key!r}")
    return default


def _cast(key, raw, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: malformed {cast.__name__} "
                          f"{raw!r}") from None


def _get_num(cfg, key, default, cast=int):
    raw = _get(cfg, key)
    return default if raw is None else _cast(key, raw, cast)


def _get_list(cfg, key, default=None, cast=str):
    raw = _get(cfg, key)
    if raw is None:
        return default
    return [_cast(key, v.strip(), cast) for v in raw.split(",") if v.strip()]


def _get_bool(cfg, key, default=False):
    raw = _get(cfg, key)
    if raw is None:
        return default
    return raw.lower() in ("1", "true", "yes", "on")


def _load_ili(cfg, countries) -> dict:
    """The ILI series of each named country, in the given order; a
    country with no rows in the file is a DataError naming both."""
    path = _get(cfg, "data.ili", required=True)
    series = datahub.load_ili(path)
    missing = [c for c in countries if c not in series]
    if missing:
        raise datahub.DataError(f"{path}: no rows for country "
                                f"{', '.join(missing)}")
    return {c: series[c] for c in countries}


def _split(cfg, series) -> datahub.SplitPlan:
    test_start = datahub.parse_week(_get(cfg, "split.test_start",
                                         required=True))
    return datahub.split_plan(series, test_start,
                              _get_num(cfg, "split.test_len", 52))


def _query_list(cfg, country) -> list:
    return querysel.read_selected(_get(cfg, f"queries.{country}",
                                       required=True))


def _trends(cfg, series, queries) -> datahub.QueryPanel:
    return datahub.load_trends(_get(cfg, "data.trends_dir", required=True),
                               series.country, queries, series)


def _fit_country(cfg, series, use_queries) -> tuple:
    """Fit one country's preprocessing on its training range.

    Returns (stored, seasonal, panel): the checkpoint `extra` entries of
    the fit, the STL seasonal over the training range, and the query
    panel min-max normalized on that range (None without queries).
    """
    c = series.country
    plan = _split(cfg, series)
    seasonal = decompose.stl_decompose(series.values[:plan.train_len],
                                       period=52).seasonal
    queries, panel, stats = [], None, []
    if use_queries:
        queries = _query_list(cfg, c)
        panel, stats = datahub.minmax_fit_apply(
            _trends(cfg, series, queries), plan.train)
        if not stats:
            raise datahub.DataError(
                f"{c}: no query left after dropping those constant on the "
                f"training range")
    stored = {f"seasonal.{c}": seasonal.tolist(), f"queries.{c}": queries,
              f"norm.{c}": stats}
    return stored, seasonal, panel


def _stored_fit(ckpt, extra, cfg, series, model) -> tuple:
    """Read back the preprocessing `train` fitted for one country.

    Returns (seasonal, panel) as `_fit_country` does, with the panel
    loaded for the kept queries only and normalized by the saved stats.
    A configured query list that differs from the trained one is a
    ConfigError; a missing or malformed entry is a ContractError naming
    the checkpoint and the key.
    """
    c = series.country

    def stored(key):
        name = f"{key}.{c}"
        if name not in extra:
            raise nk.ContractError(f"{ckpt}: checkpoint extra lacks {name}")
        return extra[name]

    def bad(key, problem):
        return nk.ContractError(f"{ckpt}: checkpoint extra {key}.{c} "
                                f"{problem}")

    seasonal = stored("seasonal")
    try:
        seasonal = np.array(seasonal, dtype=np.float64)
        if seasonal.ndim != 1:
            raise TypeError
    except (TypeError, ValueError):
        raise bad("seasonal", "is not a list of numbers") from None
    if not np.all(np.isfinite(seasonal)):
        raise bad("seasonal", "holds non-finite values")
    fit_len = _split(cfg, series).train_len
    if len(seasonal) != fit_len:
        raise bad("seasonal", f"has {len(seasonal)} weeks, but the training "
                              f"range of {c} in {_get(cfg, 'data.ili')} has "
                              f"{fit_len}")

    trained = stored("queries")
    configured = _query_list(cfg, c) if model.use_queries else []
    if configured != trained:
        raise ConfigError(f"{c}: queries {configured} differ from the "
                          f"{trained} the checkpoint was trained on")

    norm = stored("norm")
    try:
        stats = [(q, float(mn), float(mx)) for q, mn, mx in norm]
        if not all(isinstance(q, str) for q, _, _ in stats):
            raise TypeError
    except (TypeError, ValueError):
        raise bad("norm", "is not a list of [query, min, max]") from None
    for q, mn, mx in stats:
        if not (np.isfinite(mn) and np.isfinite(mx) and mn < mx):
            raise bad("norm", f"query {q!r} has min {mn!r} and max {mx!r}, "
                              f"not finite with min < max")
    lo = 1 if model.use_queries else 0
    if not lo <= len(stats) <= model.l_queries:
        raise bad("norm", f"has {len(stats)} queries, the model takes "
                          f"{lo} to {model.l_queries}")
    panel = None
    if model.use_queries:
        panel = datahub.minmax_apply(
            _trends(cfg, series, [q for q, _, _ in stats]), stats)
    return seasonal, panel


def _apply_country(cfg, series, seasonal_fit, panel) -> dict:
    """One country's split, full-length seasonal array and template, from
    its training-range seasonal and its normalized query panel."""
    plan = _split(cfg, series)
    fit_len = plan.train_len
    template = decompose.seasonal_template(seasonal_fit, 52)
    seasonal = np.concatenate([seasonal_fit, decompose.extend_seasonal(
        template, fit_len - 1, len(series) - fit_len)])
    return {"series": series, "plan": plan, "template": template,
            "seasonal": seasonal, "panel": panel}


def _windows(p, part, n_in, s_out) -> list:
    """Windows of n_in input and s_out target weeks for one part of a
    prepared country's split: all of them inside the training range, or
    those whose targets lie in the validation or test range."""
    make = (datahub.make_windows if part == "train"
            else datahub.make_target_windows)
    return make(p["series"], p["panel"], p["seasonal"], n_in, s_out,
                getattr(p["plan"], part))


def _prepare_trained(cfg, ckpt, model, extra) -> dict:
    """Prepare each checkpoint country with its saved preprocessing."""
    return {c: _apply_country(cfg, s, *_stored_fit(ckpt, extra, cfg, s,
                                                   model))
            for c, s in _load_ili(cfg, model.countries).items()}


def _countries(cfg, args):
    if getattr(args, "countries", None):
        return [c.strip() for c in args.countries.split(",")]
    lst = _get_list(cfg, "countries")
    if not lst:
        raise ConfigError("missing config key 'countries'")
    return lst


def cmd_decompose(cfg, args) -> int:
    out = args.out
    for country, series in _load_ili(cfg, _countries(cfg, args)).items():
        d = decompose.stl_decompose(series.values, period=52)
        recon = d.reconstruct()
        if np.max(np.abs(recon - series.values)) > 1e-9:
            raise ConfigError(f"{country}: reconstruction identity violated")
        path = os.path.join(out, f"decomp_{country}.csv")
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["iso_week", "observed", "trend", "seasonal",
                        "remainder"])
            for i, week in enumerate(series.weeks()):
                w.writerow([datahub.format_week(week),
                            repr(float(series.values[i])),
                            repr(float(d.trend[i])),
                            repr(float(d.seasonal[i])),
                            repr(float(d.remainder[i]))])
        print(f"wrote {path}")
    return 0


def cmd_select_queries(cfg, args) -> int:
    english = querysel.read_selected(_get(cfg, "querysel.english_queries",
                                          required=True))
    out_path = os.path.join(args.out, "selected_queries.csv")
    if args.method == "mapping":
        selected = querysel.translation_select(
            _get(cfg, "querysel.mapping", required=True), english)
        cands = [querysel.QueryCandidate(english=e, candidate=s,
                                         theta_w=float("nan"),
                                         theta_t=float("nan"))
                 for e, s in zip(english, selected)]
        querysel.write_selected(out_path, cands)
        print(f"wrote {out_path}")
        return 0

    source = querysel.load_embeddings(
        _get(cfg, "querysel.source_embeddings", required=True), "source")
    target = querysel.load_embeddings(
        _get(cfg, "querysel.target_embeddings", required=True), "target")
    stopwords = set()
    for key in ("querysel.source_stopwords", "querysel.target_stopwords"):
        path = _get(cfg, key)
        if path:
            stopwords |= querysel.load_stopwords(path)
    country = _get(cfg, "querysel.country", required=True)
    series = _load_ili(cfg, [country])[country]
    fit_len = _split(cfg, series).train_len
    cand_dir = _get(cfg, "querysel.candidates_dir", required=True)

    def provider(candidate):
        path = os.path.join(cand_dir, datahub.query_slug(candidate) + ".csv")
        if not os.path.exists(path):
            return None
        return datahub.read_trend(path, series)[:fit_len]

    selected = querysel.wt_select(
        english, source, target, provider, series.values[:fit_len],
        k=_get_num(cfg, "querysel.k", 100), stopwords=stopwords)
    querysel.write_selected(out_path, selected)
    print(f"wrote {out_path}")
    return 0


def _train_config(cfg, args, countries, mode) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        countries=countries,
        n_in=_get_num(cfg, "model.n", 52),
        s_out=_get_num(cfg, "model.s", 5),
        lr_grid=tuple(_get_list(cfg, "train.lr_grid",
                                [0.001, 0.01, 0.1, 1.0], float)),
        m_grid=tuple(_get_list(cfg, "train.m_grid", [8, 16, 32, 64], int)),
        max_epochs=_get_num(cfg, "train.max_epochs", 300),
        patience=_get_num(cfg, "train.patience", 20),
        batch_size=_get_num(cfg, "train.batch_size", 32),
        seed=args.seed if args.seed is not None
        else _get_num(cfg, "seed", 0),
        mode=mode,
        use_queries=not (args.no_queries or _get_bool(cfg, "no_queries")),
        use_country_embedding=not (args.no_country_embedding
                                   or _get_bool(cfg, "no_country_embedding")),
        standard_gru=_get_bool(cfg, "standard_gru"),
        arch=_get(cfg, "model.arch", "proposed"))


def cmd_train(cfg, args) -> int:
    countries = _countries(cfg, args)
    mode = args.mode or _get(cfg, "mode", "single")
    tc = _train_config(cfg, args, countries, mode)
    extra, data = {"term": _get(cfg, "term", "")}, {}
    for c, series in _load_ili(cfg, countries).items():
        stored, seasonal, panel = _fit_country(cfg, series, tc.use_queries)
        extra.update(stored)
        p = _apply_country(cfg, series, seasonal, panel)
        data[c] = {part: _windows(p, part, tc.n_in, tc.s_out)
                   for part in ("train", "val")}
    model, log = trainer.fit(tc, data)
    ckpt = os.path.join(args.out, "checkpoint.json")
    fluenet.save_checkpoint(ckpt, model, extra)
    log_path = os.path.join(args.out, "trainlog.csv")
    log.write_csv(log_path, sorted(countries))
    print(f"wrote {ckpt} (lr={log.lr}, M={log.m}, "
          f"best epoch {log.chosen_epoch})")
    print(f"wrote {log_path}")
    return 0


def cmd_evaluate(cfg, args) -> int:
    model, extra = fluenet.load_checkpoint(args.checkpoint)
    term = extra.get("term", "")
    prepared = _prepare_trained(cfg, args.checkpoint, model, extra)
    reports = []
    for c, p in prepared.items():
        test = _windows(p, "test", model.n_in, model.s_out)
        reports.append(evalbench.evaluate_model(model, test, c, "proposed",
                                                term))
        if args.with_baselines:
            reports.append(evalbench.evaluate(
                evalbench.seasonal_naive, test, model.s_out,
                "seasonal_naive", c, term))
            if p["panel"] is not None:
                fit_len = p["plan"].train_len
                ar = evalbench.fit_ar_exog(p["series"].values[:fit_len],
                                           p["panel"].matrix[:fit_len],
                                           p=model.n_in)

                def ar_predict(sample, ar=ar, p=p):
                    lq = p["panel"].matrix[
                        sample.last_week + 1 - p["panel"].start]
                    lags = sample.x_raw[::-1][:ar.order]
                    out = np.full(model.s_out, np.nan)
                    out[0] = ar.predict_one(lags, lq)
                    return out

                reports.append(evalbench.evaluate(
                    ar_predict, test, model.s_out, "ar_exog", c, term))
    evalbench.write_report(os.path.join(args.out, "report.csv"), reports)
    evalbench.write_forecasts(os.path.join(args.out, "forecasts.csv"),
                              reports)
    evalbench.write_attention(
        os.path.join(args.out, "attention.csv"), reports,
        {c: p["panel"].queries for c, p in prepared.items()
         if p["panel"] is not None})
    print(f"wrote {args.out}/report.csv, forecasts.csv, attention.csv")
    return 0


def cmd_forecast(cfg, args) -> int:
    """Forecast S weeks past the end of each country's series."""
    model, extra = fluenet.load_checkpoint(args.checkpoint)
    rows = []
    for c, p in _prepare_trained(cfg, args.checkpoint, model,
                                 extra).items():
        series, seasonal = p["series"], p["seasonal"]
        template = p["template"]
        n = len(series)
        x_des = (series.values[n - model.n_in:]
                 - seasonal[n - model.n_in:]).reshape(1, -1)
        if p["panel"] is not None:
            q = p["panel"].matrix[n - model.n_in:]
            q = q.reshape(1, *q.shape)
        else:
            q = np.zeros((1, model.n_in, 0))
        o_hat, _ = fluenet.forward_batch(model, c, x_des, q)
        x_seas = decompose.extend_seasonal(template, n - 1, model.s_out)
        y_hat = o_hat.data[0] + x_seas
        for h in range(model.s_out):
            rows.append((series.end + 1 + h, c, h + 1, float(y_hat[h])))
    path = os.path.join(args.out, "forecasts.csv")
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["iso_week", "country", "horizon", "y_pred"])
        for week, c, h, v in rows:
            w.writerow([datahub.format_week(week), c, h, repr(v)])
    print(f"wrote {path}")
    return 0


def cmd_correlate(cfg, args) -> int:
    countries = _countries(cfg, args)
    shifts = {c: _get_num(cfg, f"correlate.shift.{c}", 0)
              for c in countries}
    matrix = evalbench.correlation_report(_load_ili(cfg, countries), shifts)
    path = os.path.join(args.out, "correlations.csv")
    evalbench.write_correlations(path, matrix)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flucast",
        description="Multi-country influenza forecasting toolkit")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose")
    p.add_argument("--countries", default=None)

    p = sub.add_parser("select-queries")
    p.add_argument("--method", choices=["wt", "mapping"], default="wt")

    p = sub.add_parser("train")
    p.add_argument("--mode", choices=["single", "multi"], default=None)
    p.add_argument("--countries", default=None)
    p.add_argument("--no-country-embedding", action="store_true")
    p.add_argument("--no-queries", action="store_true")

    p = sub.add_parser("evaluate")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--with-baselines", action="store_true")

    p = sub.add_parser("forecast")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("correlate")
    p.add_argument("--countries", default=None)

    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        cfg = load_config(args.config)
        handler = {
            "decompose": cmd_decompose,
            "select-queries": cmd_select_queries,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "forecast": cmd_forecast,
            "correlate": cmd_correlate,
        }[args.command]
        return handler(cfg, args)
    except (ConfigError, datahub.DataError, querysel.SelectionError,
            querysel.MappingError, querysel.EmptyContentError,
            evalbench.MetricError,
            trainer.TrainingError, decompose.ParameterError,
            decompose.InsufficientDataError, nk.ContractError,
            nk.NonFiniteError, nk.ShapeError, FileNotFoundError,
            KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
