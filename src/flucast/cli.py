"""Command-line orchestration: decompose, select-queries, train, forecast,
evaluate, correlate. Config is flat key=value text with dotted section
prefixes; all randomness flows from a single seed.

Each command runs in its own process, so the flucast modules beyond
`datahub` are imported inside the functions that use them: a process
loads only what its command runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import Error, datahub


class ConfigError(Error):
    pass


def load_config(path: str) -> dict:
    """Parse key=value lines; '#' starts a comment; keys keep dots."""
    cfg = {}
    with datahub.open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _get(cfg, key, default=..., cast=str, least=None, most=None):
    """The value of config `key` read by `cast`, or `default` when the key
    is absent; with no default the key is required.

    `cast` is str, int, float or bool, or a one-type tuple such as
    (float,) for a comma-separated list, read as a tuple. A boolean is
    true, yes, on or 1, or false, no, off or 0, in any case. Given bounds,
    a number, or each number of a list, must lie in least..most, and the
    list must not be empty. A value that does not read or breaks its
    bounds is a ConfigError naming the key.
    """
    if key not in cfg:
        if default is ...:
            raise ConfigError(f"missing config key {key!r}")
        return default
    raw = cfg[key]
    if isinstance(cast, tuple):
        values = tuple(_get({key: v.strip()}, key, ..., cast[0], least, most)
                       for v in raw.split(",") if v.strip())
        if not values and least is not None:
            raise ConfigError(f"config key {key!r}: empty list")
        return values
    try:
        value = _BOOLS[raw.lower()] if cast is bool else cast(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key!r}: malformed {cast.__name__} "
                          f"{raw!r}") from None
    if least is not None and not least <= value <= most:
        raise ConfigError(f"config key {key!r}: {value!r} is outside "
                          f"{least!r}..{most!r}")
    return value


def _load_ili(cfg, countries) -> dict:
    """The ILI series of each named country, in the given order; a
    country with no rows in the file is a DataError naming both."""
    path = _get(cfg, "data.ili")
    series = datahub.load_ili(path)
    missing = [c for c in countries if c not in series]
    if missing:
        raise datahub.DataError(f"{path}: no rows for country "
                                f"{', '.join(missing)}")
    return {c: series[c] for c in countries}


def _split(cfg, series) -> datahub.SplitPlan:
    raw = _get(cfg, "split.test_start")
    try:
        test_start = datahub.parse_week(raw)
    except datahub.DataError as e:
        raise ConfigError(f"config key 'split.test_start': {e}") from None
    if test_start < 0:
        raise ConfigError("config key 'split.test_start': week 53 is dropped")
    return datahub.split_plan(series, test_start, _test_len(cfg))


def _test_len(cfg) -> int:
    return _get(cfg, "split.test_len", 52, int, 1, 416)


def _extra_entry(path, extra, key):
    """Entry `key` of checkpoint `path`'s `extra`; a missing one is refused."""
    from .numkit import ContractError
    if key not in extra:
        raise ContractError(f"{path}: checkpoint extra lacks {key}")
    return extra[key]


@dataclass(frozen=True)
class CountryFit:
    """One country's preprocessing, fitted on its training range and kept
    in the checkpoint's `extra` as `seasonal.<CC>`, `queries.<CC>` (the
    configured queries) and `norm.<CC>` (the kept ones' min and max)."""

    seasonal: np.ndarray
    queries: tuple
    norm: tuple

    def to_extra(self, c) -> dict:
        return {f"seasonal.{c}": self.seasonal.tolist(),
                f"queries.{c}": list(self.queries),
                f"norm.{c}": [list(s) for s in self.norm]}

    @classmethod
    def from_extra(cls, path, extra, c, train_len, ili, queries,
                   l_queries) -> CountryFit:
        """Country `c`'s record in checkpoint `path`'s `extra`, checked
        against its `train_len` training weeks in ILI file `ili`, its
        configured `queries` and the model's query count `l_queries`."""
        from .numkit import ContractError

        def bad(key, problem):
            return ContractError(f"{path}: checkpoint extra {key}.{c} "
                                 f"{problem}")

        seasonal = _extra_entry(path, extra, f"seasonal.{c}")
        try:
            seasonal = np.array(seasonal, dtype=np.float64)
            if seasonal.ndim != 1:
                raise TypeError
        except (TypeError, ValueError):
            raise bad("seasonal", "is not a list of numbers") from None
        if not np.all(np.isfinite(seasonal)):
            raise bad("seasonal", "holds non-finite values")
        if len(seasonal) != train_len:
            raise bad("seasonal", f"has {len(seasonal)} weeks, but the "
                                  f"training range of {c} in {ili} has "
                                  f"{train_len}")
        trained = _extra_entry(path, extra, f"queries.{c}")
        if queries != trained:
            raise ConfigError(f"{c}: queries {queries} differ from the "
                              f"{trained} the checkpoint was trained on")
        norm = _extra_entry(path, extra, f"norm.{c}")
        try:
            norm = tuple((q, float(mn), float(mx)) for q, mn, mx in norm)
            if not all(isinstance(q, str) for q, _, _ in norm):
                raise TypeError
        except (TypeError, ValueError):
            raise bad("norm", "is not a list of [query, min, max]") from None
        for q, mn, mx in norm:
            if not (np.isfinite(mn) and np.isfinite(mx) and mn < mx):
                raise bad("norm", f"query {q!r} has min {mn!r} and max "
                                  f"{mx!r}, not finite with min < max")
        lo = min(l_queries, 1)
        if not lo <= len(norm) <= l_queries:
            raise bad("norm", f"has {len(norm)} queries, the model takes "
                              f"{lo} to {l_queries}")
        kept = iter(trained)
        if not all(q in kept for q, _, _ in norm):
            raise bad("norm", f"names queries that are not an ordered "
                              f"sub-list of queries.{c}")
        return cls(seasonal, tuple(trained), norm)


def _prepare(cfg, series, l_queries, ckpt=None, extra=None) -> dict:
    """One country's series, split plan, record `fit`, query panel
    normalized by it (L = 0, and no trends read, without queries) and
    seasonal over the series. Without a checkpoint the record is fitted,
    with queries if `l_queries` is true; with one it is read from `extra`."""
    from . import decompose, querysel
    c, plan = series.country, _split(cfg, series)
    queries = (querysel.read_selected(_get(cfg, f"queries.{c}"))
               if l_queries else [])
    trends_dir = _get(cfg, "data.trends_dir") if queries else ""
    if extra is None:
        seasonal = decompose.stl_decompose(series.values[:plan.train_len],
                                           period=52).seasonal
        panel, norm = datahub.minmax_fit_apply(datahub.load_trends(
            trends_dir, queries, series), plan.train_len)
        if queries and not norm:
            raise datahub.DataError(f"{c}: no query left after dropping "
                                    f"those constant on the training range")
        fit = CountryFit(seasonal, tuple(queries), tuple(norm))
    else:
        fit = CountryFit.from_extra(ckpt, extra, c, plan.train_len,
                                    _get(cfg, "data.ili"), queries,
                                    l_queries)
        panel = datahub.minmax_apply(datahub.load_trends(
            trends_dir, [q for q, _, _ in fit.norm], series), fit.norm)
    return {"series": series, "plan": plan, "fit": fit, "panel": panel,
            "seasonal": decompose.extend_seasonal(fit.seasonal, 52,
                                                  len(series))}


def _windows(p, targets, n_in, s_out) -> datahub.Windows:
    """A prepared country's windows of n_in input and s_out target weeks
    whose targets lie in the week range `targets`."""
    return datahub.make_windows(p["series"], p["panel"], p["seasonal"],
                                n_in, s_out, targets)


def _trained(cfg, ckpt) -> tuple:
    """Checkpoint `ckpt`'s model, its term, and its countries prepared."""
    from . import fluenet, numkit
    model, extra = fluenet.load_checkpoint(ckpt)
    term = _extra_entry(ckpt, extra, "term")
    if not isinstance(term, str):
        raise numkit.ContractError(f"{ckpt}: checkpoint extra term is not a "
                                   f"string")
    return model, term, {
        c: _prepare(cfg, s, model.l_queries, ckpt, extra)
        for c, s in _load_ili(cfg, model.countries).items()}


@contextlib.contextmanager
def _naming(ckpt):
    """A non-finite value in the forward pass of checkpoint `ckpt`'s model,
    or in a metric of its forecasts, is an error naming the file."""
    from .numkit import NonFiniteError
    try:
        yield
    except NonFiniteError as e:
        raise type(e)(f"{ckpt}: {e}") from None


def _countries(cfg, args):
    """The list of --countries, or else of config key `countries`; an
    empty list, or a country named twice, is a ConfigError."""
    flag = getattr(args, "countries", None)
    where = "--countries" if flag is not None else "config key 'countries'"
    countries = _get(cfg if flag is None else {"countries": flag},
                     "countries", cast=(str,))
    if not countries:
        raise ConfigError(f"{where} names no country")
    twice = sorted({c for c in countries if countries.count(c) > 1})
    if twice:
        raise ConfigError(f"{where} names {', '.join(twice)} twice")
    return countries


def cmd_decompose(cfg, args) -> int:
    from . import decompose
    out = args.out
    for country, series in _load_ili(cfg, _countries(cfg, args)).items():
        try:
            d = decompose.stl_decompose(series.values, period=52)
        except decompose.ParameterError as e:
            raise decompose.ParameterError(f"{country}: {e}") from None
        path = os.path.join(out, f"decomp_{country}.csv")
        datahub.write_csv(
            path, ["iso_week", "observed", "trend", "seasonal", "remainder"],
            ([datahub.format_week(week)]
             + [repr(float(a[i])) for a in (series.values, d.trend,
                                            d.seasonal, d.remainder)]
             for i, week in enumerate(series.weeks())))
        print(f"wrote {path}")
    return 0


def cmd_select_queries(cfg, args) -> int:
    from . import querysel
    english = querysel.read_selected(_get(cfg, "querysel.english_queries"))
    out_path = os.path.join(args.out, "selected_queries.csv")
    if args.method == "mapping":
        selected = querysel.translation_select(
            _get(cfg, "querysel.mapping"), english)
        cands = [querysel.QueryCandidate(english=e, candidate=s,
                                         theta_w=float("nan"),
                                         theta_t=float("nan"))
                 for e, s in zip(english, selected)]
        querysel.write_selected(out_path, cands)
        print(f"wrote {out_path}")
        return 0

    k = _get(cfg, "querysel.k", 100, int, 1, 800)
    # source stopwords leave the English queries, target ones the vocabulary
    stop = {}
    for key in ("querysel.source_stopwords", "querysel.target_stopwords"):
        path = _get(cfg, key, None)
        stop[key] = querysel.load_stopwords(path) if path else set()
    source = querysel.load_embeddings(
        _get(cfg, "querysel.source_embeddings"), "source")
    target = querysel.load_embeddings(
        _get(cfg, "querysel.target_embeddings"), "target",
        skip=stop["querysel.target_stopwords"])
    country = _get(cfg, "querysel.country")
    series = _load_ili(cfg, [country])[country]
    fit_len = _split(cfg, series).train_len
    cand_dir = _get(cfg, "querysel.candidates_dir")

    def provider(candidate):
        path = os.path.join(cand_dir, datahub.query_slug(candidate) + ".csv")
        if not os.path.exists(path):
            return None
        return datahub.read_trend(path, series)[:fit_len]

    selected = querysel.wt_select(
        english, source, target, provider, series.values[:fit_len], k=k,
        stopwords=stop["querysel.source_stopwords"])
    querysel.write_selected(out_path, selected)
    print(f"wrote {out_path}")
    return 0


def _train_config(cfg, args) -> trainer.TrainConfig:
    """The training settings, each from its key or its default, and the
    seed from --seed first; all are checked before any data is read."""
    from . import fluenet, trainer
    arch = _get(cfg, "model.arch", "proposed")
    if arch not in fluenet.ARCHS:
        raise ConfigError(f"config key 'model.arch': unknown arch {arch!r}")
    # upper bounds: 8x the largest the paper or perfbench uses
    return trainer.TrainConfig(
        n_in=_get(cfg, "model.n", 52, int, 1, 416),
        s_out=_get(cfg, "model.s", 5, int, 1, 40),
        lr_grid=_get(cfg, "train.lr_grid", (0.001, 0.01, 0.1, 1.0), (float,),
                     math.ulp(0.0), sys.float_info.max),
        m_grid=_get(cfg, "train.m_grid", (8, 16, 32, 64), (int,), 1, 512),
        max_epochs=_get(cfg, "train.max_epochs", 300, int, 1, 2400),
        patience=_get(cfg, "train.patience", 20, int, 1, 2400),
        batch_size=_get(cfg, "train.batch_size", 32, int, 1, 4096),
        seed=args.seed if args.seed is not None else _get(cfg, "seed", 0, int),
        use_country_embedding=not (
            args.no_country_embedding
            or _get(cfg, "no_country_embedding", False, bool)),
        arch=arch)


def cmd_train(cfg, args) -> int:
    from . import fluenet, trainer
    countries = _countries(cfg, args)
    tc = _train_config(cfg, args)
    test_len = _test_len(cfg)
    if test_len < tc.s_out + 1:  # `evaluate` needs two test windows
        raise ConfigError(f"split.test_len must be at least S + 1 = "
                          f"{tc.s_out + 1}, got {test_len}")
    use_queries = not (args.no_queries
                       or _get(cfg, "no_queries", False, bool))
    extra, data = {"term": _get(cfg, "term", "")}, {}
    for c, series in _load_ili(cfg, countries).items():
        p = _prepare(cfg, series, use_queries)
        extra.update(p["fit"].to_extra(c))
        data[c] = {part: _windows(p, getattr(p["plan"], part), tc.n_in,
                                  tc.s_out) for part in ("train", "val")}
    model, log = trainer.fit(tc, data)
    for point in log.diverged_grid_points:
        print(f"grid point lr={point['lr']} M={point['m']} diverged, skipped")
    ckpt = os.path.join(args.out, "checkpoint.json")
    fluenet.save_checkpoint(ckpt, model, extra)
    log_path = os.path.join(args.out, "trainlog.csv")
    log.write_csv(log_path, sorted(countries))
    print(f"wrote {ckpt} (lr={log.lr}, M={log.m}, "
          f"best epoch {log.chosen_epoch})")
    print(f"wrote {log_path}")
    return 0


def cmd_evaluate(cfg, args) -> int:
    from . import evalbench
    model, term, prepared = _trained(cfg, args.checkpoint)
    reports = []
    for c, p in prepared.items():
        test = _windows(p, p["plan"].test, model.n_in, model.s_out)
        if len(test) < 2:  # R² needs two
            raise ConfigError(f"{c}: one test window; split.test_len must be "
                              f"at least S + 1 = {model.s_out + 1}")
        with _naming(args.checkpoint):
            reports.append(evalbench.evaluate_model(model, test, c,
                                                    "proposed", term))
        if args.with_baselines:
            reports.append(evalbench.evaluate(
                evalbench.seasonal_naive(test), test, "seasonal_naive", c,
                term))
            if p["panel"].queries:
                reports.append(evalbench.evaluate(
                    evalbench.ar_exog(p["series"], p["panel"],
                                      p["plan"].train_len, test, model.n_in),
                    test, "ar_exog", c, term))
    evalbench.write_report(os.path.join(args.out, "report.csv"), reports)
    evalbench.write_forecasts(os.path.join(args.out, "forecasts.csv"),
                              reports)
    evalbench.write_attention(
        os.path.join(args.out, "attention.csv"), reports,
        {c: p["panel"].queries for c, p in prepared.items()})
    print(f"wrote {args.out}/report.csv, forecasts.csv, attention.csv")
    return 0


def cmd_forecast(cfg, args) -> int:
    """Forecast S weeks past the end of each country's series."""
    from . import decompose, fluenet
    model, _, prepared = _trained(cfg, args.checkpoint)
    rows = []
    for c, p in prepared.items():
        series = p["series"]
        last = _windows(p, (series.end + 1, series.end + model.s_out),
                        model.n_in, 0)
        with _naming(args.checkpoint):
            o_hat, _ = fluenet.forward_batch(model, c, last.x_des, last.q)
        y_hat = o_hat.data[0] + decompose.extend_seasonal(
            p["fit"].seasonal, 52, len(series) + model.s_out)[len(series):]
        rows += [[datahub.format_week(series.end + h), c, h,
                  repr(float(y_hat[h - 1]))]
                 for h in range(1, model.s_out + 1)]
    path = os.path.join(args.out, "forecasts.csv")
    datahub.write_csv(path, ["iso_week", "country", "horizon", "y_pred"],
                      rows)
    print(f"wrote {path}")
    return 0


def cmd_correlate(cfg, args) -> int:
    from . import evalbench
    countries = _countries(cfg, args)
    # bounds: 8x the AU alignment, 22 weeks
    shifts = {c: _get(cfg, f"correlate.shift.{c}", 0, int, -176, 176)
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
    try:
        os.makedirs(args.out, exist_ok=True)
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
    except (Error, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    """The process entry, of `python -m flucast.cli` and the `flucast`
    script: run `main`, then exit with its code.

    Every object still alive then lives until exit, so they are frozen
    first, and the interpreter's collections at shutdown skip them. An
    in-process caller of `main` keeps its collector as it was.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
