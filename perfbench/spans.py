"""Traced runs of flucast commands, and the per-layer metrics from them.

Run as a script, this is a stand-in for `python -m flucast.cli`: it
wraps the public functions of each flucast module, runs the command, and
writes the recorded spans to a JSON file when the command ends. Each
span is [name, start, end, parent], with times from `perf_counter` and
parent the index of the enclosing span (-1 for none). Spans stay in
memory until then.

    python3 perfbench/spans.py --spans-out spans.json --command-id 3 \
        -- --config flucast.cfg --out out train

`layer_metrics` turns the span files of one or more traced jobs into
the per-layer metrics listed in `TIMED` and `SCALARS`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
import time

# Functions whose spans give calls, total and self time, and per-call
# median and tail. Names are module.function as the layer sees them.
TIMED = [
    "numkit.backward", "numkit.Adam.step",
    "fluenet.forward_batch.train", "fluenet.forward_batch.infer",
    "fluenet.encode_ili", "fluenet.encode_queries", "fluenet.attend",
    "fluenet.decode", "fluenet.save_checkpoint", "fluenet.load_checkpoint",
    "trainer.fit", "trainer.step",
    "decompose.stl_decompose", "decompose.loess_smooth",
    "datahub.load_ili", "datahub.load_trends", "datahub.minmax_fit_apply",
    "datahub.make_windows",
    "querysel.wt_select", "querysel.cosine_topk", "querysel.load_embeddings",
    "evalbench.evaluate_model", "evalbench.evaluate", "evalbench.fit_ar_exog",
]
# Called once per job, so a per-call median or tail would only repeat
# total_s.
ONCE_PER_JOB = {"trainer.fit", "querysel.wt_select",
                "fluenet.save_checkpoint"}
SCALARS = {
    "numkit.tape_entries_per_step": ("count", "lower"),
    "fluenet.gru_cell.calls": ("count", "lower"),
    "trainer.fit.grid_points": ("count", "higher"),
    "trainer.fit.diverged_share": ("ratio", "lower"),
    "trainer.data_wait_s": ("s", "lower"),
    "trainer.validation_s": ("s", "lower"),
    "decompose.stl_calls_per_country": ("count", "lower"),
    "querysel.candidates_tried": ("count", "lower"),
    "querysel.candidate_hit_ratio": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.total_s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        if name not in ONCE_PER_JOB:
            out[f"{name}.p50_ms"] = ("ms", "lower")
            out[f"{name}.tail_ms"] = ("ms", "lower")
    out.update(SCALARS)
    return out


class Recorder:
    """Span stack for one command process, plus counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = {}
        self.samples = {}
        self.open_tapes = 0
        self.in_fit = False
        self.in_select = False
        self.step = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span idx, and any span left open inside it by an exception."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`.

    A caller resolves a function through its own module's globals, so
    `from .x import f` makes a second binding that must be replaced too.
    """
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _spanned(rec, fn, name, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        if before is not None:
            before(args, kwargs)
        idx = rec.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the traced flucast functions; the recorder collects spans."""
    from flucast import (cli, datahub, decompose, evalbench, fluenet, numkit,
                         querysel, trainer)
    modules = [cli, datahub, decompose, evalbench, fluenet, numkit, querysel,
               trainer]

    def wrap(mod, attr, name=None, **hooks):
        fn = getattr(mod, attr)
        label = name or f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
        _rebind(modules, fn, _spanned(rec, fn, label, **hooks))

    for mod, attrs in (
            (fluenet, ["encode_ili", "encode_queries", "attend", "decode",
                       "save_checkpoint", "load_checkpoint"]),
            (decompose, ["stl_decompose", "loess_smooth"]),
            (datahub, ["load_ili", "load_trends", "minmax_fit_apply",
                       "make_windows"]),
            (querysel, ["cosine_topk", "load_embeddings"]),
            (evalbench, ["evaluate_model", "evaluate", "fit_ar_exog"])):
        for attr in attrs:
            wrap(mod, attr)

    # Tape activity, read through the public context-manager protocol.
    tape_enter, tape_exit = numkit.GradTape.__enter__, numkit.GradTape.__exit__

    def enter(self):
        out = tape_enter(self)
        rec.open_tapes += 1
        return out

    def exit_(self, *exc):
        rec.open_tapes -= 1
        return tape_exit(self, *exc)

    numkit.GradTape.__enter__, numkit.GradTape.__exit__ = enter, exit_

    wrap(numkit, "backward", before=lambda a, k: rec.sample(
        "numkit.tape_entries_per_step", len(a[0] if a else k["tape"])))

    def end_step(args, kwargs, result):
        if rec.step is not None and rec.stack and rec.stack[-1] == rec.step:
            rec.close(rec.step)
            rec.step = None

    numkit.Adam.step = _spanned(rec, numkit.Adam.step, "numkit.Adam.step",
                                after=end_step)

    def begin_step(args, kwargs):
        if rec.step in rec.stack:  # left open by a diverged grid point
            rec.close(rec.step)
        rec.step = rec.open("trainer.step")

    wrap(trainer, "sample_country_batch", before=begin_step)

    def forward_kind(args, kwargs):
        if rec.open_tapes:
            return "fluenet.forward_batch.train"
        if rec.in_fit:
            return "fluenet.forward_batch.validation"
        return "fluenet.forward_batch.infer"

    wrap(fluenet, "forward_batch", name=forward_kind)

    gru_cell = fluenet.gru_cell

    @functools.wraps(gru_cell)
    def counted_gru_cell(*args, **kwargs):
        rec.count("fluenet.gru_cell.calls")
        return gru_cell(*args, **kwargs)

    _rebind(modules, gru_cell, counted_gru_cell)

    def fit_begin(args, kwargs):
        config = args[0] if args else kwargs["config"]
        rec.count("trainer.fit.grid_points",
                  len(config.lr_grid) * len(config.m_grid))
        rec.in_fit = True

    def fit_end(args, kwargs, result):
        rec.in_fit = False
        rec.count("trainer.fit.diverged_points",
                  len(result[1].diverged_grid_points))

    wrap(trainer, "fit", before=fit_begin, after=fit_end)

    pearson = querysel.pearson

    @functools.wraps(pearson)
    def counted_pearson(*args, **kwargs):
        r = pearson(*args, **kwargs)
        if rec.in_select:
            rec.count("querysel.candidates_usable")
        return r

    _rebind(modules, pearson, counted_pearson)

    def provider_counter(provider):
        def counted(candidate):
            rec.count("querysel.candidates_tried")
            return provider(candidate)
        return counted

    wt_select = querysel.wt_select

    @functools.wraps(wt_select)
    def select_wrapper(english, source, target, trends_provider, *args,
                       **kwargs):
        rec.in_select = True
        try:
            return wt_select(english, source, target,
                             provider_counter(trends_provider), *args,
                             **kwargs)
        finally:
            rec.in_select = False

    _rebind(modules, wt_select,
            _spanned(rec, select_wrapper, "querysel.wt_select"))


def _percentile(durations, pct) -> float:
    """Nearest-rank percentile."""
    d = sorted(durations)
    return d[max(1, math.ceil(pct * len(d) / 100)) - 1]


def _tail(durations) -> float:
    """Highest whole percentile with at least 10 samples above it.

    With fewer than 20 samples no percentile at or above the median
    qualifies, and the median is returned.
    """
    n = len(durations)
    if n < 20:
        return _percentile(durations, 50)
    return _percentile(durations, math.floor(100 * (n - 10) / n))


def layer_metrics(span_docs, n_countries: int) -> dict:
    """Per-layer metrics averaged over the traced jobs in `span_docs`.

    `span_docs` holds, per job, the span documents of its commands.
    Counts, totals and self times are per job; per-call medians and
    tails pool the calls of every job.
    """
    jobs = len(span_docs)
    durations = {}
    self_time = {}
    counts = {}
    samples = {}
    for docs in span_docs:
        for doc in docs:
            spans = doc["spans"]
            child = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, start, end, parent) in enumerate(spans):
                durations.setdefault(name, []).append(end - start)
                self_time[name] = self_time.get(name, 0.0) + (
                    end - start - child[i])
            for name, n in doc["counts"].items():
                counts[name] = counts.get(name, 0) + n
            for name, vals in doc["samples"].items():
                samples.setdefault(name, []).extend(vals)

    out = {}
    for name in TIMED:
        d = durations.get(name, [])
        out[f"{name}.calls"] = len(d) / jobs
        out[f"{name}.total_s"] = sum(d) / jobs
        out[f"{name}.self_s"] = self_time.get(name, 0.0) / jobs
        if name not in ONCE_PER_JOB and d:
            out[f"{name}.p50_ms"] = 1e3 * _percentile(d, 50)
            out[f"{name}.tail_ms"] = 1e3 * _tail(d)
    tape = samples.get("numkit.tape_entries_per_step", [])
    if tape:
        out["numkit.tape_entries_per_step"] = statistics.median(tape)
    out["fluenet.gru_cell.calls"] = counts.get(
        "fluenet.gru_cell.calls", 0) / jobs
    grid = counts.get("trainer.fit.grid_points", 0)
    out["trainer.fit.grid_points"] = grid / jobs
    if grid:
        out["trainer.fit.diverged_share"] = counts.get(
            "trainer.fit.diverged_points", 0) / grid
    out["trainer.data_wait_s"] = sum(
        durations.get("trainer.sample_country_batch", [])) / jobs
    out["trainer.validation_s"] = sum(
        durations.get("fluenet.forward_batch.validation", [])) / jobs
    out["decompose.stl_calls_per_country"] = (
        len(durations.get("decompose.stl_decompose", [])) / jobs
        / n_countries)
    tried = counts.get("querysel.candidates_tried", 0)
    out["querysel.candidates_tried"] = tried / jobs
    if tried:
        out["querysel.candidate_hit_ratio"] = counts.get(
            "querysel.candidates_usable", 0) / tried
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--command-id", type=int, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    rec = Recorder()
    install(rec)
    from flucast import cli
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        if rec.stack:
            rec.close(rec.stack[0])
        with open(args.spans_out, "w", encoding="utf-8") as f:
            json.dump({"command_id": args.command_id, "spans": rec.spans,
                       "counts": rec.counts, "samples": rec.samples}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
