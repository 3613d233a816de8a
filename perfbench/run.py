"""flucast benchmark: a five-command forecasting job, timed end to end.

    python3 perfbench/run.py --workload train_grid --seed 1 --seconds 60 \
        --trace 0

Generates the workload's inputs from --seed, measures interpreter set-up,
then runs the job `decompose`, `select-queries --method wt`, `train`,
`evaluate --with-baselines`, `forecast` (each command its own process,
one at a time) as often as fits in --seconds. Every job's outputs are
checked. The last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics from traced jobs
(--trace 1). The full record, with the machine, goes to
perfbench/results/. `--workload all` runs every workload both ways and
prints each metric with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")

HARD_LIMIT_S = 170.0  # the whole run, generation included
SETUP_REPEATS = 3  # before every job, so the samples span the run
SETUP_CODE = ("import importlib, pkgutil, flucast\n"
              "for m in pkgutil.iter_modules(flucast.__path__):\n"
              "    importlib.import_module('flucast.' + m.name)\n")
COMMANDS = ["decompose", "select", "train", "evaluate", "forecast"]
ARTIFACTS = ["checkpoint.json", "trainlog.csv", "report.csv",
             os.path.join("fc", "forecasts.csv")]

END_TO_END = {
    "setup_s": "s", "job_s": "s", "train_s": "s", "peak_rss_mb": "MB",
    "val_mse": "ili_rate2", "test_rmse": "ili_rate",
}
# The other commands' times, medians over the plain jobs of a traced run.
# On a shared two-vCPU machine their run-to-run spread reached the
# largest bound an end-to-end metric may have, so they carry none.
COMMAND_LAYER = ["decompose", "select", "evaluate", "forecast"]


def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    units = {f"{name}_s": ("s", "lower") for name in COMMAND_LAYER}
    units.update(spans.per_layer_units())
    return units


class Failure(Exception):
    """An operation failed; the run stops and reports it."""


def run_process(argv, cwd, log_path, deadline):
    """Run argv to completion; returns (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


def check_decomposition(spec, inputs, out, countries):
    for c in countries:
        rows = _rows(os.path.join(out, f"decomp_{c}.csv"))
        if len(rows) != spec["weeks"]:
            return f"decomp_{c}.csv has {len(rows)} rows"
        for r in rows:
            total = (float(r["trend"]) + float(r["seasonal"])
                     + float(r["remainder"]))
            if not abs(float(r["observed"]) - total) <= 1e-9:
                return f"decomp_{c}.csv {r['iso_week']}: identity broken"
    return None


def check_selected(spec, inputs, out, countries):
    english = _lines(os.path.join(inputs, "english_queries.txt"))
    rows = _rows(os.path.join(out, "selected_queries.csv"))
    if [r["english"] for r in rows] != english:
        return f"selected_queries.csv has {len(rows)} rows for " \
               f"{len(english)} English queries"
    return None


def check_report(spec, inputs, out, countries):
    rows = _rows(os.path.join(out, "report.csv"))
    want = {"proposed": list(range(1, spec["s"] + 1)),
            "seasonal_naive": list(range(1, spec["s"] + 1)),
            "ar_exog": [1]}
    for c in countries:
        for model, horizons in want.items():
            got = [int(r["horizon"]) for r in rows
                   if r["model"] == model and r["country"] == c]
            if got != horizons:
                return f"report.csv {model}/{c}: horizons {got}"
    if not all(math.isfinite(float(r["rmse"])) for r in rows):
        return "report.csv: non-finite rmse"
    return None


def check_attention(spec, inputs, out, countries):
    rows = _rows(os.path.join(out, "attention.csv"))
    n_q = len(_lines(os.path.join(inputs, "queries.txt")))
    weeks = len(countries) * (spec["test_len"] - spec["s"] + 1)
    if len(rows) != weeks * n_q:
        return f"attention.csv has {len(rows)} rows, want {weeks * n_q}"
    for i in range(0, len(rows), n_q):
        block = rows[i:i + n_q]
        w = [float(r["weight"]) for r in block]
        if len({r["iso_week"] for r in block}) != 1 or min(w) < 0 \
                or not abs(sum(w) - 1.0) <= 1e-9:
            return f"attention.csv {block[0]['iso_week']}: weights {w}"
    return None


def check_forecasts(spec, inputs, out, countries):
    rows = _rows(os.path.join(out, "fc", "forecasts.csv"))
    for c in countries:
        got = [int(r["horizon"]) for r in rows if r["country"] == c]
        if got != list(range(1, spec["s"] + 1)):
            return f"forecasts.csv {c}: horizons {got}"
    if len(rows) != len(countries) * spec["s"] or not all(
            math.isfinite(float(r["y_pred"])) for r in rows):
        return "forecasts.csv: wrong row count or non-finite forecast"
    return None


CHECKS = [check_decomposition, check_selected, check_report,
          check_attention, check_forecasts]


def quality(out):
    """(val_mse at the chosen epoch, mean test RMSE of `proposed`)."""
    log = _rows(os.path.join(out, "trainlog.csv"))
    val = [statistics.fmean(float(v) for k, v in r.items()
                            if k.startswith("val_mse_")) for r in log]
    report = _rows(os.path.join(out, "report.csv"))
    rmse = [float(r["rmse"]) for r in report if r["model"] == "proposed"]
    return min(val), statistics.fmean(rmse)


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Run:
    """One benchmark invocation: inputs, jobs, operation counts."""

    def __init__(self, workload, seed, size, hard_deadline):
        self.workload = workload
        self.spec = gen.workload_spec(workload, size)
        self.countries = gen.COUNTRIES[:self.spec["countries"]]
        self.hard_deadline = hard_deadline
        self.dir = os.path.join(WORK, f"{workload}-{size}-{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = os.path.join(self.dir, "inputs")
        self.config = gen.generate(self.spec, seed, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.hashes = None

    def op(self, name, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{name}: {error}")
            raise Failure(f"{name}: {error}")

    def check(self, name, fn, *args):
        """Run an output check; a missing or malformed file fails it."""
        try:
            result = fn(*args)
        except (OSError, ValueError, KeyError) as e:
            self.op(name, f"{type(e).__name__}: {e}")
        return result

    def setup_time(self):
        log = os.path.join(self.dir, "setup.log")
        code, wall, _ = run_process([sys.executable, "-c", SETUP_CODE],
                                    self.inputs, log, self.hard_deadline)
        self.op("setup", None if code == 0 else f"exit {code}")
        return wall

    def job(self, number, traced):
        out = os.path.join(self.dir, f"job{number}")
        os.makedirs(os.path.join(out, "fc"))
        ckpt = os.path.join(out, "checkpoint.json")
        argv = {
            "decompose": ["decompose"],
            "select": ["select-queries", "--method", "wt"],
            "train": ["train"],
            "evaluate": ["evaluate", "--checkpoint", ckpt,
                         "--with-baselines"],
            "forecast": ["forecast", "--checkpoint", ckpt],
        }
        walls, rss = {}, []
        t0 = time.perf_counter()
        for i, name in enumerate(COMMANDS):
            cmd_out = os.path.join(out, "fc") if name == "forecast" else out
            cli = ["--config", self.config, "--out", cmd_out, *argv[name]]
            if traced:
                launcher = [os.path.join(HERE, "spans.py"), "--spans-out",
                            os.path.join(out, f"spans_{name}.json"),
                            "--command-id", str(10 * number + i), "--"]
            else:
                launcher = ["-m", "flucast.cli"]
            code, wall, peak = run_process(
                [sys.executable, *launcher, *cli], self.inputs,
                os.path.join(out, f"{name}.log"), self.hard_deadline)
            self.op(name, None if code == 0 else
                    f"exit {code}, see {os.path.join(out, name + '.log')}")
            walls[name] = wall
            rss.append(peak)
        job_s = time.perf_counter() - t0
        for fn in CHECKS:
            self.op(fn.__name__, self.check(fn.__name__, fn, self.spec,
                                            self.inputs, out, self.countries))
        hashes = self.check("same_seed_hashes", lambda: {
            a: _sha256(os.path.join(out, a)) for a in ARTIFACTS})
        if self.hashes is None:
            self.hashes = hashes
        else:
            diff = [a for a in ARTIFACTS if hashes[a] != self.hashes[a]]
            self.op("same_seed_hashes",
                    f"differ from job 0: {diff}" if diff else None)
        val_mse, test_rmse = self.check("quality", quality, out)
        return {"traced": traced, "out": out, "job_s": job_s,
                "walls": walls, "peak_rss_mb": max(rss),
                "val_mse": val_mse, "test_rmse": test_rmse}


def _command_time(name, plain):
    return statistics.median(j["walls"][name] for j in plain)


def end_to_end(setup, jobs):
    plain = [j for j in jobs if not j["traced"]]
    m = {"setup_s": statistics.median(setup),
         "job_s": statistics.median(j["job_s"] for j in plain),
         "train_s": _command_time("train", plain)}
    for key in ("peak_rss_mb", "val_mse", "test_rmse"):
        m[key] = statistics.median(j[key] for j in plain)
    return m


def per_layer(run, jobs):
    docs = []
    for j in jobs:
        if j["traced"]:
            docs.append([])
            for name in COMMANDS:
                with open(os.path.join(j["out"], f"spans_{name}.json"),
                          encoding="utf-8") as f:
                    docs[-1].append(json.load(f))
    m = spans.layer_metrics(docs, len(run.countries))
    plain_jobs = [j for j in jobs if not j["traced"]]
    for name in COMMAND_LAYER:
        m[f"{name}_s"] = _command_time(name, plain_jobs)
    plain = statistics.median(j["job_s"] for j in plain_jobs)
    traced = statistics.median(j["job_s"] for j in jobs if j["traced"])
    m["trace.overhead_share"] = (traced - plain) / plain
    return m


def machine():
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def bench(workload, seed, seconds, trace, size):
    """One run; returns (result line dict, full record dict)."""
    start = time.perf_counter()
    run = Run(workload, seed, size, start + HARD_LIMIT_S)
    setup, jobs = [], []
    error = None
    try:
        t_measure = time.perf_counter()
        # Traced runs alternate plain and traced jobs so both see the
        # same machine state; the first two jobs always run.
        rounds = []
        while True:
            t_round = time.perf_counter()
            for _ in range(SETUP_REPEATS):
                setup.append(run.setup_time())
            traced = bool(trace) and len(jobs) % 2 == 1
            jobs.append(run.job(len(jobs), traced))
            now = time.perf_counter()
            rounds.append(now - t_round)
            # Stop before a round (as long as the last one of its kind)
            # would end past --seconds or near the hard limit.
            if (len(rounds) >= 2 and now - t_measure + rounds[-2] > seconds
                    or now + 1.5 * rounds[-1] > run.hard_deadline):
                break
        if trace and len(jobs) < 2:
            raise Failure("no traced job fits in the time limit")
    except Failure as e:
        error = str(e)
    metrics = {}
    if error is None:
        values = per_layer(run, jobs) if trace else end_to_end(setup, jobs)
        units = ({k: u for k, (u, _) in per_layer_units().items()}
                 if trace else END_TO_END)
        metrics = {k: {"value": values[k], "unit": units[k]}
                   for k in units if k in values}
    result = {"correct": error is None and run.failed == 0,
              "attempted": max(1, run.attempted), "failed": run.failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "spec": run.spec,
              "machine": machine(), "error": error,
              "failures": run.failures, "setup_s": setup,
              "jobs": [{k: v for k, v in j.items() if k != "out"}
                       for j in jobs],
              "hashes": run.hashes, "result": result}
    if error is None:
        shutil.rmtree(run.dir, ignore_errors=True)
    return result, record


def run_all(seed, seconds, size):
    """Every workload, plain then traced, as a table of name/value/unit."""
    ok = True
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            result, _ = bench(workload, seed, seconds, trace, size)
            ok = ok and result["correct"]
            print(f"# {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flucast", "cli.py")):
        print(f"error: flucast sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.size)

    result, record = bench(args.workload, args.seed, args.seconds,
                           args.trace, args.size)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-{args.size}-seed"
                        f"{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if record["error"]:
        print(f"error: {record['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
