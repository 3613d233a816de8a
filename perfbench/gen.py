"""Seeded input generator for the flucast benchmark workloads.

`generate(spec, seed, root)` writes everything one five-command job
reads: ili.csv, one trends CSV per country and training query, the
query lists, the English queries, the source and target embeddings, the
candidate trends for wt query selection, and flucast.cfg. The same
seed gives byte-identical files.

The seed moves the noise in every series and in the embeddings, never
the amount of work: the embeddings are built so that the k nearest
target words of each English token, and their order, are fixed by
construction. Which candidate phrases wt selection tries, and which of
them have trends (every fourth), is therefore the same for every seed.
"""

from __future__ import annotations

import os

import numpy as np

WEEKS_PER_YEAR = 52
START_YEAR = 2005
COUNTRIES = ["AU", "BR", "DE", "FR", "JP", "US"]
EMB_DIM = 32
MAX_CANDIDATES = 200  # querysel.wt_select's default cap


def week_label(index: int) -> str:
    year, w = divmod(index, WEEKS_PER_YEAR)
    return f"{year}-W{w + 1:02d}"


def ili_series(rng, country_pos: int, weeks: int) -> np.ndarray:
    """Flu-like weekly rates: a sharp winter peak on a slow trend."""
    t = np.arange(weeks, dtype=np.float64)
    phase = 0.5 * (country_pos % 2) + 0.03 * country_pos
    peak = (0.5 + 0.5 * np.cos(2 * np.pi * (t / WEEKS_PER_YEAR - phase))) ** 4
    amp = 6.0 + 0.5 * country_pos
    noise = np.empty(weeks)
    e = rng.normal(0.0, 0.005, weeks)
    noise[0] = e[0]
    for i in range(1, weeks):
        noise[i] = 0.6 * noise[i - 1] + e[i]
    return np.maximum(1.0 + 0.001 * t + amp * peak + noise, 0.05)


def _write_weekly(path, start, values, header="iso_week,value"):
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for i, v in enumerate(values):
            f.write(f"{week_label(start + i)},{float(v)!r}\n")


def _query_trend(rng, ili, weight):
    """Search volume that follows ILI with the given weight plus noise."""
    n = len(ili)
    return np.maximum(weight * ili + rng.uniform(0.0, 0.5, n), 0.0)


def _unit(v):
    return v / np.linalg.norm(v)


def _write_embeddings(path, words, vectors):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(words)} {EMB_DIM}\n")
        for w, v in zip(words, vectors):
            f.write(w + " " + " ".join(repr(float(x)) for x in v) + "\n")


def _wt_inputs(rng, spec, root, ili_fit, start):
    """English queries, embeddings and candidate trends for wt selection.

    Token t owns embedding axis t. Its designed neighbour j has cosine
    c_j with that axis and lives otherwise in the non-token axes, as do
    all filler words, so the top-k list is exactly the designed
    neighbours in order. The first token's cosines fall by 0.01 per
    rank, the second's by 0.0003, so every candidate phrase has its own
    theta_w and the tried prefix is fixed.
    """
    n_queries, k = spec["english_queries"], spec["k"]
    tokens = [(f"sym{q:02d}", f"sig{q:02d}") for q in range(n_queries)]
    n_tok = 2 * n_queries
    free = EMB_DIM - n_tok
    src_words, src_vecs = [], []
    tgt_words, tgt_vecs = [], []
    for q, pair in enumerate(tokens):
        for pos, word in enumerate(pair):
            axis = 2 * q + pos
            e = np.zeros(EMB_DIM)
            e[axis] = 1.0
            src_words.append(word)
            src_vecs.append(e)
            step = 0.01 if pos == 0 else 0.0003
            for j in range(k):
                c = 0.95 - step * j
                r = np.zeros(EMB_DIM)
                r[n_tok:] = _unit(rng.normal(0.0, 1.0, free))
                tgt_words.append(f"t{axis:02d}n{j:02d}")
                tgt_vecs.append(c * e + np.sqrt(1.0 - c * c) * r)
    while len(tgt_words) < spec["vocab"]:
        v = np.zeros(EMB_DIM)
        v[n_tok:] = _unit(rng.normal(0.0, 1.0, free))
        tgt_words.append(f"f{len(tgt_words):04d}")
        tgt_vecs.append(v)
    _write_embeddings(os.path.join(root, "emb_src.txt"), src_words, src_vecs)
    _write_embeddings(os.path.join(root, "emb_tgt.txt"), tgt_words, tgt_vecs)
    with open(os.path.join(root, "english_queries.txt"), "w",
              encoding="utf-8") as f:
        for a, b in tokens:
            f.write(f"{a} {b}\n")

    cand_dir = os.path.join(root, "candidates")
    os.makedirs(cand_dir)
    tried = min(k * k, MAX_CANDIDATES)
    for q in range(n_queries):
        for rank in range(tried):
            j1, j2 = divmod(rank, k)
            if (j1 + j2) % 4:
                continue
            slug = f"t{2 * q:02d}n{j1:02d}_t{2 * q + 1:02d}n{j2:02d}"
            weight = rng.uniform(0.2, 1.0)
            _write_weekly(os.path.join(cand_dir, slug + ".csv"), start,
                          _query_trend(rng, ili_fit, weight))
    return cand_dir


def generate(spec: dict, seed: int, root: str) -> str:
    """Write one workload's inputs under `root`; returns the config path."""
    rng = np.random.Generator(np.random.PCG64(seed))
    os.makedirs(root)
    countries = COUNTRIES[:spec["countries"]]
    weeks = spec["weeks"]
    start = START_YEAR * WEEKS_PER_YEAR
    test_len = spec["test_len"]

    ili = {c: ili_series(rng, COUNTRIES.index(c), weeks) for c in countries}
    with open(os.path.join(root, "ili.csv"), "w", encoding="utf-8") as f:
        f.write("iso_week,country,ili_rate\n")
        for c in countries:
            for i, v in enumerate(ili[c]):
                f.write(f"{week_label(start + i)},{c},{float(v)!r}\n")

    queries = [f"query{j:02d}" for j in range(spec["l"])]
    queries_path = os.path.join(root, "queries.txt")
    with open(queries_path, "w", encoding="utf-8") as f:
        f.write("\n".join(queries) + "\n")
    trends_dir = os.path.join(root, "trends")
    for c in countries:
        os.makedirs(os.path.join(trends_dir, c))
        for j, q in enumerate(queries):
            weight = 1.0 - 0.9 * j / max(1, len(queries) - 1)
            _write_weekly(os.path.join(trends_dir, c, q + ".csv"), start,
                          _query_trend(rng, ili[c], weight))

    sel_country = countries[0]
    fit_weeks = weeks - test_len - WEEKS_PER_YEAR
    cand_dir = _wt_inputs(rng, spec, root, ili[sel_country][:fit_weeks],
                          start)

    cfg_path = os.path.join(root, "flucast.cfg")
    lines = [
        f"countries = {','.join(countries)}",
        "data.ili = ili.csv",
        "data.trends_dir = trends",
        *(f"queries.{c} = queries.txt" for c in countries),
        f"split.test_start = {week_label(start + weeks - test_len)}",
        f"split.test_len = {test_len}",
        f"model.n = {spec['n']}",
        f"model.s = {spec['s']}",
        f"mode = {spec['mode']}",
        f"train.lr_grid = {spec['lr_grid']}",
        f"train.m_grid = {spec['m_grid']}",
        f"train.max_epochs = {spec['epochs']}",
        f"train.patience = {spec['epochs']}",
        f"train.batch_size = {spec['batch']}",
        "seed = 0",
        f"querysel.country = {sel_country}",
        "querysel.english_queries = english_queries.txt",
        "querysel.source_embeddings = emb_src.txt",
        "querysel.target_embeddings = emb_tgt.txt",
        f"querysel.candidates_dir = {os.path.basename(cand_dir)}",
        f"querysel.k = {spec['k']}",
    ]
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return cfg_path


# Workload shapes. `english_queries`, `k` and `vocab` shape wt query
# selection; the rest is the flucast config.
WORKLOADS = {
    "train_grid": dict(
        countries=2, weeks=234, l=10, n=26, s=5, mode="multi",
        lr_grid="0.01", m_grid="16,32", epochs=2, batch=32, test_len=26,
        english_queries=2, k=6, vocab=300),
    "long_history": dict(
        countries=6, weeks=312, l=2, n=26, s=5, mode="multi",
        lr_grid="0.01", m_grid="8", epochs=1, batch=512, test_len=13,
        english_queries=6, k=30, vocab=4000),
}

# The self-test's tiny size: same countries and modes, little work.
TINY = dict(weeks=225, l=3, n=8, s=3, epochs=1, test_len=8,
            english_queries=1, k=4, vocab=40)


def workload_spec(name: str, size: str = "full") -> dict:
    spec = dict(WORKLOADS[name])
    if size == "tiny":
        spec.update(TINY)
        spec["m_grid"] = ",".join("4" for _ in spec["m_grid"].split(","))
    return spec
