"""Cross-lingual search-query selection.

Scores candidate target-language queries by word similarity in an aligned
embedding space plus Pearson correlation of the candidate's trends series
with the country's ILI series, and picks the argmax of the sum. A
user-supplied mapping file stands in for external translation.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np


class OOVError(KeyError):
    pass


class DegenerateInputError(ValueError):
    pass


class EmptyContentError(ValueError):
    pass


class SelectionError(ValueError):
    pass


class MappingError(ValueError):
    pass


class EmbeddingTable:
    """Word -> fixed-dimension vector table for one language."""

    def __init__(self, language: str, words, vectors):
        self.language = language
        vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
        dims = {v.shape for v in vectors}
        if len(dims) > 1:
            raise ValueError(f"inconsistent embedding dimensions: {dims}")
        self._table = dict(zip(words, vectors))
        self.dim = vectors[0].shape[0] if vectors else 0

    def __contains__(self, word):
        return word in self._table

    def __len__(self):
        return len(self._table)

    def vocabulary(self):
        return list(self._table)

    def vector(self, word: str) -> np.ndarray:
        try:
            return self._table[word]
        except KeyError:
            raise OOVError(f"{word!r} not in {self.language} vocabulary"
                           ) from None


def load_embeddings(path: str, language: str) -> EmbeddingTable:
    """Text format: word then floats per line; optional 'count dim' header."""
    words, vectors = [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split(" ")
            if lineno == 1 and len(parts) == 2:
                continue  # header line
            if len(parts) < 2:
                continue
            words.append(parts[0])
            vectors.append([float(x) for x in parts[1:]])
    return EmbeddingTable(language, words, vectors)


def load_stopwords(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        return {line.strip() for line in f if line.strip()}


@dataclass(frozen=True)
class QueryCandidate:
    english: str
    candidate: str
    theta_w: float
    theta_t: float

    @property
    def score(self) -> float:
        return self.theta_w + self.theta_t


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def cosine_topk(word: str, source: EmbeddingTable, target: EmbeddingTable,
                k: int) -> list:
    """k most cosine-similar target words, descending; ties lexicographic."""
    v = source.vector(word)
    scored = [(w, cosine(v, target.vector(w))) for w in target.vocabulary()]
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 3:
        raise DegenerateInputError(
            f"pearson needs equal-length 1-D inputs of length >= 3, got "
            f"{a.shape} and {b.shape}")
    da, db = a - a.mean(), b - b.mean()
    va, vb = np.dot(da, da), np.dot(db, db)
    if va <= 0 or vb <= 0:
        raise DegenerateInputError("pearson input has zero variance")
    r = float(np.dot(da, db) / np.sqrt(va * vb))
    return max(-1.0, min(1.0, r))


def _content_tokens(query: str, stopwords: set) -> list:
    tokens = [t for t in query.split() if t and t not in stopwords]
    if not tokens:
        raise EmptyContentError(f"query {query!r} has only stopwords")
    return tokens


def phrase_similarity(english_query: str, candidate_query: str,
                      source: EmbeddingTable, target: EmbeddingTable,
                      stopwords: set) -> float:
    """Mean cosine over greedy best-match content-word pairs."""
    src = _content_tokens(english_query, stopwords)
    tgt = _content_tokens(candidate_query, stopwords)
    sims = [[cosine(source.vector(s), target.vector(t)) for t in tgt]
            for s in src]
    n_pairs = min(len(src), len(tgt))
    free_s, free_t = set(range(len(src))), set(range(len(tgt)))
    total = 0.0
    for _ in range(n_pairs):
        best = max(((sims[i][j], -i, -j) for i in free_s for j in free_t))
        total += best[0]
        free_s.discard(-best[1])
        free_t.discard(-best[2])
    return total / n_pairs


def wt_select(english_queries, source: EmbeddingTable,
              target: EmbeddingTable, trends_provider, ili_values,
              k: int, stopwords: set, max_candidates: int = 200) -> list:
    """Pick, per English query, the candidate maximizing theta_w + theta_t.

    `trends_provider(candidate) -> 1-D array or None` supplies the
    candidate's trends series over the same training weeks as ili_values.
    Candidates are cartesian compositions of the k nearest target words
    per content token, capped at max_candidates by theta_w.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ili_values = np.asarray(ili_values, dtype=np.float64)
    results = []
    for query in english_queries:
        tokens = _content_tokens(query, stopwords)
        per_token = [cosine_topk(t, source, target, k) for t in tokens]
        candidates = {}
        for combo in itertools.product(*per_token):
            text = " ".join(w for w, _ in combo)
            theta_w = float(np.mean([s for _, s in combo]))
            if text not in candidates or theta_w > candidates[text]:
                candidates[text] = theta_w
        ordered = sorted(candidates.items(), key=lambda p: (-p[1], p[0]))
        ordered = ordered[:max_candidates]
        best = None
        for text, theta_w in ordered:
            series = trends_provider(text)
            if series is None:
                continue
            try:
                theta_t = pearson(series, ili_values)
            except DegenerateInputError:
                continue
            cand = QueryCandidate(english=query, candidate=text,
                                  theta_w=theta_w, theta_t=theta_t)
            if (best is None or cand.score > best.score
                    or (cand.score == best.score
                        and cand.candidate < best.candidate)):
                best = cand
        if best is None:
            raise SelectionError(
                f"no candidate with trends data for query {query!r}")
        results.append(best)
    return results


def translation_select(mapping_path: str, english_queries) -> list:
    """Return the user-supplied translation for each English query verbatim."""
    mapping = {}
    with open(mapping_path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            mapping[row["english"]] = row["translated"]
    missing = [q for q in english_queries if q not in mapping]
    if missing:
        raise MappingError(f"mapping file lacks rows for {missing}")
    return [mapping[q] for q in english_queries]


def write_selected(path: str, candidates) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["english", "selected", "theta_w", "theta_t", "score"])
        for c in candidates:
            w.writerow([c.english, c.candidate, repr(c.theta_w),
                        repr(c.theta_t), repr(c.score)])


def read_selected(path: str) -> list:
    """Queries from a `write_selected` CSV (its 'selected' column), or
    from a plain list with one query per line."""
    with open(path, newline="", encoding="utf-8") as f:
        lines = [line.strip() for line in f if line.strip()]
    if lines and "selected" in [c.strip() for c in lines[0].split(",")]:
        return [row["selected"] for row in csv.DictReader(lines)]
    return lines
