"""Cross-lingual search-query selection.

Scores candidate target-language queries by word similarity in an aligned
embedding space plus Pearson correlation of the candidate's trends series
with the country's ILI series, and picks the argmax of the sum. A
user-supplied mapping file stands in for external translation.

Each embedding table is one (V, d) matrix with its row norms. The k
nearest target words of a source word are shortlisted with one
matrix-vector product: every word whose approximate cosine is within
1e-9 of the k-th largest. Only the shortlist is then scored with the
exact per-pair `cosine`, so similarities and their tie order are
bitwise those of a scan over the whole vocabulary.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .datahub import DataError, _columns, _fields, _rows, open_text


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
        vectors = list(vectors)
        dims = {len(v) for v in vectors}
        if len(dims) > 1:
            raise ValueError(
                f"inconsistent embedding dimensions: {sorted(dims)}")
        self.dim = dims.pop() if dims else 0
        # Row of each word; a repeated word keeps its first place and its
        # last vector.
        rows = {w: i for i, w in zip(range(len(vectors)), words)}
        matrix = np.array(vectors, dtype=np.float64).reshape(len(vectors),
                                                             self.dim)
        if len(rows) < len(matrix):
            matrix = matrix[list(rows.values())]
        # One (V, d) matrix in vocabulary order; `_table` maps each word
        # to a row view of it.
        self._matrix = matrix
        self._norms = np.linalg.norm(matrix, axis=1)
        self._table = dict(zip(rows, matrix))

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
    """Text format: word then floats per line; optional 'count dim' header.

    A component that is not a number, or a row whose length differs from
    the first row's, is a DataError naming `path:line`.
    """
    words, vectors = [], []
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split(" ")
            if lineno == 1 and len(parts) == 2:
                continue  # header line
            if len(parts) < 2:
                continue
            try:
                vector = list(map(float, parts[1:]))
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            if vectors and len(vector) != len(vectors[0]):
                raise DataError(f"{path}:{lineno}: {len(vector)} components, "
                                f"expected {len(vectors[0])}")
            words.append(parts[0])
            vectors.append(vector)
    return EmbeddingTable(language, words, vectors)


def load_stopwords(path: str) -> set:
    with open_text(path) as f:
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


# Margin below the k-th approximate cosine that `cosine_topk` keeps.
_SHORTLIST_SLACK = 1e-9


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def cosine_topk(word: str, source: EmbeddingTable, target: EmbeddingTable,
                k: int) -> list:
    """k most cosine-similar target words, descending; ties lexicographic.

    One matvec scores every target word approximately, and only the
    words within `_SHORTLIST_SLACK` of the k-th largest score are scored
    again with `cosine`. The two scores differ by a few ulps, far less
    than the slack, so the shortlist holds every word of the exact top
    k and every word tied with its last one, and the result is the
    exhaustive scan's, bit for bit.
    """
    v = source.vector(word)
    words = target.vocabulary()
    if 0 < k < len(words):
        denom = target._norms * np.linalg.norm(v)
        approx = np.zeros(len(words))
        np.divide(target._matrix @ v, denom, out=approx, where=denom > 0)
        kth = np.partition(approx, len(words) - k)[len(words) - k]
        words = [words[i]
                 for i in np.flatnonzero(approx >= kth - _SHORTLIST_SLACK)]
    scored = [(w, cosine(v, target.vector(w))) for w in words]
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


# Candidates per English query that `wt_select` looks up, best theta_w
# first.
_MAX_CANDIDATES = 200


def wt_select(english_queries, source: EmbeddingTable,
              target: EmbeddingTable, trends_provider, ili_values,
              k: int, stopwords: set) -> list:
    """Pick, per English query, the candidate maximizing theta_w + theta_t.

    `trends_provider(candidate) -> 1-D array or None` supplies the
    candidate's trends series over the same training weeks as ili_values.
    Candidates are cartesian compositions of the k nearest target words
    per content token, capped at `_MAX_CANDIDATES` by theta_w.
    """
    if k < 1:
        raise SelectionError(f"k must be >= 1, got {k}")
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
        ordered = ordered[:_MAX_CANDIDATES]
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
    """Return the user-supplied translation for each English query verbatim.

    The mapping file is a CSV with `english` and `translated` columns.
    """
    names = ("english", "translated")
    mapping = {}
    with open_text(mapping_path, newline="") as f:
        reader = csv.reader(f)
        cols = _columns(next(reader, None), names)
        absent = [n for n, c in zip(names, cols) if c is None]
        if absent:
            raise DataError(f"{mapping_path}: no {' or '.join(absent)} column")
        for lineno, row in _rows(reader):
            english, translated = _fields(mapping_path, lineno, row, cols,
                                          names)
            mapping[english] = translated
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
    with open_text(path, newline="") as f:
        lines = [line.strip() for line in f if line.strip()]
    if lines and "selected" in [c.strip() for c in lines[0].split(",")]:
        return [row["selected"] for row in csv.DictReader(lines)]
    return lines
