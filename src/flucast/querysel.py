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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import Error
from .datahub import DataError, csv_rows, open_text, read_csv, write_csv


class DegenerateInputError(Error):
    pass


class SelectionError(Error):
    pass


class EmbeddingTable:
    """Word -> fixed-dimension vector table for one language."""

    def __init__(self, language: str, words, vectors):
        """`vectors` holds one row of floats per word: rows of one length,
        or a (V, d) float64 matrix, which the table keeps without a copy.
        """
        self.language = language
        try:
            matrix = np.asarray(vectors, dtype=np.float64)
        except ValueError:  # rows of several lengths
            raise ValueError(f"inconsistent embedding dimensions: "
                             f"{sorted({len(v) for v in vectors})}") from None
        if matrix.ndim == 1:  # no word
            matrix = matrix.reshape(len(matrix), 0)
        # Row of each word; a repeated word keeps its first place and its
        # last vector.
        rows = {w: i for i, w in zip(range(len(matrix)), words)}
        if len(rows) < len(matrix):
            matrix = matrix[list(rows.values())]
        # One (V, d) matrix in vocabulary order; `_table` maps each word
        # to a row view of it.
        self._matrix = matrix
        with np.errstate(over="ignore"):
            self._norms = np.linalg.norm(matrix, axis=1)
        self._table = dict(zip(rows, matrix))

    def __len__(self):
        return len(self._table)

    def vocabulary(self):
        return list(self._table)

    def vector(self, word: str) -> np.ndarray:
        try:
            return self._table[word]
        except KeyError:
            raise SelectionError(f"{word!r} not in {self.language} "
                                 f"vocabulary") from None


def load_embeddings(path: str, language: str, skip=frozenset()
                    ) -> EmbeddingTable:
    """Text format: word then floats per line; optional 'count dim' header.

    Line 1 is the header only when both its fields are integers.
    Trailing whitespace, as fastText `.vec` rows have, adds no component.
    Blank lines are skipped, and so are the rows of the words in `skip`
    once checked. A word with no components, a component that is not a
    finite number, or a row whose length differs from the first row's,
    is a DataError naming `path:line`.
    """
    words, vectors, dim = [], [], None
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip().split(" ")
            if lineno == 1 and len(parts) == 2 and all(
                    p.isdecimal() for p in parts):
                continue  # header line
            if parts == [""]:
                continue  # blank line
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: word {parts[0]!r} has no "
                                f"components")
            try:
                vector = np.fromiter(map(float, parts[1:]), np.float64,
                                     len(parts) - 1)
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            if not np.isfinite(vector).all():
                bad = vector[~np.isfinite(vector)]
                raise DataError(
                    f"{path}:{lineno}: non-finite component {bad[0]}")
            dim = dim or len(vector)
            if len(vector) != dim:
                raise DataError(f"{path}:{lineno}: {len(vector)} components, "
                                f"expected {dim}")
            if parts[0] not in skip:
                words.append(parts[0])
                vectors.append(vector)
    matrix = np.array(vectors)
    vectors.clear()  # free the rows before the table takes its norms
    return EmbeddingTable(language, words, matrix)


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

    A vector whose norm is not finite (a nan or inf component, or one so
    large that its square overflows) is a SelectionError naming the word,
    whatever k is. Finite norms bound every dot product, so the cosines
    are finite; each is still checked, since a NaN would rank wherever
    the sort left it and stall the best-first enumeration.
    """
    v = source.vector(word)
    words = target.vocabulary()
    with np.errstate(over="ignore"):
        nv = np.linalg.norm(v)
    if not np.isfinite(nv):
        raise SelectionError(f"{source.language} {word!r} has a vector "
                             f"whose norm is not finite")
    bad = np.flatnonzero(~np.isfinite(target._norms))
    if len(bad):
        raise SelectionError(f"{target.language} {words[bad[0]]!r} has a "
                             f"vector whose norm is not finite")
    if 0 < k < len(words):
        denom = target._norms * nv
        approx = np.zeros(len(words))
        np.divide(target._matrix @ v, denom, out=approx, where=denom > 0)
        kth = np.partition(approx, len(words) - k)[len(words) - k]
        words = [words[i]
                 for i in np.flatnonzero(approx >= kth - _SHORTLIST_SLACK)]
    scored = [(w, cosine(v, target.vector(w))) for w in words]
    for w, s in scored:
        if not math.isfinite(s):
            raise SelectionError(f"cosine of {source.language} {word!r} and "
                                 f"{target.language} {w!r} is not finite")
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


@np.errstate(over="ignore", invalid="ignore")
def pearson(a, b) -> float:
    """Pearson correlation in [-1, 1]. Input that is constant, not
    finite, or so large that the variances overflow is a
    DegenerateInputError."""
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
    scale = np.sqrt(va * vb)
    r = float(np.dot(da, db) / scale)
    if not (np.isfinite(r) and np.isfinite(scale)):
        raise DegenerateInputError("pearson input is not finite or overflows")
    return max(-1.0, min(1.0, r))


def _content_tokens(query: str, stopwords: set) -> list:
    tokens = [t for t in query.split() if t and t not in stopwords]
    if not tokens:
        raise SelectionError(f"query {query!r} has only stopwords")
    return tokens


# Candidates per English query that `wt_select` looks up, best theta_w
# first.
_MAX_CANDIDATES = 200


def _ranked(per_token):
    """(text, theta_w) of the compositions of the per-token (word, cosine)
    lists, in the order of the whole product sorted by (-theta_w, text),
    each text at its best theta_w, without building the product.

    Best-first over index tuples (Eppstein 1998): a heap on -theta_w whose
    successors each advance one index. Rounded addition and division by a
    constant are monotone, so no successor beats its parent, and tuples
    leave the heap in non-increasing theta_w. Each group of equal theta_w
    is drained before its texts are sorted. A text met again (target
    words may hold spaces) keeps its first, best theta_w.
    """
    import heapq
    if not all(per_token):
        return

    def theta_w(idx):
        return float(np.mean([per_token[j][i][1] for j, i in enumerate(idx)]))

    start = (0,) * len(per_token)
    heap = [(-theta_w(start), start)]
    seen = {start}
    taken = set()
    while heap:
        top = heap[0][0]
        group = []
        while heap and heap[0][0] == top:
            _, idx = heapq.heappop(heap)
            group.append(" ".join(per_token[j][i][0]
                                  for j, i in enumerate(idx)))
            for j, i in enumerate(idx):
                nxt = idx[:j] + (i + 1,) + idx[j + 1:]
                if i + 1 < len(per_token[j]) and nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (-theta_w(nxt), nxt))
        group.sort()
        for text in group:
            if text not in taken:
                taken.add(text)
                yield text, -top


def wt_select(english_queries, source: EmbeddingTable,
              target: EmbeddingTable, trends_provider, ili_values,
              k: int, stopwords: set) -> list:
    """Pick, per English query, the candidate maximizing theta_w + theta_t.

    `trends_provider(candidate) -> 1-D array or None` supplies the
    candidate's trends series over the same training weeks as ili_values.
    Candidates are cartesian compositions of the k nearest target words
    per content token, looked up best theta_w first and capped at
    `_MAX_CANDIDATES`. `pearson` caps theta_t at 1, so the lookups stop
    once theta_w + 1 falls below the best score: no later candidate can
    reach it, and the pick is that of trying all of them.
    """
    ili_values = np.asarray(ili_values, dtype=np.float64)
    results = []
    for query in english_queries:
        tokens = _content_tokens(query, stopwords)
        per_token = [cosine_topk(t, source, target, k) for t in tokens]
        best = None
        for text, theta_w in itertools.islice(_ranked(per_token),
                                              _MAX_CANDIDATES):
            if best is not None and theta_w + 1.0 < best.score:
                break
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

    The mapping file is a CSV with `english` and `translated` columns; a
    second row for an English query is a DataError naming both lines.
    """
    mapping, lines = {}, {}
    for lineno, (english, translated) in read_csv(
            mapping_path, ("english", "translated")):
        first = lines.setdefault(english, lineno)
        if first != lineno:
            raise DataError(f"{mapping_path}:{lineno}: {english!r} repeats "
                            f"the row of line {first}")
        mapping[english] = translated
    missing = [q for q in english_queries if q not in mapping]
    if missing:
        raise SelectionError(f"mapping file lacks rows for {missing}")
    return [mapping[q] for q in english_queries]


def write_selected(path: str, candidates) -> None:
    write_csv(
        path, ["english", "selected", "theta_w", "theta_t", "score"],
        ([c.english, c.candidate, repr(c.theta_w), repr(c.theta_t),
          repr(c.score)] for c in candidates))


def read_selected(path: str) -> list:
    """Queries from a `write_selected` CSV (its 'selected' column), or
    from a plain list with one query per line.

    The file is a CSV when the stripped fields of its first row that is
    not blank, read as `datahub.csv_rows` reads it, include `selected`;
    it is then read by `read_csv`, so a quoted query keeps the line
    breaks it holds. Lines of only whitespace are skipped. A file that
    yields no query is a DataError naming it.
    """
    _, header = next(csv_rows(path), (0, ()))
    if "selected" in (name.strip() for name in header):
        queries = [query for _, (query,) in read_csv(path, ("selected",))]
    else:
        with open_text(path) as f:
            queries = [line.strip() for line in f if line.strip()]
    if not queries:
        raise DataError(f"{path}: no query")
    return queries
