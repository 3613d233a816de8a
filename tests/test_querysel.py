import itertools
import re
import zlib

import numpy as np
import pytest

from flucast import querysel
from flucast.datahub import DataError
from flucast.numkit import Rng
from flucast.querysel import EmbeddingTable


def make_tables():
    src = EmbeddingTable("en", ["flu", "fever", "cough"],
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    tgt = EmbeddingTable("fr", ["grippe", "fievre", "toux", "rhume", "nez"],
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [0.8, 0.6, 0], [0.6, 0.8, 0]])
    return src, tgt


class TestCosineTopk:
    def test_identical_vector_first_with_similarity_one(self):
        src, tgt = make_tables()
        out = querysel.cosine_topk("flu", src, tgt, 3)
        assert out[0][0] == "grippe"
        assert abs(out[0][1] - 1.0) < 1e-12

    def test_orthogonal_vectors_zero(self):
        src, tgt = make_tables()
        sims = dict(querysel.cosine_topk("flu", src, tgt, 5))
        assert abs(sims["toux"]) < 1e-12

    def test_matches_exhaustive_scan_oracle(self):
        rng = Rng(31)
        src = EmbeddingTable("en", ["w"], [rng.uniform(-1, 1, 4)])
        words = [f"t{i}" for i in range(100)]
        tgt = EmbeddingTable("xx", words,
                             [rng.uniform(-1, 1, 4) for _ in words])
        v = src.vector("w")
        oracle = sorted(
            ((w, float(np.dot(v, tgt.vector(w))
                       / (np.linalg.norm(v) * np.linalg.norm(tgt.vector(w)))))
             for w in words), key=lambda p: (-p[1], p[0]))
        for k in (1, 5, 100):
            got = querysel.cosine_topk("w", src, tgt, k)
            assert [w for w, _ in got] == [w for w, _ in oracle[:k]]

    def test_oov_error_names_word(self):
        src, tgt = make_tables()
        with pytest.raises(querysel.SelectionError, match="sneeze"):
            querysel.cosine_topk("sneeze", src, tgt, 2)


def exhaustive_topk(word, source, target, k):
    """The per-pair scan `cosine_topk` used before its matvec shortlist:
    every target word scored with the two-norm cosine, then sorted."""
    def cos(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 0.0
        return float(np.dot(u, v) / (nu * nv))

    v = source.vector(word)
    scored = [(w, cos(v, target.vector(w))) for w in target.vocabulary()]
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


class TestShortlistMatchesExhaustiveScan:
    """`cosine_topk` returns the old scan's (word, score) list exactly."""

    KS = (1, 2, 3, 7, 24, 25, 26, 40)  # the table below has V = 25

    def check(self, src, tgt, ks=KS):
        for word in src.vocabulary():
            for k in ks:
                assert (querysel.cosine_topk(word, src, tgt, k)
                        == exhaustive_topk(word, src, tgt, k)), (word, k)

    def test_random_vectors(self):
        rng = Rng(5)
        src = EmbeddingTable("en", ["a", "b"],
                             [rng.uniform(-1, 1, 6) for _ in range(2)])
        words = [f"w{i:02d}" for i in range(25)]
        tgt = EmbeddingTable("xx", words,
                             [rng.uniform(-1, 1, 6) for _ in words])
        self.check(src, tgt)

    def test_exact_ties_sort_by_word(self):
        # Equal vectors, and copies scaled by powers of two, have bitwise
        # equal cosines; the ties straddle several k.
        rng = Rng(6)
        base = [rng.uniform(-1, 1, 4) for _ in range(5)]
        vectors = [base[i % 5] * 2.0 ** (i % 3) for i in range(25)]
        words = [f"t{(7 * i) % 25:02d}" for i in range(25)]
        src = EmbeddingTable("en", ["a", "b"], [base[0], base[3]])
        self.check(src, EmbeddingTable("xx", words, vectors))

    def test_near_ties_within_1e_12(self):
        rng = Rng(7)
        v = rng.uniform(-1, 1, 5)
        vectors = [v + rng.uniform(-1e-13, 1e-13, 5) for _ in range(20)]
        vectors += [rng.uniform(-1, 1, 5) for _ in range(5)]
        words = [f"n{i:02d}" for i in range(25)]
        src = EmbeddingTable("en", ["a"], [v])
        tgt = EmbeddingTable("xx", words, vectors)
        scores = [s for _, s in exhaustive_topk("a", src, tgt, 20)]
        assert 0 < max(scores) - min(scores) < 1e-12
        self.check(src, tgt)

    def test_zero_norm_target_rows(self):
        # Zero rows score 0.0 and sit between the positive and the
        # negative cosines, so some k cut through them.
        rng = Rng(8)
        vectors = [rng.uniform(-1, 1, 3) for _ in range(15)]
        vectors += [np.zeros(3)] * 10
        words = [f"z{(3 * i) % 25:02d}" for i in range(25)]
        src = EmbeddingTable("en", ["a", "b"],
                             [rng.uniform(-1, 1, 3) for _ in range(2)])
        self.check(src, EmbeddingTable("xx", words, vectors),
                   ks=range(1, 27))

    def test_zero_source_vector(self):
        rng = Rng(9)
        words = [f"s{(11 * i) % 25:02d}" for i in range(25)]
        tgt = EmbeddingTable("xx", words,
                             [rng.uniform(-1, 1, 3) for _ in words])
        src = EmbeddingTable("en", ["a"], [np.zeros(3)])
        assert querysel.cosine_topk("a", src, tgt, 3) == [
            ("s00", 0.0), ("s01", 0.0), ("s02", 0.0)]
        self.check(src, tgt)

    def test_small_integer_vectors(self):
        # Entries in {-1, 0, 1} give many exact ties and zero rows.
        rng = Rng(10)
        for _ in range(20):
            words = [f"i{i:02d}" for i in range(25)]
            tgt = EmbeddingTable("xx", words, [
                np.round(rng.uniform(-1.5, 1.5, 3)) for _ in words])
            src = EmbeddingTable("en", ["a"],
                                 [np.round(rng.uniform(-1.5, 1.5, 3))])
            self.check(src, tgt)


class TestPearson:
    def test_self_correlation(self):
        a = np.array([1.0, 3.0, 2.0, 5.0])
        assert querysel.pearson(a, a) == 1.0

    def test_negation(self):
        a = np.array([1.0, 3.0, 2.0, 5.0])
        assert querysel.pearson(a, -a) == -1.0

    def test_hand_computed_value(self):
        # cov = 1.5, sd_a = 1, sd_b = sqrt(7/3)
        r = querysel.pearson([1, 2, 3], [1, 2, 4])
        assert abs(r - 1.5 / np.sqrt(7.0 / 3.0)) < 1e-12
        assert abs(r - 0.9820) < 5e-5

    def test_zero_variance_rejected(self):
        with pytest.raises(querysel.DegenerateInputError):
            querysel.pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_input_rejected(self, bad):
        """A NaN result is not clamped to 1.0, and an overflowing
        variance is not read as a zero correlation; numpy warns
        nothing."""
        with pytest.raises(querysel.DegenerateInputError, match="pearson"):
            querysel.pearson([1.0, bad, 3.0, 2.0], [1.0, 2.0, 4.0, 3.0])

    def test_shift_scale_invariance_and_symmetry(self):
        rng = Rng(13)
        for _ in range(20):
            a = rng.uniform(-3, 3, 12)
            b = rng.uniform(-3, 3, 12)
            r = querysel.pearson(a, b)
            assert abs(r - querysel.pearson(b, a)) < 1e-12
            assert abs(r - querysel.pearson(2.5 * a + 7.0, b)) < 1e-12
            assert -1.0 <= r <= 1.0


class TestWtSelect:
    def setup_method(self):
        self.src = EmbeddingTable("en", ["flu"], [[1.0, 0.0]])
        self.tgt = EmbeddingTable("xx", ["a", "b", "c", "d"],
                                  [[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)],
                                   [0.8, 0.6], [0.0, 1.0]])
        rng = Rng(77)
        self.ili = np.sin(np.arange(30) / 3.0) + 2
        noise = rng.normal(0, 1, 30)
        self.trends = {
            "a": self.ili * 0.5 + noise * 0.8,   # weaker correlation
            "b": self.ili * 2.0,                 # perfect correlation
            "c": -self.ili,                      # negative correlation
            "d": noise,                          # uncorrelated
        }

    def provider(self, candidate):
        return self.trends.get(candidate)

    def test_singleton_candidate_selected(self):
        out = querysel.wt_select(["flu"], self.src, self.tgt,
                                 lambda c: self.trends.get(c) if c == "c"
                                 else None,
                                 self.ili, k=4, stopwords=set())
        assert out[0].candidate == "c"

    def test_sum_score_comparison(self):
        c1 = querysel.QueryCandidate("q", "a", 0.8, 0.5)
        c2 = querysel.QueryCandidate("q", "b", 0.9, 0.3)
        assert c1.score > c2.score  # 1.3 beats 1.2

    def test_matches_exhaustive_score_table_oracle(self):
        out = querysel.wt_select(["flu"], self.src, self.tgt, self.provider,
                                 self.ili, k=4, stopwords=set())
        scores = {}
        for w, theta_w in querysel.cosine_topk("flu", self.src, self.tgt, 4):
            theta_t = querysel.pearson(self.trends[w], self.ili)
            scores[w] = theta_w + theta_t
        expected = max(sorted(scores), key=lambda w: scores[w])
        assert out[0].candidate == expected
        assert abs(out[0].score - scores[expected]) < 1e-12

    def test_bounds(self):
        out = querysel.wt_select(["flu"], self.src, self.tgt, self.provider,
                                 self.ili, k=4, stopwords=set())[0]
        assert -1.0 <= out.theta_w <= 1.0
        assert -1.0 <= out.theta_t <= 1.0
        assert -2.0 <= out.score <= 2.0

    def test_all_stopwords_rejected(self):
        with pytest.raises(querysel.SelectionError):
            querysel.wt_select(["the of"], self.src, self.tgt, self.provider,
                               self.ili, k=4, stopwords={"the", "of"})

    def test_no_trends_data_raises(self):
        with pytest.raises(querysel.SelectionError, match="flu"):
            querysel.wt_select(["flu"], self.src, self.tgt, lambda c: None,
                               self.ili, k=4, stopwords=set())

    def test_nan_series_is_skipped_not_perfect(self):
        """A provider's NaN series has no correlation: it is skipped, and
        the pick is the best finite one, not a perfect NaN score."""
        trends = dict(self.trends, a=np.full(30, np.nan))
        out = querysel.wt_select(["flu"], self.src, self.tgt, trends.get,
                                 self.ili, k=4, stopwords=set())[0]
        assert (out.candidate, out.theta_t) == (
            "b", querysel.pearson(self.trends["b"], self.ili))


def oracle_candidates(per_token):
    """The candidate list `wt_select` built before its best-first
    enumeration: the whole product, each text at its best theta_w, sorted
    by (-theta_w, text) and cut at the cap."""
    candidates = {}
    for combo in itertools.product(*per_token):
        text = " ".join(w for w, _ in combo)
        theta_w = float(np.mean([s for _, s in combo]))
        if text not in candidates or theta_w > candidates[text]:
            candidates[text] = theta_w
    ordered = sorted(candidates.items(), key=lambda p: (-p[1], p[0]))
    return ordered[:querysel._MAX_CANDIDATES]


def oracle_wt_select(english_queries, source, target, trends_provider,
                     ili_values, k, stopwords):
    """`wt_select` as it was before its best-first enumeration: every
    candidate of `oracle_candidates` is looked up, in order."""
    ili_values = np.asarray(ili_values, dtype=np.float64)
    results = []
    for query in english_queries:
        tokens = querysel._content_tokens(query, stopwords)
        per_token = [querysel.cosine_topk(t, source, target, k)
                     for t in tokens]
        best = None
        for text, theta_w in oracle_candidates(per_token):
            series = trends_provider(text)
            if series is None:
                continue
            try:
                theta_t = querysel.pearson(series, ili_values)
            except querysel.DegenerateInputError:
                continue
            cand = querysel.QueryCandidate(english=query, candidate=text,
                                           theta_w=theta_w, theta_t=theta_t)
            if (best is None or cand.score > best.score
                    or (cand.score == best.score
                        and cand.candidate < best.candidate)):
                best = cand
        if best is None:
            raise querysel.SelectionError(
                f"no candidate with trends data for query {query!r}")
        results.append(best)
    return results


# Target words with spaces: "a b" + "c" and "a" + "b c" compose the same
# text.
LETTERS = "abcde"
SPACED = [f"{x} {y}" for x in LETTERS for y in LETTERS]


def selection_case(seed, v, d, n_tokens, ties=False, spaces=False):
    """(source, target, query, ili) for one English query of n_tokens
    content words over a V-word target table.

    `ties` draws vectors in {-1, 0, 1} and scales copies by powers of
    two, so cosines, theta_w and scores tie often. `spaces` names the
    target words from LETTERS and SPACED, so different index tuples
    compose the same text.
    """
    rng = Rng(seed)

    def vector():
        if ties:
            return np.round(rng.uniform(-1.5, 1.5, d))
        return rng.uniform(-1, 1, d)

    base = [vector() for _ in range(max(1, v // 3 if ties else v))]
    vectors = [base[i % len(base)] * 2.0 ** (i % 3) for i in range(v)]
    words = [f"t{i:03d}" for i in range(v)]
    if spaces:
        names = [*LETTERS, *SPACED]
        order = rng.choice_without_replacement(len(names), len(names))
        words = [names[i] for i in order][:v] + words[len(names):]
    source_words = [f"s{j}" for j in range(n_tokens)]
    source = EmbeddingTable("en", source_words,
                            [vector() for _ in source_words])
    target = EmbeddingTable("xx", words, vectors)
    return source, target, " ".join(source_words), rng.uniform(0, 5, 20)


class Trends:
    """A trends provider that records its calls. Each text's answer
    depends on the text and the seed only: no series, noise, a scaled
    copy of the ILI series (theta_t ties at its top), a mix, or a
    constant series (skipped)."""

    def __init__(self, seed, ili):
        self.seed, self.ili, self.calls = seed, ili, []

    def __call__(self, text):
        self.calls.append(text)
        h = zlib.crc32(text.encode("utf-8")) ^ self.seed
        kind, rng = h % 5, Rng(h)
        if kind == 0:
            return None
        if kind == 1:
            return rng.normal(0, 1, len(self.ili))
        if kind == 2:
            return self.ili * 2.0 ** (h % 3)
        if kind == 3:
            return self.ili + rng.normal(0, 1, len(self.ili))
        return np.full(len(self.ili), 2.0)


def outcome(select, case, k, trends):
    """What `select` returns for the case's query, as exact reprs, or the
    SelectionError message."""
    source, target, query, ili = case
    try:
        picked = select([query], source, target, trends, ili, k, set())
    except querysel.SelectionError as e:
        return str(e)
    return [(c.english, c.candidate, repr(c.theta_w), repr(c.theta_t))
            for c in picked]


def assert_matches_oracle(case, k, seed):
    """Same pick, same candidate list, and a provider call sequence that
    is a prefix of the oracle's."""
    source, target, query, ili = case
    got_trends, want_trends = Trends(seed, ili), Trends(seed, ili)
    assert (outcome(querysel.wt_select, case, k, got_trends)
            == outcome(oracle_wt_select, case, k, want_trends))
    assert got_trends.calls == want_trends.calls[:len(got_trends.calls)]
    per_token = [querysel.cosine_topk(t, source, target, k)
                 for t in query.split()]
    got = itertools.islice(querysel._ranked(per_token),
                           querysel._MAX_CANDIDATES)
    assert [(t, repr(w)) for t, w in got] == [
        (t, repr(w)) for t, w in oracle_candidates(per_token)]


# (content words, V): the oracle builds V ** n tuples.
SHAPES = [(1, 40), (2, 40), (3, 14), (4, 8)]


class TestBestFirstMatchesProduct:
    """`wt_select` against the product-and-sort oracle above."""

    @pytest.mark.parametrize("n_tokens,v", SHAPES)
    @pytest.mark.parametrize("kind", ["random", "ties", "spaces",
                                      "ties+spaces"])
    def test_every_k(self, n_tokens, v, kind):
        for seed in range(2):
            case = selection_case(seed, v, 3, n_tokens, ties="ties" in kind,
                                  spaces="spaces" in kind)
            for k in sorted({1, 2, v // 2, v - 1, v, v + 3}):
                assert_matches_oracle(case, k, seed)

    def test_spaced_words_compose_one_text_twice(self):
        """The spaces case reaches the best-theta_w-per-text rule."""
        source, target, query, _ = selection_case(0, 30, 3, 2, spaces=True)
        per_token = [querysel.cosine_topk(t, source, target, 30)
                     for t in query.split()]
        texts = [" ".join(w for w, _ in combo)
                 for combo in itertools.product(*per_token)]
        assert len(set(texts)) < len(texts)

    def test_four_words_at_k_100_evaluate_few_theta_w(self, monkeypatch):
        """The product would be 10^8 tuples; best-first evaluates theta_w
        (one np.mean each) for at most a few per candidate."""
        source, target, query, ili = selection_case(3, 500, 8, 4)
        calls = []
        mean = np.mean

        def counted_mean(*args, **kwargs):
            calls.append(args)
            return mean(*args, **kwargs)

        monkeypatch.setattr(np, "mean", counted_mean)
        with pytest.raises(querysel.SelectionError, match=re.escape(
                "no candidate with trends data for query 's0 s1 s2 s3'")):
            querysel.wt_select([query], source, target, lambda t: None, ili,
                               k=100, stopwords=set())
        assert querysel._MAX_CANDIDATES <= len(calls) <= 2000

    def test_stop_once_no_candidate_can_win(self):
        """A perfectly correlated first candidate scores theta_w + 1, which
        no candidate with a lower theta_w reaches: the provider is asked
        once and never for a later candidate."""
        source, target, query, ili = selection_case(4, 300, 8, 2)
        asked = []

        def provider(text):
            assert not asked, f"asked for {text!r} after {asked}"
            asked.append(text)
            return ili * 3.0

        out = querysel.wt_select([query], source, target, provider, ili,
                                 k=100, stopwords=set())[0]
        assert asked == [out.candidate] and out.theta_t == 1.0

    def test_stop_is_strict_so_a_tied_score_still_wins_by_text(self):
        """'b' has the higher theta_w, but theta_w + 1 rounds to the same
        score for 'a'. Both correlate perfectly, so they tie, and 'a'
        wins by text: the stop must not fire at equality."""
        source = EmbeddingTable("en", ["flu"], [[1.0, 0.0]])
        target = EmbeddingTable("xx", ["a", "b"], [[0.6, 0.8000000000000008],
                                                   [0.6, 0.8000000000000006]])
        (_, theta_a), (_, theta_b) = sorted(
            querysel.cosine_topk("flu", source, target, 2))
        assert theta_a < theta_b and theta_a + 1.0 == theta_b + 1.0
        ili = np.arange(6.0) % 4
        case = (source, target, "flu", ili)
        want = outcome(oracle_wt_select, case, 2, lambda t: ili * 2.0)
        assert want[0][1] == "a"
        assert outcome(querysel.wt_select, case, 2,
                       lambda t: ili * 2.0) == want

    def test_stop_cuts_the_lookups_below_the_cap(self):
        source, target, query, ili = selection_case(5, 300, 8, 2)
        case = (source, target, query, ili)
        got, want = Trends(5, ili), Trends(5, ili)
        assert (outcome(querysel.wt_select, case, 100, got)
                == outcome(oracle_wt_select, case, 100, want))
        assert len(want.calls) == querysel._MAX_CANDIDATES
        assert 0 < len(got.calls) < querysel._MAX_CANDIDATES
        assert got.calls == want.calls[:len(got.calls)]

    def test_nan_vector_is_an_error_not_a_stall(self):
        """A NaN cosine has no place in the theta_w order: at k = V it
        would reach the heap and stall the enumeration, and below V the
        shortlist would drop it. Every k refuses the table instead."""
        source = EmbeddingTable("en", ["flu"], [[1.0, 0.0]])
        target = EmbeddingTable("xx", ["a", "b", "c", "d"],
                                [[1.0, 0.0], [np.nan, 1.0], [1.0, 1.0],
                                 [0.0, 1.0]])
        for k in (1, 2, 4):
            with pytest.raises(querysel.SelectionError, match=re.escape(
                    "xx 'b' has a vector whose norm is not finite")):
                querysel.wt_select(["flu"], source, target,
                                   lambda t: np.arange(5.0), np.arange(5.0),
                                   k=k, stopwords=set())

    def test_overflowing_norm_is_an_error(self):
        source = EmbeddingTable("en", ["flu"], [[1e160, 1e160]])
        target = EmbeddingTable("xx", ["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(querysel.SelectionError, match=re.escape(
                "en 'flu' has a vector whose norm is not finite")):
            querysel.cosine_topk("flu", source, target, 1)

    def test_non_finite_cosine_is_an_error(self, monkeypatch):
        """The last guard before the heap: a cosine that is not finite."""
        source, target = make_tables()
        cosine = querysel.cosine
        monkeypatch.setattr(querysel, "cosine", lambda u, v: (
            np.nan if v is target.vector("toux") else cosine(u, v)))
        with pytest.raises(querysel.SelectionError, match=re.escape(
                "cosine of en 'flu' and fr 'toux' is not finite")):
            querysel.cosine_topk("flu", source, target, 5)

    def test_empty_target_vocabulary_has_no_candidate(self):
        source = EmbeddingTable("en", ["flu"], [[1.0, 0.0]])
        target = EmbeddingTable("xx", [], [])
        with pytest.raises(querysel.SelectionError, match=re.escape(
                "no candidate with trends data for query 'flu'")):
            querysel.wt_select(["flu"], source, target, lambda t: None,
                               np.arange(5.0), k=3, stopwords=set())


class TestTranslationSelect:
    def test_identity_mapping(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("english,translated\nthe flu,the flu\nfever,fever\n",
                        encoding="utf-8")
        out = querysel.translation_select(str(path), ["the flu", "fever"])
        assert out == ["the flu", "fever"]

    def test_mapping_honored_verbatim(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("english,translated\nthe flu,la grippe\n",
                        encoding="utf-8")
        assert querysel.translation_select(str(path), ["the flu"]) == [
            "la grippe"]

    def test_missing_row_names_query(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("english,translated\nthe flu,la grippe\n",
                        encoding="utf-8")
        with pytest.raises(querysel.SelectionError, match="fever"):
            querysel.translation_select(str(path), ["the flu", "fever"])


class TestEmbeddingIo:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nflu 1.0 0.0 0.5\nfever 0.0 1.0 0.5\n",
                        encoding="utf-8")
        table = querysel.load_embeddings(str(path), "en")
        assert len(table) == 2
        assert table.dim == 3
        assert np.array_equal(table.vector("flu"), [1.0, 0.0, 0.5])

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("flu 1.0 0.0\nfever 0.0 1.0\n", encoding="utf-8")
        table = querysel.load_embeddings(str(path), "en")
        assert len(table) == 2

    def test_one_dimensional_first_row_is_not_a_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("flu 1.0\nfever 2.0\n", encoding="utf-8")
        table = querysel.load_embeddings(str(path), "en")
        assert table.vocabulary() == ["flu", "fever"]
        assert table.dim == 1

    def test_trailing_space_adds_no_component(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_text("2 2\nflu 1.0 2.0 \nfever 3.0 4.0 \n",
                        encoding="utf-8")
        table = querysel.load_embeddings(str(path), "en")
        assert table.vocabulary() == ["flu", "fever"]
        assert table.dim == 2
        assert np.array_equal(table.vector("flu"), [1.0, 2.0])

    def test_word_without_components_is_data_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("flu 1.0 2.0\nfever\ncough 3.0 4.0\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:2: word 'fever' has no components")):
            querysel.load_embeddings(str(path), "en")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_is_data_error(self, tmp_path, bad):
        path = tmp_path / "emb.txt"
        path.write_text(f"flu 1.0 2.0\nfever {bad} 1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:2: non-finite component {float(bad)}")):
            querysel.load_embeddings(str(path), "en")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("flu 1.0\n\nfever 2.0\n \n", encoding="utf-8")
        table = querysel.load_embeddings(str(path), "en")
        assert table.vocabulary() == ["flu", "fever"]

    def test_vectors_are_rows_of_one_matrix(self):
        table = EmbeddingTable("xx", ["b", "a", "b", "c"],
                               [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert table.vocabulary() == ["b", "a", "c"]  # first place
        assert len(table) == 3 and table.dim == 2
        assert np.array_equal(table.vector("b"), [5.0, 6.0])  # last vector
        for w in table.vocabulary():
            assert table.vector(w).base is table._matrix
        assert np.array_equal(table._matrix, [[5, 6], [3, 4], [7, 8]])

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            EmbeddingTable("xx", ["a", "b"], [[1.0, 2.0], [1.0]])

    def test_selected_roundtrip(self, tmp_path):
        path = tmp_path / "selected_queries.csv"
        cands = [querysel.QueryCandidate("the flu", "grippe", 0.9, 0.7)]
        querysel.write_selected(str(path), cands)
        assert querysel.read_selected(str(path)) == ["grippe"]

    def test_selected_line_breaks_roundtrip(self, tmp_path):
        """A query holding '\\r', '\\n' or '\\r\\n' reads back whole; a row
        without '\\r' keeps the minimal quoting."""
        path = tmp_path / "selected_queries.csv"
        queries = ["grippe", "a\rb", "a\nb", "a\r\nb"]
        querysel.write_selected(str(path), [
            querysel.QueryCandidate("flu", q, 0.5, 0.25) for q in queries])
        assert querysel.read_selected(str(path)) == queries
        text = path.read_bytes().decode("utf-8")
        assert text.split("\n")[:2] == [
            "english,selected,theta_w,theta_t,score",
            "flu,grippe,0.5,0.25,0.75"]
        assert '"flu","a\rb","0.5","0.25","0.75"\n' in text

    def test_plain_query_list_skips_blank_lines(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_bytes(b"grippe\r\n  \r\n fievre \rtoux\n\n")
        assert querysel.read_selected(str(path)) == [
            "grippe", "fievre", "toux"]
