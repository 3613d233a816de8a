import re

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
