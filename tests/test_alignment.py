import math
import random
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asrcausal import alignment
from asrcausal.alignment import align, normalize_text, score_table
from asrcausal.errors import (
    EmptyReferenceError,
    MissingModelError,
    TooFewValuesError,
)
from asrcausal.ingest import UtteranceRecord


def oracle_align(ref, hyp):
    """Independent exhaustive-DP oracle: lexicographic-minimal
    (total, subs, dels) over all alignments, by memoized recursion."""
    ref, hyp = tuple(ref), tuple(hyp)

    @lru_cache(maxsize=None)
    def best_from(i, j):
        if i == len(ref) and j == len(hyp):
            return (0, 0, 0)
        options = []
        if i < len(ref) and j < len(hyp):
            t, s, d = best_from(i + 1, j + 1)
            options.append((t, s, d) if ref[i] == hyp[j] else (t + 1, s + 1, d))
        if i < len(ref):
            t, s, d = best_from(i + 1, j)
            options.append((t + 1, s, d + 1))
        if j < len(hyp):
            t, s, d = best_from(i, j + 1)
            options.append((t + 1, s, d))
        return min(options)

    t, s, d = best_from(0, 0)
    return s, d, t - s - d


def enumerate_align(ref, hyp):
    """Brute force over every alignment path (tiny inputs only)."""
    best = [None]

    def walk(i, j, t, s, d):
        if i == len(ref) and j == len(hyp):
            cand = (t, s, d)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        if i < len(ref) and j < len(hyp):
            if ref[i] == hyp[j]:
                walk(i + 1, j + 1, t, s, d)
            else:
                walk(i + 1, j + 1, t + 1, s + 1, d)
        if i < len(ref):
            walk(i + 1, j, t + 1, s, d + 1)
        if j < len(hyp):
            walk(i, j + 1, t + 1, s, d)

    walk(0, 0, 0, 0, 0)
    t, s, d = best[0]
    return s, d, t - s - d


def record(uid, reference, hypotheses, **kw):
    return UtteranceRecord(id=uid, speaker_id="spk", reference=reference,
                           hypotheses=hypotheses, **kw)


class TestNormalize:
    def test_case_and_punctuation(self):
        assert normalize_text("The CAT.") == ["the", "cat"]

    def test_apostrophe_kept_whitespace_collapsed(self):
        assert normalize_text("don't  stop") == ["don't", "stop"]

    def test_empty(self):
        assert normalize_text("") == []

    def test_quoting_apostrophes_dropped(self):
        assert normalize_text("'hello' she said") == ["hello", "she", "said"]


class TestAlign:
    def test_identity(self):
        result = align(["a", "b", "c"], ["a", "b", "c"])
        assert (result.substitutions, result.deletions, result.insertions) \
            == (0, 0, 0)
        assert result.wer == 0.0

    def test_single_deletion(self):
        result = align(["the", "cat", "sat"], ["the", "cat"])
        assert result.deletions == 1
        assert result.wer == pytest.approx(1 / 3)

    def test_sub_plus_insertion(self):
        # brute-forced over all alignments of cost <= 2
        assert enumerate_align(["a", "b"], ["x", "b", "y"]) == (1, 0, 1)
        result = align(["a", "b"], ["x", "b", "y"])
        assert (result.substitutions, result.deletions, result.insertions) \
            == (1, 0, 1)
        assert result.wer == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            align([], ["a"])

    def test_wer_can_exceed_one(self):
        result = align(["a"], ["x", "y", "z"])
        assert result.wer > 1.0

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(1234)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(500):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            result = align(ref, hyp)
            assert (result.substitutions, result.deletions,
                    result.insertions) == oracle_align(ref, hyp)

    def test_oracle_matches_brute_force(self):
        rng = random.Random(99)
        vocab = ["a", "b", "c"]
        for _ in range(200):
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
            assert oracle_align(ref, hyp) == enumerate_align(ref, hyp)


@settings(max_examples=200)
@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8))
def test_self_alignment_is_error_free(tokens):
    result = align(tokens, tokens)
    assert (result.substitutions, result.deletions, result.insertions) \
        == (0, 0, 0)


@settings(max_examples=200)
@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abcde"), max_size=8),
       st.sampled_from("abcde"))
def test_appending_token_moves_total_by_at_most_one(ref, hyp, extra):
    before = align(ref, hyp).total_errors
    after = align(ref, hyp + [extra]).total_errors
    assert abs(after - before) <= 1


@st.composite
def shared_affix_pairs(draw):
    """(ref, hyp) = (prefix + ref_mid + suffix, prefix + hyp_mid + suffix)
    over a 1-4 token vocabulary; either middle may be empty."""
    vocab = "abcd"[:draw(st.integers(1, 4))]
    tokens = st.lists(st.sampled_from(vocab), max_size=4)
    prefix, suffix = draw(tokens), draw(tokens)
    ref_mid = draw(st.lists(st.sampled_from(vocab), max_size=6))
    hyp_mid = draw(st.lists(st.sampled_from(vocab), max_size=6))
    ref = prefix + ref_mid + suffix
    assume(ref)
    return ref, prefix + hyp_mid + suffix


@settings(max_examples=500)
@given(shared_affix_pairs())
@example((["a", "b", "a"], ["a", "a"]))
@example((["a", "b"], ["a", "b"]))
def test_kernel_matches_exhaustive_oracle_with_shared_affixes(pair):
    ref, hyp = pair
    result = align(ref, hyp)
    assert (result.substitutions, result.deletions, result.insertions) \
        == oracle_align(ref, hyp)


class TestScoreDataset:
    def test_all_perfect(self):
        records = [record("u1", "a b", {"m": "a b"}),
                   record("u2", "c d", {"m": "c d"})]
        (agg,) = score_table(records, ("m",)).aggregate("m")
        assert agg.wer == 0.0

    def test_micro_average_by_hand(self):
        # (S,D,I,N) = (1,0,0,2) and (0,1,0,2) -> (1+1)/(2+2) = 50%
        records = [record("u1", "a b", {"m": "x b"}),
                   record("u2", "c d", {"m": "c"})]
        (agg,) = score_table(records, ("m",)).aggregate("m")
        assert agg.substitutions == 1 and agg.deletions == 1
        assert agg.wer == pytest.approx(50.0)

    def test_missing_model_names_record(self):
        records = [record("u1", "a", {"m": "a"}),
                   record("u2", "b", {"other": "b"})]
        with pytest.raises(MissingModelError) as err:
            score_table(records, ("m",)).aggregate("m")
        assert "u2" in str(err.value)

    def test_empty_reference_names_record(self):
        records = [record("u9", "...", {"m": "a"})]
        with pytest.raises(EmptyReferenceError) as err:
            score_table(records, ("m",)).aggregate("m")
        assert "u9" in str(err.value)

    def test_groups_sorted(self):
        records = [record("u1", "a", {"m": "a"}, grade="5"),
                   record("u2", "b", {"m": "b"}, grade="1")]
        aggs = score_table(records, ("m",)).aggregate(
            "m", key=lambda r: r.grade)
        assert [a.key for a in aggs] == ["1", "5"]


class TestOracleSelect:
    def test_strict_minimum(self):
        records = [record("u1", "a b", {"A": "a x", "B": "a b"})]
        assert score_table(records).oracle_select() == {"u1": "B"}

    def test_tie_breaks_lexicographically(self):
        records = [record("u1", "a b", {"B": "a b", "A": "a b"})]
        assert score_table(records).oracle_select() == {"u1": "A"}

    def test_fewer_substitutions_wins_tie(self):
        # same WER; Z has 1 deletion, A has 1 substitution -> Z wins
        records = [record("u1", "a b", {"A": "x b", "Z": "b"})]
        assert score_table(records).oracle_select() == {"u1": "Z"}

    def test_dominance_on_random_fixtures(self):
        rng = random.Random(42)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(30):
            records = []
            for i in range(rng.randint(2, 10)):
                ref = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
                hyps = {}
                for m in ("m1", "m2", "m3"):
                    hyps[m] = " ".join(
                        rng.choice(vocab) if rng.random() < 0.4 else w
                        for w in ref)
                records.append(record(f"u{i}", " ".join(ref), hyps))
            oracle_wer = score_table(records).oracle_aggregate().wer
            for m in ("m1", "m2", "m3"):
                (agg,) = score_table(records, (m,)).aggregate(m)
                assert oracle_wer <= agg.wer + 1e-12


class TestModelCorrelation:
    def test_identical_vectors(self):
        records = [record("u1", "a b", {"A": "a b", "B": "a b"}),
                   record("u2", "c d", {"A": "c x", "B": "c x"})]
        models, matrix = score_table(records).correlation()
        assert matrix[0][1] == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        # WER vectors (0,1,0,1) vs (1,0,1,0)
        records = [
            record("u1", "a", {"A": "a", "B": "x"}),
            record("u2", "b", {"A": "x", "B": "b"}),
            record("u3", "c", {"A": "c", "B": "x"}),
            record("u4", "d", {"A": "x", "B": "d"}),
        ]
        _, matrix = score_table(records).correlation()
        assert matrix[0][1] == pytest.approx(-1.0)

    def test_hand_computed_pearson(self):
        # WER vectors (0,1,2) vs (0,2,3) over refs of length 1
        records = [
            record("u1", "a", {"A": "a", "B": "a"}),
            record("u2", "b", {"A": "x", "B": "x q"}),
            record("u3", "c", {"A": "x y", "B": "x y z"}),
        ]
        _, matrix = score_table(records).correlation()
        expected = 1.0 / (math.sqrt(2 / 3) * math.sqrt(42 / 27))
        assert matrix[0][1] == pytest.approx(expected, abs=1e-9)
        assert matrix[0][1] == pytest.approx(0.982, abs=1e-3)

    def test_degenerate_is_nan_not_zero(self):
        records = [record("u1", "a", {"A": "a", "B": "a"}),
                   record("u2", "b", {"A": "b", "B": "x"})]
        _, matrix = score_table(records).correlation()
        assert math.isnan(matrix[0][1])
        assert matrix[0][0] == 1.0

    def test_needs_two_utterances(self):
        with pytest.raises(TooFewValuesError):
            score_table([record("u1", "a", {"A": "a", "B": "a"})]
                        ).correlation()

    def test_matrix_shape_properties(self):
        rng = random.Random(3)
        vocab = ["a", "b", "c"]
        records = []
        for i in range(12):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
            hyps = {m: " ".join(rng.choice(vocab) if rng.random() < 0.5 else w
                                for w in ref) for m in ("m1", "m2", "m3")}
            records.append(record(f"u{i}", " ".join(ref), hyps))
        models, matrix = score_table(records).correlation()
        for i in range(len(models)):
            assert matrix[i][i] == 1.0
            for j in range(len(models)):
                assert matrix[i][j] == matrix[j][i]
                if not math.isnan(matrix[i][j]):
                    assert -1.0 - 1e-12 <= matrix[i][j] <= 1.0 + 1e-12


def test_normalized_texts_align_without_errors():
    result = align(normalize_text("The CAT sat!"),
                   normalize_text("the cat sat"))
    assert result.total_errors == 0


def test_backend_reports_name():
    assert alignment.kernel_backend() == "python"
