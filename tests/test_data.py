"""Tokenizer, TSV ingestion, stratified subsampling, synthetic corpus."""
import os
import re

import numpy as np
import pytest

from qffn.data import (
    CLS_ID,
    MAX_SYNTH_EXAMPLES,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Dataset,
    Vocab,
    build_vocab,
    encode_dataset,
    load_tsv,
    subsample,
    synth_generate,
    synth_keywords,
    tokenize,
)


BAD_SEEDS = [1.5, True, -1]
# The characters besides a line feed that str.splitlines breaks at; in a data file they are text.
LINE_BREAK_TEXT = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def simple_vocab(extra=("movie", "good", "bad")):
    return Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", *extra])


def keyword_oracle_accuracy(dataset: Dataset) -> float:
    """Accuracy of classifying purely by keyword lookup (1.0 by construction)."""
    keywords = synth_keywords(dataset.num_classes)
    lookup = {w: c for c, ws in enumerate(keywords) for w in ws}
    correct = 0
    for text, label in dataset.examples:
        votes = [lookup[w] for w in text.split() if w in lookup]
        if votes and votes[0] == label:
            correct += 1
    return correct / len(dataset)


class TestVocab:
    def test_special_ids_pinned(self):
        v = simple_vocab()
        assert v.index["[PAD]"] == PAD_ID == 0
        assert v.index["[UNK]"] == UNK_ID == 1
        assert v.index["[CLS]"] == CLS_ID == 2
        assert v.index["[SEP]"] == SEP_ID == 3

    def test_rejects_missing_specials(self):
        with pytest.raises(ValueError):
            Vocab(["[PAD]", "[CLS]", "[UNK]", "[SEP]"])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", "a"])

    def test_duplicate_names_the_token_and_both_ids(self):
        with pytest.raises(ValueError, match=re.escape("vocabulary token '[SEP]' is at ids 3 and 5")):
            Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", "[SEP]", "b"])

    def test_rejects_a_non_string_token(self):
        with pytest.raises(ValueError, match="vocabulary tokens must be str"):
            Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", 5])

    def test_file_round_trip(self, tmp_path):
        v = simple_vocab()
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocab.from_file(path)
        assert loaded.tokens == v.tokens

    @pytest.mark.parametrize("token", ["a\nb", "c\r"])
    def test_token_that_would_not_read_back_is_not_saved(self, tmp_path, token):
        path = tmp_path / "vocab.txt"
        with pytest.raises(ValueError, match=re.escape(f"vocabulary token 5 ({token!r}) holds a line feed")):
            simple_vocab(("x", token, "y")).save(path)
        assert not path.exists()

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        simple_vocab().save(path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            simple_vocab(("x", "y")).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]

    def test_inner_carriage_return_reads_back(self, tmp_path):
        # Only a carriage return before the line feed is stripped on reading.
        path = tmp_path / "vocab.txt"
        inner_return = simple_vocab(("x", "c\rd", "y"))
        inner_return.save(path)
        assert Vocab.from_file(path).tokens == inner_return.tokens

    def test_file_lines_end_at_line_feeds_only(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes("[PAD]\r\n[UNK]\r\n[CLS]\r\n[SEP]\r\nmovie\x85good\r\nbad\n".encode())
        assert Vocab.from_file(path).tokens == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "movie\x85good", "bad"]

    def test_build_vocab_orders_by_frequency(self):
        ds = Dataset([("b a a", 0), ("a c", 1)], 2)
        v = build_vocab(ds)
        assert v.tokens[4:] == ["a", "b", "c"]

    def test_build_vocab_does_not_count_special_token_words(self):
        # They already hold ids 0-3, so such a word reads as its special id.
        ds = Dataset([("good [SEP] movie [PAD]", 0), ("[SEP] bad [UNK] [CLS] movie", 1)], 2)
        v = build_vocab(ds)
        assert v.tokens == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "movie", "bad", "good"]
        np.testing.assert_array_equal(
            tokenize(v, ds.examples[0][0], max_len=7), [CLS_ID, 6, SEP_ID, 4, PAD_ID, SEP_ID, PAD_ID]
        )


class TestTokenize:
    def test_known_word(self):
        v = simple_vocab()
        ids = tokenize(v, "movie", max_len=6)
        np.testing.assert_array_equal(ids, [CLS_ID, v.index["movie"], SEP_ID, PAD_ID, PAD_ID, PAD_ID])

    def test_unknown_word_maps_to_unk(self):
        ids = tokenize(simple_vocab(), "zebra", max_len=4)
        assert ids[1] == UNK_ID

    def test_word_over_100_characters_maps_to_unk(self):
        v = simple_vocab(("x" * 100, "x" * 101))
        ids = tokenize(v, f"{'x' * 100} {'x' * 101}", max_len=4)
        np.testing.assert_array_equal(ids, [CLS_ID, v.index["x" * 100], UNK_ID, SEP_ID])

    def test_truncation_keeps_separator(self):
        v = simple_vocab()
        ids = tokenize(v, "good " * 50, max_len=8)
        assert ids.shape == (8,)
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID
        assert np.all(ids != PAD_ID)

    def test_wordpiece_longest_match(self):
        v = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "play", "##ing", "##in"])
        ids = tokenize(v, "playing", max_len=6)
        np.testing.assert_array_equal(ids[:4], [CLS_ID, v.index["play"], v.index["##ing"], SEP_ID])

    def test_deterministic(self):
        v = simple_vocab()
        np.testing.assert_array_equal(tokenize(v, "good bad movie", max_len=10), tokenize(v, "good bad movie", max_len=10))

    def test_max_len_too_small(self):
        with pytest.raises(ValueError):
            tokenize(simple_vocab(), "movie", max_len=1)

    def test_fractional_max_len_is_named(self):
        with pytest.raises(ValueError, match=re.escape("max_len must be an integer >= 2, got 2.5")):
            tokenize(simple_vocab(), "movie", max_len=2.5)

    @pytest.mark.parametrize("max_len", [2.5, True])
    def test_encode_dataset_names_a_max_len_that_is_no_integer(self, max_len):
        ds = Dataset([("good movie", 1)], 2)
        with pytest.raises(ValueError, match=re.escape(f"max_len must be an integer >= 2, got {max_len!r}")):
            encode_dataset(simple_vocab(), ds, max_len=max_len)

    def test_numpy_integer_max_len_accepted(self):
        ds = Dataset([("good movie", 1)], 2)
        ids, _ = encode_dataset(simple_vocab(), ds, max_len=np.int64(6))
        np.testing.assert_array_equal(ids[0], tokenize(simple_vocab(), "good movie", max_len=np.int64(6)))
        np.testing.assert_array_equal(ids[0], tokenize(simple_vocab(), "good movie", max_len=6))

    def test_empty_text(self):
        ids = tokenize(simple_vocab(), "", max_len=4)
        np.testing.assert_array_equal(ids, [CLS_ID, SEP_ID, PAD_ID, PAD_ID])

    def test_encode_dataset_shapes(self):
        ds = Dataset([("good movie", 1), ("bad movie", 0)], 2)
        ids, labels = encode_dataset(simple_vocab(), ds, max_len=8)
        assert ids.shape == (2, 8)
        np.testing.assert_array_equal(ids[0], tokenize(simple_vocab(), "good movie", max_len=8))
        np.testing.assert_array_equal(labels, [1, 0])


class TestLoadTsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("good movie\t1\nbad movie\t0\n")
        ds = load_tsv(path)
        assert len(ds) == 2
        assert ds.examples[0] == ("good movie", 1)
        assert ds.num_classes == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_tsv(path)

    def test_label_out_of_declared_range(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("some text\t14\n")
        with pytest.raises(ValueError, match="14"):
            load_tsv(path, num_classes=14)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("good\t1\nno label here\nbad\t0\n")
        with pytest.raises(ValueError, match=":2"):
            load_tsv(path)

    def test_non_integer_label_reports_location(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("good\tpositive\n")
        with pytest.raises(ValueError, match=":1"):
            load_tsv(path)

    @pytest.mark.parametrize("label", ["1_0", "\u0661", "+1", " 1", "1 "], ids=["underscore", "arabic-indic-one", "plus", "leading-space", "trailing-space"])
    def test_label_not_ascii_digits_is_rejected(self, tmp_path, label):
        path = tmp_path / "d.tsv"
        path.write_text(f"good\t{label}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f":1: label {label!r} is not an integer")):
            load_tsv(path)

    def test_negative_label_reports_location(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("good\t1\nbad\t-1\n")
        with pytest.raises(ValueError, match=":2: label must be non-negative"):
            load_tsv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_tsv(tmp_path / "nope.tsv")

    @pytest.mark.parametrize("brk", LINE_BREAK_TEXT, ids=lambda c: f"U+{ord(c):04X}")
    def test_other_line_breaks_are_text(self, tmp_path, brk):
        path = tmp_path / "d.tsv"
        path.write_bytes(f"good{brk}movie\t1\nbad movie\t0\n".encode())
        ds = load_tsv(path)
        assert ds.examples == [(f"good{brk}movie", 1), ("bad movie", 0)]
        vocab = simple_vocab()
        np.testing.assert_array_equal(tokenize(vocab, ds.examples[0][0], 6), tokenize(vocab, "good movie", 6))
        with path.open("ab") as f:
            f.write(b"no label here\n")
        with pytest.raises(ValueError, match=r"d\.tsv:3: expected 'text<TAB>label'"):
            load_tsv(path)

    def test_crlf_lines(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"good movie\t1\r\nbad movie\t0\r\n")
        assert load_tsv(path).examples == [("good movie", 1), ("bad movie", 0)]

    def test_text_may_contain_tabs(self, tmp_path):
        # the label is everything after the LAST tab
        path = tmp_path / "d.tsv"
        path.write_text("col a\tcol b\t1\n")
        ds = load_tsv(path)
        assert ds.examples[0] == ("col a\tcol b", 1)


class TestSubsample:
    def balanced(self, n=100):
        return Dataset([(f"text {i}", i % 2) for i in range(n)], 2)

    def test_full_fraction_is_identity_up_to_order(self):
        ds = self.balanced()
        sub = subsample(ds, 1.0, seed=42)
        assert sorted(sub.examples) == sorted(ds.examples)

    def test_stratified_counts(self):
        sub = subsample(self.balanced(), 0.1, seed=42)
        labels = sub.labels()
        assert len(sub) == 10
        assert np.sum(labels == 0) == 5 and np.sum(labels == 1) == 5

    def test_same_seed_same_subset(self):
        ds = self.balanced()
        a = subsample(ds, 0.2, seed=7)
        b = subsample(ds, 0.2, seed=7)
        assert a.examples == b.examples

    def test_different_seed_differs(self):
        ds = self.balanced()
        assert subsample(ds, 0.2, seed=7).examples != subsample(ds, 0.2, seed=8).examples

    def test_proportions_within_one_example(self):
        # unbalanced parent: 70/30
        ds = Dataset([(f"t{i}", 0 if i < 70 else 1) for i in range(100)], 2)
        sub = subsample(ds, 0.31, seed=3)
        labels = sub.labels()
        assert len(sub) == 31
        for c, n_c in ((0, 70), (1, 30)):
            assert abs(int(np.sum(labels == c)) - 0.31 * n_c) <= 1.0

    def test_fraction_out_of_range(self):
        for bad in (0.0, -0.5, 1.5, True, "0.5"):
            with pytest.raises(ValueError, match=re.escape(f"fraction must be in (0, 1], got {bad!r}")):
                subsample(self.balanced(), bad, seed=1)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            subsample(self.balanced(), 0.5, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        ds = self.balanced()
        assert subsample(ds, 0.2, seed=np.int64(7)).examples == subsample(ds, 0.2, seed=7).examples

    def test_fraction_rounding_to_empty_is_rejected(self):
        # floor(0.001 * 100) = 0 examples; an empty dataset is never returned
        with pytest.raises(ValueError, match=re.escape("fraction 0.001 of 100 examples selects none")):
            subsample(self.balanced(), 0.001, seed=1)


class TestSynthGenerate:
    def test_counts_and_balance(self):
        ds = synth_generate(280, 14, seed=7)
        assert len(ds) == 280
        labels = ds.labels()
        for c in range(14):
            assert np.sum(labels == c) == 20

    def test_keyword_oracle_is_perfect(self):
        for seed in (1, 42, 99):
            ds = synth_generate(200, 2, seed=seed)
            assert keyword_oracle_accuracy(ds) == 1.0

    def test_keywords_disjoint_across_classes(self):
        sets = [set(ws) for ws in synth_keywords(14)]
        for i in range(14):
            for j in range(i + 1, 14):
                assert not sets[i] & sets[j]

    def test_same_seed_same_corpus(self):
        assert synth_generate(50, 3, seed=5).examples == synth_generate(50, 3, seed=5).examples

    def test_class_count_bounds(self):
        with pytest.raises(ValueError):
            synth_generate(10, 1, seed=0)
        with pytest.raises(ValueError):
            synth_generate(10, 15, seed=0)

    @pytest.mark.parametrize("num_examples", [0, -1])
    def test_no_examples_rejected(self, num_examples):
        with pytest.raises(ValueError, match="num_examples must be >= 1"):
            synth_generate(num_examples, 2, seed=0)

    def test_example_count_above_the_bound_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match=f"num_examples must be <= {MAX_SYNTH_EXAMPLES}, got {MAX_SYNTH_EXAMPLES + 1}"):
            synth_generate(MAX_SYNTH_EXAMPLES + 1, 2, seed=0)

    def test_float_example_count_rejected(self):
        with pytest.raises(ValueError, match="num_examples must be >= 1 and an integer, got 10.0"):
            synth_generate(10.0, 2, seed=0)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            synth_generate(10, 2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert synth_generate(10, 2, seed=np.uint8(5)).examples == synth_generate(10, 2, seed=5).examples

    def test_float_class_count_rejected(self):
        with pytest.raises(ValueError, match=r"num_classes must be an integer in 2\.\.\d+, got 2.0"):
            synth_generate(10, 2.0, seed=0)


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset([], 2)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError):
            Dataset([("x", 2)], 2)

    @pytest.mark.parametrize(
        "examples, num_classes, named",
        [
            ([("a", 0), ("b", 1.7)], 2, r"examples\[1\] label"),
            ([("a", True)], 2, r"examples\[0\] label"),
            ([("a", 0), (123, 0)], 2, r"examples\[1\] text"),
            ([("a", 0)], 2.5, "num_classes"),
            ([("a", 0)], True, "num_classes"),
        ],
        ids=["float-label", "bool-label", "int-text", "float-classes", "bool-classes"],
    )
    def test_bad_field_is_named(self, examples, num_classes, named):
        with pytest.raises(ValueError, match=named):
            Dataset(examples, num_classes)

    @pytest.mark.parametrize(
        "examples, named",
        [
            ([5], r"examples\[0\] must be a \(text, label\) pair"),
            ([("a", 0), ("a",)], r"examples\[1\] must be a \(text, label\) pair"),
            ([("a", 0, 1)], r"examples\[0\] must be a \(text, label\) pair"),
            ("ab", "examples must be a list, got str"),
            ((("a", 0),), "examples must be a list, got tuple"),
        ],
        ids=["int-item", "one-item", "three-items", "str-examples", "tuple-examples"],
    )
    def test_malformed_examples_are_named(self, examples, named):
        with pytest.raises(ValueError, match=named):
            Dataset(examples, 2)

    def test_numpy_integers_accepted(self):
        data = Dataset([("a", np.int64(1)), ("b", np.int32(0))], np.int64(2))
        assert data.labels().tolist() == [1, 0]
