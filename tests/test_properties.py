"""Property-based checks of the gate primitives, the ansatz circuits, the
tokenizer and vocabulary, the stratified subsample and the run-config loader.

Derandomized and without an example database, so every run draws the same
examples and leaves no files behind.
"""
import copy
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qffn.circuits import Ansatz, PqcConfig, pqc_forward, pqc_param_count
from qffn.data import CLS_ID, PAD_ID, SEP_ID, SPECIAL_TOKENS, UNK_ID, Dataset, Vocab, build_vocab, subsample, tokenize
from qffn.runconfig import ConfigError, RunConfig, SynthTask, TsvTask, load_run_config
from qffn.statevector import cnot_permutation, cz_signs, rotate_rows
from qffn.training import TrainConfig

# Hypothesis also caches the constants it finds in local source under its
# storage directory (./.hypothesis by default), while collecting tests, so the
# directory is moved before collection ends; it is removed at exit.
_STORAGE = tempfile.TemporaryDirectory(prefix="qffn-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
ANGLES = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)


def rotation(kind, angles):
    """Per-row RY or RZ as ``gate[out, in, rows]``."""
    half = 0.5 * np.asarray(angles)
    if kind == "ry":
        c, s = np.cos(half), np.sin(half)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    phase = np.exp(-1j * half)
    zero = np.zeros_like(phase)
    return np.array([[phase, zero], [zero, phase.conj()]])


@st.composite
def gate_sequences(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 3))
    kinds = ["ry", "rz"] + (["cx", "cz"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind in ("ry", "rz"):
            angles = draw(st.lists(ANGLES, min_size=rows, max_size=rows))
            gates.append((kind, draw(st.integers(0, n - 1)), angles))
        else:
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append((kind, a, b))
    return n, rows, gates, draw(st.integers(0, 2**32 - 1))


@st.composite
def circuit_points(draw):
    config = PqcConfig(draw(st.sampled_from(list(Ansatz))), draw(st.integers(1, 8)))
    p = pqc_param_count(config)
    theta = draw(st.lists(ANGLES, min_size=p, max_size=p))
    x = draw(st.lists(ANGLES, min_size=config.num_qubits, max_size=config.num_qubits))
    return config, np.array(theta), np.array(x)


@PROPERTY
@given(gate_sequences())
def test_primitives_preserve_the_norm(sequence):
    n, rows, gates, seed = sequence
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((2**n, rows)) + 1j * rng.standard_normal((2**n, rows))
    amps /= np.linalg.norm(amps, axis=0)
    for kind, a, b in gates:
        if kind in ("ry", "rz"):
            amps = rotate_rows(amps, a, rotation(kind, b))
        elif kind == "cx":
            amps = amps[cnot_permutation(n, a, b)]
        else:
            amps = amps * cz_signs(n, a, b)[:, None]
    np.testing.assert_allclose(np.sum(np.abs(amps) ** 2, axis=0), 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(circuit_points())
def test_expectations_stay_in_unit_interval(point):
    out = pqc_forward(*point)
    assert out.shape == (point[0].num_qubits,)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


@PROPERTY
@given(circuit_points())
def test_forward_is_two_pi_periodic_in_every_angle(point):
    config, theta, x = point
    base = pqc_forward(config, theta, x)
    for vector in (theta, x):
        for i in range(vector.size):
            saved = vector[i]
            vector[i] = saved + 2 * np.pi
            shifted = pqc_forward(config, theta, x)
            vector[i] = saved
            np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12, err_msg=f"index {i}")


WORDS = st.text(alphabet="abc#", min_size=1, max_size=6)


@st.composite
def labelled_texts(draw):
    """A dataset of short texts over a small alphabet, labels from 2-4 classes."""
    num_classes = draw(st.integers(2, 4))
    texts = draw(st.lists(st.lists(WORDS, max_size=8).map(" ".join), min_size=1, max_size=40))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=len(texts), max_size=len(texts)))
    return Dataset(list(zip(texts, labels)), num_classes)


def check_encoding(vocab, text, max_len):
    """The tokenize layout: [CLS] pieces [SEP] then padding, [PAD] exactly
    after the unpadded prefix, every id a vocabulary id; returns the pieces."""
    ids = tokenize(vocab, text, max_len)
    assert ids.shape == (max_len,)
    length = int(np.sum(ids != PAD_ID))
    assert 2 <= length <= max_len
    assert np.all(ids[:length] != PAD_ID)
    assert ids[0] == CLS_ID and ids[length - 1] == SEP_ID
    assert np.all(ids[length:] == PAD_ID)
    assert np.all((ids >= 0) & (ids < len(vocab)))
    return ids[1 : length - 1].tolist()


@PROPERTY
@given(labelled_texts(), st.integers(2, 12))
def test_built_vocabulary_covers_its_dataset(dataset, max_len):
    vocab = build_vocab(dataset)
    assert tuple(vocab.tokens[:4]) == SPECIAL_TOKENS
    assert len(set(vocab.tokens)) == len(vocab)
    assert all(vocab.index[token] == i for i, token in enumerate(vocab.tokens))
    for text, _ in dataset.examples:
        words = text.split()
        assert all(word in vocab for word in words)
        # every word is one whole-word piece, so the pieces are the words, truncated
        pieces = check_encoding(vocab, text, max_len)
        assert pieces == [vocab.index[w] for w in words][: max_len - 2]
        assert UNK_ID not in pieces


@PROPERTY
@given(st.lists(WORDS, unique=True, max_size=12), st.lists(WORDS, max_size=8), st.integers(2, 12))
def test_wordpieces_spell_each_word_or_unk_it(pieces, words, max_len):
    vocab = Vocab(list(SPECIAL_TOKENS) + pieces)
    joined = []
    for word in words:
        ids = check_encoding(vocab, word, 2 + len(word))  # a piece covers at least one character
        joined += ids
        if ids != [UNK_ID]:
            first, *rest = (vocab.tokens[i] for i in ids)
            assert all(token.startswith("##") for token in rest)
            assert first + "".join(token[2:] for token in rest) == word
    text = " ".join(words)
    assert check_encoding(vocab, text, 2 + len(joined)) == joined
    assert check_encoding(vocab, text, max_len) == joined[: max_len - 2]


@PROPERTY
@given(labelled_texts(), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2**32 - 1))
def test_subsample_meets_every_class_quota(dataset, fraction, seed):
    target = math.floor(fraction * len(dataset))
    if target == 0:
        with pytest.raises(ValueError):
            subsample(dataset, fraction, seed)
        return
    subset = subsample(dataset, fraction, seed)
    assert len(subset) == target and subset.num_classes == dataset.num_classes
    assert not Counter(subset.examples) - Counter(dataset.examples)  # drawn without replacement
    parent, picked = Counter(dataset.labels().tolist()), Counter(subset.labels().tolist())
    for label, count in parent.items():
        assert abs(picked[label] - fraction * count) < 1.0 + 1e-9, label
    assert subsample(dataset, fraction, seed).examples == subset.examples


SYNTH_DOC = {
    "out_dir": "out", "seed": 42,
    "task": {"kind": "synth", "num_train": 24, "num_val": 12, "num_classes": 2},
    "model": {"ffn_kind": "qffn", "pqc_layers": 1, "hidden": 16, "num_layers": 1, "num_heads": 1,
              "intermediate": 32, "max_seq_len": 16},
    "train": {"learning_rate": 5e-4, "batch_size": 8, "max_epochs": 1},
    "sweep": {"depths": [1, 2], "fractions": [1.0, 0.5]},
    "probe": {"variants": ["optimized", "vanilla"], "depths": [1, 2], "num_samples": 30},
}
TSV_DOC = {
    **SYNTH_DOC,
    "task": {"kind": "tsv", "train_path": "train.tsv", "val_path": "val.tsv", "num_classes": 2,
             "vocab_path": "vocab.txt"},
}
SHORT_STRINGS = st.sampled_from(["", "x", "seed", "synth", "tsv", "qffn", "vanilla"])
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2), SHORT_STRINGS,
    st.sampled_from([10**400, float("nan"), float("inf"), float("-inf")]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SHORT_STRINGS, inner, max_size=3),
    max_leaves=6,
)
_CONFIG_DIR = tempfile.TemporaryDirectory(prefix="qffn-config-fuzz-")


@st.composite
def config_documents(draw):
    """A valid document with random JSON at one to three of its sections or keys."""
    doc = copy.deepcopy(draw(st.sampled_from([SYNTH_DOC, TSV_DOC])))
    paths = [(key,) for key in doc] + [
        (section, key) for section, body in doc.items() if isinstance(body, dict) for key in body
    ]
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        parent = doc[path[0]] if len(path) == 2 else doc
        if isinstance(parent, dict):  # an earlier edit may have replaced the section
            parent[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(PROPERTY, max_examples=150)
@given(config_documents())
def test_config_loader_raises_only_config_errors(doc):
    path = Path(_CONFIG_DIR.name) / "run.json"
    path.write_text(json.dumps(doc))
    try:
        assert isinstance(load_run_config(path), RunConfig)
    except ConfigError:
        pass


@pytest.mark.parametrize("doc", [SYNTH_DOC, TSV_DOC], ids=["synth", "tsv"])
def test_fuzzed_documents_load_unmutated(doc, tmp_path, monkeypatch):
    # The fuzz above starts from these, so each must be a valid config as written.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    config = load_run_config(path)
    task = {"synth": SynthTask, "tsv": TsvTask}[doc["task"]["kind"]](**doc["task"])
    assert (config.model, config.train, config.task) == (doc["model"], TrainConfig(**doc["train"], seed=doc["seed"]), task)
