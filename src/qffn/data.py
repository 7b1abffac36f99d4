"""Text ingestion, greedy wordpiece tokenization, and synthetic task data.

File formats:
  - dataset: UTF-8 TSV, one ``text<TAB>integer-label`` example per line
  - vocabulary: UTF-8, one token per line, line number = token id; the first
    four lines must be [PAD], [UNK], [CLS], [SEP] in that order

A line ends at a line feed alone, and one carriage return before it is
dropped; the other characters ``str.splitlines`` breaks at (U+0085, U+2028,
form feed, ...) are text, which tokenization reads as whitespace.

Tokenization splits on whitespace and then greedily matches the longest
vocabulary piece, with "##" marking word-internal continuation pieces; a word
with no match becomes a single [UNK]. No lowercasing or other normalization
is applied. A special-token word reads as its special id, so [PAD] is padding.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

_MAX_WORD_CHARS = 100


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Raise ``ValueError`` naming ``seed`` unless it is a non-negative integer."""
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def atomic_write(path: Path, data: bytes | str) -> None:
    """Write ``data`` (str as UTF-8) to ``path`` completely or not at all.

    The bytes go to a uniquely named temporary file beside ``path``, which is
    renamed over it, or removed if anything fails. Writers sharing a directory
    never share a temporary name. The exclusive create keeps the umask-derived
    mode that a plain write gives (``tempfile.mkstemp`` would force 0600).
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    stream = open(tmp, "xb")
    try:
        with stream:
            stream.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 file by the rule above; text after the last line
    feed is one more line unless it is empty."""
    lines = Path(path).read_bytes().decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


@dataclass
class Dataset:
    examples: list[tuple[str, int]]
    num_classes: int

    def __post_init__(self):
        if not is_integer(self.num_classes):
            raise ValueError(f"num_classes must be an integer, got {self.num_classes!r}")
        if not isinstance(self.examples, list):
            raise ValueError(f"examples must be a list, got {type(self.examples).__name__}")
        if not self.examples:
            raise ValueError("examples must not be empty")
        for i, example in enumerate(self.examples):
            if not isinstance(example, (tuple, list)) or len(example) != 2:
                raise ValueError(f"examples[{i}] must be a (text, label) pair, got {example!r}")
            text, label = example
            if not isinstance(text, str):
                raise ValueError(f"examples[{i}] text must be a str, got {text!r}")
            if not is_integer(label):
                raise ValueError(f"examples[{i}] label must be an integer, got {label!r}")
            if not 0 <= label < self.num_classes:
                raise ValueError(f"examples[{i}] label {label} out of range for {self.num_classes} classes")

    def __len__(self):
        return len(self.examples)

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.examples], dtype=np.int64)


class Vocab:
    """Token-to-id map with the four pinned special tokens at ids 0..3."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if not all(isinstance(tok, str) for tok in tokens):
            raise ValueError("vocabulary tokens must be str")
        if tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise ValueError(f"vocabulary must start with {SPECIAL_TOKENS}")
        self.tokens = tokens
        self.index = {tok: i for i, tok in enumerate(tokens)}
        if len(self.index) != len(tokens):  # the index keeps a repeated token's last id
            i, tok = next((i, tok) for i, tok in enumerate(tokens) if self.index[tok] != i)
            raise ValueError(f"vocabulary token {tok!r} is at ids {i} and {self.index[tok]}")

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index

    @classmethod
    def from_file(cls, path):
        return cls(_read_lines(path))

    def save(self, path):
        """One token per line, the format ``from_file`` reads: a token that would
        not read back as itself, one holding a line feed or ending in a carriage
        return, raises ``ValueError`` naming its id before anything is written."""
        for i, tok in enumerate(self.tokens):
            if "\n" in tok or tok.endswith("\r"):
                raise ValueError(f"vocabulary token {i} ({tok!r}) holds a line feed or ends in a carriage return")
        atomic_write(path, "\n".join(self.tokens) + "\n")


def build_vocab(dataset: Dataset) -> Vocab:
    """Whole-word vocabulary from a dataset, most frequent first; a special-token word keeps its id."""
    counts: dict[str, int] = {}
    for text, _ in dataset.examples:
        for word in text.split():
            counts[word] = counts.get(word, 0) + 1
    ordered = sorted(counts.keys() - set(SPECIAL_TOKENS), key=lambda w: (-counts[w], w))
    return Vocab(list(SPECIAL_TOKENS) + ordered)


def _word_ids(vocab: Vocab, word: str) -> list[int]:
    if len(word) > _MAX_WORD_CHARS:
        return [UNK_ID]
    ids = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            pid = vocab.index.get(piece)
            if pid is not None:
                match = pid
                break
            end -= 1
        if match is None:
            return [UNK_ID]
        ids.append(match)
        start = end
    return ids


def _check_max_len(max_len) -> None:
    if not (is_integer(max_len) and max_len >= 2):
        raise ValueError(f"max_len must be an integer >= 2, got {max_len!r}")


def tokenize(vocab: Vocab, text: str, max_len: int = 128) -> np.ndarray:
    """The ids array of length ``max_len``: [CLS] pieces [SEP] [PAD]...

    Pieces beyond ``max_len - 2`` are dropped so the separator always fits.
    """
    _check_max_len(max_len)
    pieces: list[int] = []
    for word in text.split():
        pieces.extend(_word_ids(vocab, word))
    ids = [CLS_ID] + pieces[: max_len - 2] + [SEP_ID]
    ids = ids + [PAD_ID] * (max_len - len(ids))
    return np.array(ids, dtype=np.int64)


def encode_dataset(vocab: Vocab, dataset: Dataset, max_len: int = 128):
    """Tokenize every example: (ids [N, max_len], labels [N])."""
    _check_max_len(max_len)
    ids = np.empty((len(dataset), max_len), dtype=np.int64)
    for i, (text, _) in enumerate(dataset.examples):
        ids[i] = tokenize(vocab, text, max_len)
    return ids, dataset.labels()


def load_tsv(path, num_classes: int | None = None) -> Dataset:
    """Parse a TSV dataset file; malformed lines raise with their line number.

    With ``num_classes`` given, labels are range-checked against it; otherwise
    the class count is inferred as ``max(label) + 1`` (minimum 2).
    """
    path = Path(path)
    examples = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        text, sep, label_str = line.rpartition("\t")
        if not sep or not text:
            raise ValueError(f"{path}:{lineno}: expected 'text<TAB>label'")
        if not (label_str.isascii() and label_str.removeprefix("-").isdigit()):  # int() takes "+1", " 1", "1_0"
            raise ValueError(f"{path}:{lineno}: label {label_str!r} is not an integer")
        label = int(label_str)
        if label < 0:
            raise ValueError(f"{path}:{lineno}: label must be non-negative")
        if num_classes is not None and label >= num_classes:
            raise ValueError(
                f"{path}:{lineno}: label {label} out of range for {num_classes} classes"
            )
        examples.append((text, label))
    if not examples:
        raise ValueError(f"{path}: file contains no examples")
    if num_classes is None:
        num_classes = max(2, max(label for _, label in examples) + 1)
    return Dataset(examples, num_classes)


def subsample(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Label-stratified random subset with floor(fraction * N) examples.

    Per-class quotas start at floor(fraction * n_c); the remainder up to the
    total is assigned to the classes with the largest fractional parts, so no
    class deviates from its parent proportion by more than one example. A
    fraction that selects no example raises ``ValueError``.
    """
    if isinstance(fraction, bool) or not (isinstance(fraction, numbers.Real) and 0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    check_seed(seed)
    target_total = int(np.floor(fraction * len(dataset)))
    if target_total == 0:
        raise ValueError(f"fraction {fraction} of {len(dataset)} examples selects none")
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for i, (_, label) in enumerate(dataset.examples):
        by_class.setdefault(label, []).append(i)
    labels_sorted = sorted(by_class)
    quotas = {c: int(np.floor(fraction * len(by_class[c]))) for c in labels_sorted}
    leftover = target_total - sum(quotas.values())
    remainders = sorted(
        labels_sorted,
        key=lambda c: (-(fraction * len(by_class[c]) - quotas[c]), c),
    )
    for c in remainders[:leftover]:
        quotas[c] += 1
    picked: list[int] = []
    for c in labels_sorted:
        order = rng.permutation(len(by_class[c]))
        picked.extend(by_class[c][j] for j in order[: quotas[c]])
    picked = [picked[j] for j in rng.permutation(len(picked))]
    return Dataset([dataset.examples[i] for i in picked], dataset.num_classes)


_SYLLABLES = ("ba", "de", "ki", "lo", "mu", "na", "po", "ra", "su", "ti", "ve", "zo", "fa", "gu")
_NOISE_WORDS = (
    "the", "and", "of", "with", "quite", "rather", "very", "some",
    "thing", "note", "case", "point", "item", "part", "bit", "deal",
)
KEYWORDS_PER_CLASS = 6
MAX_SYNTH_CLASSES = len(_SYLLABLES)
# Examples per generated split: 10**6 holds DBpedia's 560k training examples, and
# at about 24 us an example (2-core host) a split at the bound takes under 30 s.
MAX_SYNTH_EXAMPLES = 10**6


def synth_keywords(num_classes: int) -> list[list[str]]:
    """Disjoint per-class keyword sets, a fixed function of the class count."""
    return [
        [_SYLLABLES[c] + _SYLLABLES[j] + _SYLLABLES[(c + j + 1) % len(_SYLLABLES)]
         for j in range(KEYWORDS_PER_CLASS)]
        for c in range(num_classes)
    ]


def synth_generate(num_examples: int, num_classes: int, seed: int) -> Dataset:
    """Deterministic keyword-classification corpus, perfectly separable.

    Every text mixes shared noise words with one to three keywords drawn from
    its class's disjoint keyword set, so a keyword-lookup oracle classifies
    the corpus with accuracy 1. Labels cycle through the classes for balanced
    counts, then example order is shuffled.
    """
    if not (is_integer(num_classes) and 2 <= num_classes <= MAX_SYNTH_CLASSES):
        raise ValueError(f"num_classes must be an integer in 2..{MAX_SYNTH_CLASSES}, got {num_classes!r}")
    if not (is_integer(num_examples) and num_examples >= 1):
        raise ValueError(f"num_examples must be >= 1 and an integer, got {num_examples!r}")
    if num_examples > MAX_SYNTH_EXAMPLES:
        raise ValueError(f"num_examples must be <= {MAX_SYNTH_EXAMPLES}, got {num_examples}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    keywords = synth_keywords(num_classes)
    examples = []
    for i in range(num_examples):
        label = i % num_classes
        words = list(rng.choice(_NOISE_WORDS, size=rng.integers(6, 12)))
        for _ in range(rng.integers(1, 4)):
            pos = rng.integers(0, len(words) + 1)
            words.insert(pos, keywords[label][rng.integers(KEYWORDS_PER_CLASS)])
        examples.append((" ".join(words), label))
    examples = [examples[j] for j in rng.permutation(num_examples)]
    return Dataset(examples, num_classes)
