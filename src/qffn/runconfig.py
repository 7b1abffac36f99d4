"""Experiment run configuration: a single JSON document drives every job.

Schema (defaults in parentheses):

    {
      "out_dir": "runs/demo",          # output directory, or pass --out
      "seed": 42,                      # the only randomness source of the run
      "task": {
        "kind": "synth",               # or "tsv"
        "num_train": 400, "num_val": 100, "num_classes": 2        # synth, splits <= 10**6
        # "train_path": ..., "val_path": ...,                     # tsv
        # "num_classes": ..., "vocab_path": ...                   # tsv, optional
      },
      "model": {                       # all optional, see ModelConfig defaults;
                                       # ffn_kind defaults to "classical", so sweep
                                       # configs must name a quantum kind
        "ffn_kind": "qffn", "pqc_layers": 1, "hidden": 128, "num_layers": 2,
        "num_heads": 2, "intermediate": 512, "max_seq_len": 128
      },
      "train": {                       # all optional, see TrainConfig defaults
        "learning_rate": 5e-4, "batch_size": 32, "max_epochs": 5
      },
      "sweep": {                       # required by the sweep command, which
                                       # also trains the classical baselines; a
                                       # fraction < 1 subsamples the train split
        "depths": [1, 2, 4, 8], "fractions": [1.0, 0.2, 0.1]
      },
      "probe": {                       # used by the probe command
        "variants": ["optimized", "vanilla"], "depths": [1, 2, 4, 8],
        "num_samples": 100
      }
    }

Validation is strict, so a config file cannot silently drift from what
actually ran. The top level and every section are dataclasses whose field
defaults are the config's defaults (the task is a ``SynthTask`` or ``TsvTask``
by ``kind``), all checked by ``encoder.check_fields``: numbers are never
bools, floats are finite (JSON's NaN and Infinity are rejected), and lists are
non-empty with distinct items. Keys repeated in one object, unknown fields,
per-section seeds and sweep fractions that name one cell twice are rejected,
null counts as unset, and errors name ``<section>.<field>``. Everything is
checked on load, before any output: the model section with stand-ins for the
two fields the data fix (``vocab_size`` and ``num_classes``, never written in
the config), and again, with the real values, once the data are read. An
``out_dir`` that is an existing file, or lies under one, is rejected on load;
a ``sweep.fractions`` entry that would select no training example is rejected
by ``data.subsample`` once the data are read, before any cell trains.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .circuits import MAX_PQC_LAYERS, Ansatz
from .data import MAX_SYNTH_CLASSES, MAX_SYNTH_EXAMPLES, Dataset, Vocab, build_vocab, load_tsv, synth_generate
from .diagnostics import MAX_PROBE_SAMPLES, MIN_PROBE_SAMPLES
from .encoder import MODEL_MINIMUMS, ModelConfig, ModelConfigError, check_fields
from .training import TrainConfig

PAPER_DEPTHS = (1, 2, 4, 8)  # the circuit depths of the paper's grid


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"config error at {field_path}: {message}")


@dataclass
class _Document:  # the top level of a config file
    out_dir: str | None = None
    seed: int = 42
    task: dict | None = None
    model: dict | None = None
    train: dict | None = None
    sweep: dict | None = None
    probe: dict | None = None

    def validate(self) -> None:
        check_fields(self, {})


@dataclass
class SynthTask:
    kind: str
    num_train: int
    num_val: int
    num_classes: int = 2

    def validate(self) -> None:
        sizes = {"num_train": MAX_SYNTH_EXAMPLES, "num_val": MAX_SYNTH_EXAMPLES, "num_classes": MAX_SYNTH_CLASSES}
        check_fields(self, {"num_train": 1, "num_val": 1, "num_classes": 2}, sizes)


@dataclass
class TsvTask:
    kind: str
    train_path: str
    val_path: str
    num_classes: int | None = None  # None: one more than the largest training label, at least 2
    vocab_path: str | None = None  # None: built from the training split

    def validate(self) -> None:
        check_fields(self, {"num_classes": 2})


_TASK_KINDS = {"synth": SynthTask, "tsv": TsvTask}


def fraction_tag(fraction: float) -> str:
    """A data fraction as it appears in a sweep cell's name, e.g. ``qffn_L1_frac0.5``."""
    return f"{fraction:g}"


@dataclass
class SweepConfig:
    depths: list[int]
    fractions: list[float]

    def validate(self) -> None:
        check_fields(self, {"depths": 1}, {"depths": MAX_PQC_LAYERS})
        if not all(0 < f <= 1 for f in self.fractions):
            raise ModelConfigError("fractions", f"items must be in (0, 1], got {self.fractions}")
        tags = [fraction_tag(f) for f in self.fractions]
        if len(set(tags)) < len(tags):
            raise ModelConfigError("fractions", f"must name distinct cells, got {self.fractions} as {tags}")


@dataclass
class ProbeConfig:
    variants: list[str] = field(default_factory=lambda: [a.value for a in Ansatz])
    depths: list[int] = field(default_factory=lambda: list(PAPER_DEPTHS))
    num_samples: int = 100

    def validate(self) -> None:
        check_fields(
            self, {"depths": 1, "num_samples": MIN_PROBE_SAMPLES},
            {"depths": MAX_PQC_LAYERS, "num_samples": MAX_PROBE_SAMPLES},
        )
        if not set(self.variants) <= {a.value for a in Ansatz}:
            raise ModelConfigError(
                "variants", f"must contain only {[a.value for a in Ansatz]}, got {self.variants}"
            )


def _without_nulls(section: dict | None) -> dict | None:
    return None if section is None else {k: v for k, v in section.items() if v is not None}


# The ModelConfig fields the data fix, at their minimums: load checks every other model value with them.
_DATA_STAND_INS = {name: MODEL_MINIMUMS[name] for name in ("vocab_size", "num_classes")}


def _build(section: str, cls, values: dict, derived: dict | None = None):
    """``cls`` built from one config section, in which null counts as unset, and
    the fields the run derives, then validated. Errors name ``<section>.<field>``,
    or the bare field for a derived one or a top-level one (``section`` "")."""
    derived = derived or {}
    prefix = f"{section}." if section else ""
    values = _without_nulls(values)
    settable = [f for f in fields(cls) if f.name not in derived]
    unknown = sorted(set(values) - {f.name for f in settable})
    if unknown:
        reason = "all randomness flows from the top-level seed" if unknown[0] == "seed" else "unknown field"
        raise ConfigError(prefix + unknown[0], reason)
    for f in settable:
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(prefix + f.name, "required field is missing")
    try:
        config = cls(**values, **derived)
        config.validate()
    except ModelConfigError as exc:
        raise ConfigError(exc.field if exc.field in derived else prefix + exc.field, str(exc)) from exc
    return config


@dataclass
class RunConfig:
    out_dir: Path
    seed: int
    task: SynthTask | TsvTask | None
    model: dict  # the section as written, nulls dropped: the data fix vocab_size and num_classes
    train: TrainConfig  # the top-level seed included
    sweep: SweepConfig | None
    probe: ProbeConfig | None
    source_path: Path

    def model_config(self, vocab_size: int, num_classes: int, **overrides) -> ModelConfig:
        derived = {"vocab_size": vocab_size, "num_classes": num_classes}
        return _build("model", ModelConfig, {**self.model, **overrides}, derived)


def _task_config(task: dict) -> SynthTask | TsvTask:
    kind = task.get("kind")
    if kind is None:
        raise ConfigError("task.kind", "required field is missing")
    if kind not in list(_TASK_KINDS):  # a list, since kind may be any JSON value, [] included
        raise ConfigError("task.kind", f"must be one of {list(_TASK_KINDS)}, got {kind!r}")
    return _build("task", _TASK_KINDS[kind], task)


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key written twice in it is an error, not a silent overwrite."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError("<config>", f"key {key!r} is repeated in one object")
        doc[key] = value
    return doc


def load_run_config(path, out_override=None) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_object)
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    doc = _build("", _Document, raw if out_override is None else {**raw, "out_dir": str(out_override)})
    if doc.out_dir is None:
        raise ConfigError("out_dir", "required (set in the config or pass --out)")
    out_dir = Path(doc.out_dir)
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError("out_dir", f"{existing} exists and is not a directory")
    model = _without_nulls(doc.model) or {}
    _build("model", ModelConfig, model, _DATA_STAND_INS)
    return RunConfig(
        out_dir=out_dir,
        seed=doc.seed,
        task=None if doc.task is None else _task_config(doc.task),
        model=model,
        sweep=None if doc.sweep is None else _build("sweep", SweepConfig, doc.sweep),
        probe=None if doc.probe is None else _build("probe", ProbeConfig, doc.probe),
        train=_build("train", TrainConfig, doc.train or {}, {"seed": doc.seed}),
        source_path=path,
    )


def _read(field_path: str, load, *args):
    try:
        return load(*args)
    except (OSError, ValueError) as exc:
        raise ConfigError(field_path, str(exc)) from exc


def build_task_data(config: RunConfig) -> tuple[Dataset, Dataset, Vocab]:
    """Materialize the train/val splits and the vocabulary for a run."""
    task = config.task
    if task is None:
        raise ConfigError("task", "required field is missing")
    if isinstance(task, SynthTask):
        train_set = synth_generate(task.num_train, task.num_classes, seed=config.seed)
        val_set = synth_generate(task.num_val, task.num_classes, seed=config.seed + 1)
        return train_set, val_set, build_vocab(train_set)
    train_set = _read("task.train_path", load_tsv, task.train_path, task.num_classes)
    val_set = _read("task.val_path", load_tsv, task.val_path, train_set.num_classes)
    if task.vocab_path:
        return train_set, val_set, _read("task.vocab_path", Vocab.from_file, task.vocab_path)
    return train_set, val_set, build_vocab(train_set)

