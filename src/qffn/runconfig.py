"""Experiment run configuration: a single JSON document drives every job.

Schema (defaults in parentheses):

    {
      "out_dir": "runs/demo",          # output directory, or pass --out
      "seed": 42,                      # the only randomness source of the run
      "strict_depths": false,          # restrict depths to the benchmark grid {1,2,4,8}
      "task": {
        "kind": "synth",               # or "tsv"
        "num_train": 400, "num_val": 100, "num_classes": 2        # synth
        # "train_path": ..., "val_path": ...,                     # tsv
        # "num_classes": ..., "vocab_path": ...                   # tsv, optional
      },
      "model": {                       # all optional, see ModelConfig defaults
        "ffn_kind": "qffn", "pqc_layers": 1, "hidden": 128, "num_layers": 2,
        "num_heads": 2, "intermediate": 512, "max_seq_len": 128, "dropout": 0.0
      },
      "train": {                       # all optional, see TrainConfig defaults
        "learning_rate": 5e-4, "batch_size": 32, "max_epochs": 5,
        "fraction": 1.0, "shuffle_seed": null
      },
      "sweep": {                       # required by the sweep and ablate commands
        "depths": [1, 2, 4, 8], "fractions": [1.0, 0.2, 0.1],
        "include_classical": true
      },
      "probe": {                       # used by the probe command
        "variants": ["optimized", "vanilla"], "depths": [1, 2, 4, 8],
        "num_samples": 100
      }
    }

Validation is strict: unknown fields and per-section seeds are rejected so a
config file cannot silently drift from what actually ran. The model and train
fields are checked by ``ModelConfig.validate`` and ``TrainConfig.validate``:
each number has its annotated type and is never a bool, floats must be finite
(JSON's NaN and Infinity are rejected), and errors name ``<section>.<field>``.
The train section is checked on load, the model section as soon as the data
fix the vocab size, and both before any output. The resolved vocab size is
always derived from the vocabulary, never written in the config.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .circuits import Ansatz
from .data import MAX_SYNTH_CLASSES, Dataset, Vocab, build_vocab, load_tsv, synth_generate
from .diagnostics import MIN_PROBE_SAMPLES
from .encoder import FfnKind, ModelConfig, ModelConfigError, PAPER_DEPTHS
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"config error at {field_path}: {message}")


# Not section keys: vocab_size/num_classes (from the data), seed (top level), layer_norm_eps.
_MODEL_KEYS = {f.name for f in fields(ModelConfig)} - {"vocab_size", "num_classes", "layer_norm_eps"}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"seed"}
_SWEEP_KEYS = {"depths", "fractions", "include_classical"}
_PROBE_KEYS = {"variants", "depths", "num_samples"}
_TASK_SYNTH_KEYS = {"kind", "num_train", "num_val", "num_classes"}
_TASK_TSV_KEYS = {"kind", "train_path", "val_path", "num_classes", "vocab_path"}
_TOP_KEYS = {"out_dir", "seed", "strict_depths", "task", "model", "train", "sweep", "probe"}


def _reject_unknown(section: dict, allowed: set, path: str) -> None:
    for key in sorted(section):
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _expect(section: dict, key: str, kind, path: str, default=None, required=False):
    where = f"{path}.{key}" if path else key
    if section.get(key) is None:  # absent and explicit null are both "unset"
        if required:
            raise ConfigError(where, "required field is missing")
        return default
    value = section[key]
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(where, f"expected {kind.__name__}, got a boolean")
    if not isinstance(value, kind):
        raise ConfigError(where, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


@dataclass
class RunConfig:
    out_dir: Path
    seed: int
    strict_depths: bool
    task: dict
    model: dict
    train: dict
    sweep: dict | None
    probe: dict | None
    source_path: Path

    def train_config(self, **overrides) -> TrainConfig:
        try:
            cfg = TrainConfig(seed=self.seed, **{**self.train, **overrides})
            cfg.validate()
        except ModelConfigError as exc:
            raise ConfigError("seed" if exc.field == "seed" else f"train.{exc.field}", str(exc)) from exc
        return cfg

    def model_config(self, vocab_size: int, num_classes: int, **overrides) -> ModelConfig:
        try:
            cfg = ModelConfig(
                vocab_size=vocab_size, num_classes=num_classes, **{**self.model, **overrides}
            )
            cfg.validate(strict_depths=self.strict_depths)
        except ModelConfigError as exc:
            raise ConfigError(f"model.{exc.field}", str(exc)) from exc
        return cfg

    def echo(self, **resolved) -> dict:
        doc = {
            "out_dir": str(self.out_dir),
            "seed": self.seed,
            "strict_depths": self.strict_depths,
            "task": self.task,
            "model": self.model,
            "train": self.train,
        }
        doc.update(resolved)
        return doc


def _validate_task(task: dict) -> dict:
    kind = _expect(task, "kind", str, "task", required=True)
    if kind == "synth":
        _reject_unknown(task, _TASK_SYNTH_KEYS, "task")
        num_train = _expect(task, "num_train", int, "task", required=True)
        num_val = _expect(task, "num_val", int, "task", required=True)
        num_classes = _expect(task, "num_classes", int, "task", default=2)
        if num_train < 1 or num_val < 1:
            raise ConfigError("task.num_train", "split sizes must be >= 1")
        if not 2 <= num_classes <= MAX_SYNTH_CLASSES:
            raise ConfigError("task.num_classes", f"must be in 2..{MAX_SYNTH_CLASSES}")
    elif kind == "tsv":
        _reject_unknown(task, _TASK_TSV_KEYS, "task")
        _expect(task, "train_path", str, "task", required=True)
        _expect(task, "val_path", str, "task", required=True)
        _expect(task, "num_classes", int, "task")
        _expect(task, "vocab_path", str, "task")
    else:
        raise ConfigError("task.kind", f"must be 'synth' or 'tsv', got {kind!r}")
    return task


def _check_depths(depths, where: str) -> list:
    if not isinstance(depths, list) or not depths or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in depths
    ):
        raise ConfigError(where, "must be a non-empty list of positive integers")
    return depths


def load_run_config(
    path,
    out_override=None,
    seed_override: int | None = None,
    strict_override: bool | None = None,
) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "")

    for section_name in ("task", "model", "train", "sweep", "probe"):
        section = raw.get(section_name)
        if section is not None and not isinstance(section, dict):
            raise ConfigError(section_name, "must be a JSON object")
    if "seed" in raw.get("train", {}):
        raise ConfigError("train.seed", "all randomness flows from the top-level seed")
    if "seed" in raw.get("probe", {}):
        raise ConfigError("probe.seed", "all randomness flows from the top-level seed")

    def _section(name):  # explicit nulls count as unset
        return {k: v for k, v in (raw.get(name) or {}).items() if v is not None}

    task = _validate_task(_section("task")) if "task" in raw else None
    model = _section("model")
    _reject_unknown(model, _MODEL_KEYS, "model")
    if model.get("ffn_kind", FfnKind.QFFN) not in list(FfnKind):
        raise ConfigError("model.ffn_kind", f"must be one of {[k.value for k in FfnKind]}")
    train = _section("train")
    _reject_unknown(train, _TRAIN_KEYS, "train")

    sweep = _section("sweep") if raw.get("sweep") is not None else None
    if sweep is not None:
        _reject_unknown(sweep, _SWEEP_KEYS, "sweep")
        _check_depths(_expect(sweep, "depths", list, "sweep", required=True), "sweep.depths")
        fractions = _expect(sweep, "fractions", list, "sweep", required=True)
        if not fractions or not all(
            isinstance(f, (int, float)) and not isinstance(f, bool) and 0 < f <= 1 for f in fractions
        ):
            raise ConfigError("sweep.fractions", "must be a non-empty list of fractions in (0, 1]")
        _expect(sweep, "include_classical", bool, "sweep", default=True)

    probe = _section("probe") if raw.get("probe") is not None else None
    if probe is not None:
        _reject_unknown(probe, _PROBE_KEYS, "probe")
        variants = probe.get("variants", [v.value for v in Ansatz])
        if not isinstance(variants, list) or not variants:
            raise ConfigError("probe.variants", "must be a non-empty list")
        for v in variants:
            try:
                Ansatz(v)
            except ValueError:
                raise ConfigError(
                    "probe.variants", f"must contain only {[a.value for a in Ansatz]}"
                ) from None
        depths = _check_depths(probe.get("depths", list(PAPER_DEPTHS)), "probe.depths")
        num_samples = _expect(probe, "num_samples", int, "probe", default=100)
        if num_samples < MIN_PROBE_SAMPLES:
            raise ConfigError("probe.num_samples", f"must be >= {MIN_PROBE_SAMPLES}")
        probe["variants"] = variants
        probe["depths"] = depths
        probe["num_samples"] = num_samples

    out_dir = out_override if out_override is not None else raw.get("out_dir")
    if out_dir is None:
        raise ConfigError("out_dir", "required (set in the config or pass --out)")
    seed = seed_override if seed_override is not None else _expect(raw, "seed", int, "", default=42)
    strict = (
        strict_override
        if strict_override is not None
        else _expect(raw, "strict_depths", bool, "", default=False)
    )

    if strict and sweep is not None:
        for d in sweep["depths"]:
            if d not in PAPER_DEPTHS:
                raise ConfigError("sweep.depths", f"depth {d} not in the benchmark grid {PAPER_DEPTHS}")

    config = RunConfig(
        out_dir=Path(out_dir),
        seed=seed,
        strict_depths=strict,
        task=task,
        model=model,
        train=train,
        sweep=sweep,
        probe=probe,
        source_path=path,
    )
    config.train_config()  # rejects a bad train section or seed before any command starts
    return config


def build_task_data(config: RunConfig) -> tuple[Dataset, Dataset, Vocab]:
    """Materialize the train/val splits and the vocabulary for a run."""
    task = config.task
    if task is None:
        raise ConfigError("task", "required field is missing")
    if task["kind"] == "synth":
        train_set = synth_generate(
            task["num_train"], task.get("num_classes", 2), seed=config.seed, split="train"
        )
        val_set = synth_generate(
            task["num_val"], task.get("num_classes", 2), seed=config.seed + 1, split="val"
        )
        vocab = build_vocab(train_set)
        return train_set, val_set, vocab
    try:
        train_set = load_tsv(task["train_path"], task.get("num_classes"), split="train")
    except (OSError, ValueError) as exc:
        raise ConfigError("task.train_path", str(exc)) from exc
    try:
        val_set = load_tsv(task["val_path"], task.get("num_classes", train_set.num_classes), split="val")
    except (OSError, ValueError) as exc:
        raise ConfigError("task.val_path", str(exc)) from exc
    if val_set.num_classes < train_set.num_classes:
        val_set.num_classes = train_set.num_classes
    if task.get("vocab_path"):
        try:
            vocab = Vocab.from_file(task["vocab_path"])
        except (OSError, ValueError) as exc:
            raise ConfigError("task.vocab_path", str(exc)) from exc
    else:
        vocab = build_vocab(train_set)
    return train_set, val_set, vocab
