"""The benchmark's workloads: the config each one writes, and its output checks.

Every workload is one ``qffn`` job. Its config is generated from the workload
seed alone, so the same seed gives the same job. The synth task draws the
train split from the seed and the val split from seed + 1, inside
``runconfig.build_task_data``.

Run length. The paper protocol (400 train, 100 val, 5 epochs) takes about
20 s for the qffn L=4 job on a 2-core machine, so a 30 s run could hold only
one job and its median would be a single sample. Half the task (200 train,
50 val) for 4 epochs takes 5-9 s and ended at validation accuracy 0.98 or
1.0 on all 24 seeds tried, for both feedforward kinds; after 3 epochs some
seeds were still at 0.72-0.88. The probe keeps the 200 samples of
``configs/probe.json`` (about 2 s per job).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

MIN_VAL_ACCURACY = 0.90  # acceptance criterion 7 of the qffn test suite
ENCODER_LAYERS = 2


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CheckFailed(Exception):
    """A job's outputs are not what the workload requires."""


@dataclass(frozen=True)
class TrainWorkload:
    """``qffn train`` on the 2-class synth task (``configs/synth_train.json`` shape)."""

    name: str
    ffn_kind: str
    pqc_layers: int
    num_train: int = 200
    num_val: int = 50
    epochs: int = 4
    batch_size: int = 32
    min_val_accuracy: float = MIN_VAL_ACCURACY
    command: ClassVar[str] = "train"

    def config(self, seed: int, out_dir: Path) -> dict:
        return {
            "out_dir": str(out_dir),
            "seed": seed,
            "task": {"kind": "synth", "num_train": self.num_train,
                     "num_val": self.num_val, "num_classes": 2},
            "model": {"ffn_kind": self.ffn_kind, "pqc_layers": self.pqc_layers,
                      "num_layers": ENCODER_LAYERS},
            "train": {"learning_rate": 5e-4, "batch_size": self.batch_size,
                      "max_epochs": self.epochs},
        }

    @property
    def examples(self) -> int:
        """Training examples stepped in one job."""
        return self.epochs * self.num_train

    @property
    def jacobians(self) -> int:
        """Loss-gradient evaluations (``model_backward`` calls) in one job."""
        return self.epochs * math.ceil(self.num_train / self.batch_size)

    def expected_calls(self) -> dict:
        """Span call counts that follow from the config alone."""
        quantum = self.ffn_kind != "classical"
        per_block = ENCODER_LAYERS * self.epochs
        forward = per_block * (2 * self.num_train + self.num_val) if quantum else 0
        gradient = per_block * self.num_train if quantum else 0
        return {
            "cli.main": 1,
            "training.train": 1,
            "encoder.model_backward": self.jacobians,
            "training.adam_step": self.jacobians,
            "circuits.pqc_forward": forward,
            "feedforward.qffn_forward": forward,
            "circuits.pqc_value_and_gradients": gradient,
            "feedforward.qffn_backward": gradient,
            "circuits.pqc_gradients": 0,
        }

    def check(self, out_dir: Path) -> dict:
        """Validate the job's artifacts; returns the digests that must repeat."""
        metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        accuracy = metrics["validation_accuracy"]
        if not accuracy >= self.min_val_accuracy:
            raise CheckFailed(f"validation_accuracy {accuracy} < {self.min_val_accuracy}")
        return {name: _sha256(out_dir / name) for name in ("metrics.json", "weights.bin")}


@dataclass(frozen=True)
class ProbeWorkload:
    """``qffn probe`` in the ``configs/probe.json`` shape."""

    name: str
    variants: tuple = ("optimized", "vanilla")
    depths: tuple = (1, 2, 4, 8)
    num_samples: int = 200
    command: ClassVar[str] = "probe"

    def config(self, seed: int, out_dir: Path) -> dict:
        return {
            "out_dir": str(out_dir),
            "seed": seed,
            "probe": {"variants": list(self.variants), "depths": list(self.depths),
                      "num_samples": self.num_samples},
        }

    @property
    def examples(self) -> int:
        """Probe samples, one random (theta, x) draw each, in one job."""
        return len(self.variants) * len(self.depths) * self.num_samples

    @property
    def jacobians(self) -> int:
        """Circuit Jacobians (``pqc_gradients`` calls) in one job."""
        return self.examples

    def expected_calls(self) -> dict:
        return {
            "cli.main": 1,
            "diagnostics.grad_variance_probe": len(self.variants),
            "circuits.pqc_gradients": self.jacobians,
            "circuits.pqc_forward": 0,
            "circuits.pqc_value_and_gradients": 0,
            "encoder.model_backward": 0,
        }

    def check(self, out_dir: Path) -> dict:
        path = out_dir / "probe.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        if header != "depth,variant,variance,num_samples,seed":
            raise CheckFailed(f"probe.csv header {header!r}")
        seen = set()
        for row in rows:
            depth, variant, variance, num_samples, _ = row.split(",")
            value = float(variance)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise CheckFailed(f"variance {value} for {variant} depth {depth} not in [0, 1]")
            if int(num_samples) != self.num_samples:
                raise CheckFailed(f"{variant} depth {depth} used {num_samples} samples")
            seen.add((variant, int(depth)))
        wanted = {(v, d) for v in self.variants for d in self.depths}
        if seen != wanted or len(rows) != len(wanted):
            raise CheckFailed(f"probe.csv rows {sorted(seen)} != {sorted(wanted)}")
        return {"probe.csv": _sha256(path)}


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train_qffn_L4", ffn_kind="qffn", pqc_layers=4),
        TrainWorkload("train_classical", ffn_kind="classical", pqc_layers=1),
        ProbeWorkload("probe"),
    )
}
