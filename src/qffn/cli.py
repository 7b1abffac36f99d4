"""Command-line entry point for experiment jobs.

Subcommands:

    train    one fine-tuning run  -> metrics.json, epochs.csv, weights archive
    sweep    depth x fraction grid of the config's quantum kind, with
             classical baselines -> per-cell metrics under cells/, table.csv
             rewritten per cell (the paper's ablation is the same grid with
             ``"ffn_kind": "vanilla_qffn"``, configs/synth_ablate.json)
    probe    gradient-variance probe across depths -> probe.csv

Every artifact is written to a uniquely named temporary file and atomically
renamed (``data.atomic_write``), so output files are either complete or
absent. Every setting a command uses, each sweep cell's included, is validated
before it trains or writes anything (floats must be finite), so a rejected
config produces no output at all; an operating-system error while creating
the output directory or writing an artifact exits 1 with an ``error:`` line.
Every setting comes from the config file; ``--out`` may override its output
directory, into which the file's bytes are copied. metrics.json's
``config_echo`` holds only what that copy does not fix: the model and train
settings trained, with the defaults, the seed and the data-fixed sizes filled
in. Wall-clock time is printed, not stored, and no file records the output
directory, so the copy rerun into any directory writes every file byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

from .data import atomic_write, subsample
from .diagnostics import grad_variance_probe
from .encoder import ModelConfig, save_model
from .feedforward import QUANTUM_BLOCKS, FfnKind
from .runconfig import ConfigError, RunConfig, build_task_data, fraction_tag, load_run_config
from .training import EpochStats, MetricsReport, TrainConfig, TrainingDiverged, train

CONFIG_COPY = "config.json"


def _create_out_dir(config: RunConfig) -> Path:
    """The output directory, created, with the source config's bytes copied in."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    target = config.out_dir / CONFIG_COPY
    if not (target.exists() and os.path.samefile(config.source_path, target)):
        atomic_write(target, config.source_path.read_bytes())
    return config.out_dir


def _write_csv(path: Path, rows) -> None:
    """``rows`` as CSV records, one per line; a float renders as its ``repr``."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    atomic_write(path, text.getvalue())


def _write_report(directory: Path, report: MetricsReport, model_cfg: ModelConfig, train_cfg: TrainConfig, **cell):
    """``metrics.json`` and ``epochs.csv``, each written from the report's fields;
    ``config_echo`` holds the model and train settings trained, and ``cell``."""
    doc = {**asdict(report), "config_echo": {"model": vars(model_cfg), "train": asdict(train_cfg), **cell}}
    atomic_write(directory / "metrics.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_csv(directory / "epochs.csv", [[f.name for f in fields(EpochStats)], *map(astuple, report.epochs)])


def _command(run):
    """``run(config) -> exit code`` as a command ``(config_path, out=None) -> exit code``.
    The one error boundary of every command: the config is loaded, then run, and
    a config, training or operating-system error exits 1 with an ``error:`` line."""

    def command(config_path, out=None) -> int:
        try:
            return run(load_run_config(config_path, out))
        except (TrainingDiverged, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    command.__name__, command.__doc__ = run.__name__, run.__doc__
    return command


@_command
def cmd_train(rc: RunConfig) -> int:
    """Run one training job and write its artifacts; returns the exit code."""
    train_set, val_set, vocab = build_task_data(rc)
    model_cfg = rc.model_config(len(vocab), train_set.num_classes)
    started = time.perf_counter()
    model, report = train(model_cfg, rc.train, train_set, val_set, vocab)
    elapsed = time.perf_counter() - started
    out_dir = _create_out_dir(rc)
    _write_report(out_dir, report, model_cfg, rc.train)
    save_model(model, out_dir)
    print(f"{report.summary_line()} wall_clock_s={elapsed:.1f}")
    return 0


@_command
def cmd_sweep(rc: RunConfig) -> int:
    """Depth x fraction grid of ``model.ffn_kind`` plus classical baselines; one metrics set per cell.
    All cells of a fraction below 1 train on one subsample of the split, drawn from the seed."""
    if rc.sweep is None:
        raise ConfigError("sweep", "required field is missing")
    kind = FfnKind(rc.model.get("ffn_kind", ModelConfig.ffn_kind))
    if kind not in QUANTUM_BLOCKS:
        raise ConfigError("model.ffn_kind", "depth sweeps need a quantum feedforward kind")
    train_set, val_set, vocab = build_task_data(rc)
    try:
        splits = {f: train_set if f == 1 else subsample(train_set, f, rc.seed) for f in rc.sweep.fractions}
    except ValueError as exc:  # a fraction that selects no example
        raise ConfigError("sweep.fractions", str(exc)) from exc
    grid = [(None, {"ffn_kind": FfnKind.CLASSICAL})]
    grid += [(depth, {"ffn_kind": kind, "pqc_layers": depth}) for depth in rc.sweep.depths]
    # every cell's settings are checked here, before anything is written
    models = [(depth, rc.model_config(len(vocab), train_set.num_classes, **model)) for depth, model in grid]
    cells = [(depth, model_cfg, f, split) for depth, model_cfg in models for f, split in splits.items()]
    return _train_cells(rc, cells, val_set, vocab)


def _train_cells(rc: RunConfig, cells, val_set, vocab) -> int:
    """Train every cell on its fraction's split and write its report, rewriting
    ``table.csv`` (and any ``failures.csv``) after each cell, so a grid cut short
    keeps its finished rows; a cell that fails to train is recorded, not raised."""
    out_dir = _create_out_dir(rc)
    table = [["model", "layers", "fraction", "val_acc", "train_acc", "gap", "acc_per_param"]]
    failures = [["cell", "error"]]
    _write_csv(out_dir / "table.csv", table)
    for depth, model_cfg, fraction, split in cells:
        cell_kind = model_cfg.ffn_kind
        tag = f"frac{fraction_tag(fraction)}"
        name = f"classical_{tag}" if depth is None else f"{cell_kind.value}_L{depth}_{tag}"
        started = time.perf_counter()
        try:
            _, report = train(model_cfg, rc.train, split, val_set, vocab)
            elapsed = time.perf_counter() - started
        except (TrainingDiverged, ValueError) as exc:
            failures.append([name, str(exc)])
            _write_csv(out_dir / "failures.csv", failures)
            print(f"{name}: failed: {exc}", file=sys.stderr)
            continue
        cell_dir = out_dir / "cells" / name
        cell_dir.mkdir(parents=True, exist_ok=True)
        _write_report(cell_dir, report, model_cfg, rc.train, train_fraction=fraction)
        table.append([
            cell_kind.value, "-" if depth is None else depth, fraction, report.validation_accuracy,
            report.training_accuracy, report.gap, report.accuracy_per_param,
        ])
        _write_csv(out_dir / "table.csv", table)
        print(f"{name}: {report.summary_line()} wall_clock_s={elapsed:.1f}")
    return 1 if len(failures) > 1 else 0


@_command
def cmd_probe(rc: RunConfig) -> int:
    """Gradient-variance probe over depths and variants; writes probe.csv."""
    if rc.probe is None:
        raise ConfigError("probe", "required field is missing")
    probe = rc.probe
    rows = [
        [depth, variant, variance, probe.num_samples, rc.seed]
        for variant in probe.variants
        for depth, variance in zip(probe.depths, grad_variance_probe(variant, probe.depths, probe.num_samples, rc.seed))
    ]
    _write_csv(_create_out_dir(rc) / "probe.csv", [["depth", "variant", "variance", "num_samples", "seed"], *rows])
    for depth, variant, variance, num_samples, _ in rows:
        print(f"variant={variant} depth={depth} variance={variance:.6g} samples={num_samples}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qffn",
        description="Experiments on a compact text encoder with quantum feedforward blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": (cmd_train, "run one training job"),
        "sweep": (cmd_sweep, "run a depth x fraction grid with classical baselines"),
        "probe": (cmd_probe, "measure gradient variance across circuit depths"),
    }
    for name, (_, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
    args = parser.parse_args(argv)
    return commands[args.command][0](args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
