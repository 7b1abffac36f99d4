"""Command-line entry point for experiment jobs.

Subcommands:

    train    one fine-tuning run  -> metrics.json, epochs.csv, weights archive
    sweep    depth x fraction grid with classical baselines
             -> per-cell metrics under cells/, table.csv rewritten per cell
    ablate   sweep with the vanilla quantum block (no internal residual) forced
    probe    gradient-variance probe across depths -> probe.csv

Every artifact is written to a uniquely named temporary file and atomically
renamed (``encoder.atomic_write``), so output files are either complete or
absent. Every setting a command uses, each sweep cell's included, is validated
before it trains or writes anything (floats must be finite), so a rejected
config produces no output at all; an operating-system error while creating
the output directory or writing an artifact exits 1 with an ``error:`` line.
The source config file is copied verbatim into the output directory for
provenance; resolved settings are echoed inside metrics.json. Measured
wall-clock time is printed on stdout but stored as null in metrics.json so
that identical configs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .diagnostics import grad_variance_probe, probe_csv
from .encoder import ModelConfig, atomic_write, save_model
from .feedforward import QUANTUM_BLOCKS, FfnKind
from .runconfig import ConfigError, RunConfig, build_task_data, check_fraction, fraction_tag, load_run_config
from .training import EpochStats, MetricsReport, TrainingDiverged, train

CONFIG_COPY = "config.json"


def _create_out_dir(config: RunConfig) -> Path:
    """The output directory, created, with the source config copied in verbatim."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    target = config.out_dir / CONFIG_COPY
    if not (target.exists() and os.path.samefile(config.source_path, target)):
        atomic_write(target, config.source_path.read_text(encoding="utf-8"))
    return config.out_dir


def _write_report(directory: Path, report: MetricsReport, echo: dict) -> None:
    """``metrics.json`` and ``epochs.csv``, each written from the report's fields."""
    # measured time goes to stdout; files stay reproducible
    doc = {**asdict(report), "wall_clock_s": None, "config_echo": echo}
    atomic_write(directory / "metrics.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    names = [f.name for f in fields(EpochStats)]
    lines = [",".join(names)] + [",".join(repr(getattr(e, n)) for n in names) for e in report.epochs]
    atomic_write(directory / "epochs.csv", "\n".join(lines) + "\n")


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def cmd_train(config_path, out=None, seed=None, strict_depths=None) -> int:
    """Run one training job and write its artifacts; returns the exit code."""
    try:
        rc = load_run_config(config_path, out, seed, strict_depths)
        train_set, val_set, vocab = build_task_data(rc)
        model_cfg = rc.model_config(len(vocab), train_set.num_classes)
        train_cfg = rc.train_config()
        check_fraction("train.fraction", train_cfg.fraction, train_set)
        model, report = train(model_cfg, train_cfg, train_set, val_set, vocab)
        out_dir = _create_out_dir(rc)
        _write_report(out_dir, report, rc.echo(resolved_model=vars(model_cfg), train_fraction=train_cfg.fraction))
        save_model(model, out_dir)
    except (ConfigError, TrainingDiverged, ValueError, OSError) as exc:
        return _fail(exc)
    print(report.summary_line())
    return 0


def _sweep_kind(rc: RunConfig, forced_kind: FfnKind | None) -> FfnKind:
    if forced_kind is not None:
        return forced_kind
    kind = FfnKind(rc.model.get("ffn_kind", ModelConfig.ffn_kind))
    if kind not in QUANTUM_BLOCKS:
        raise ConfigError(
            "model.ffn_kind", "depth sweeps need a quantum feedforward kind"
        )
    return kind


def _run_sweep(config_path, out, seed, strict_depths, forced_kind: FfnKind | None) -> int:
    try:
        rc = load_run_config(config_path, out, seed, strict_depths)
        if rc.sweep is None:
            raise ConfigError("sweep", "required field is missing")
        kind = _sweep_kind(rc, forced_kind)
        train_set, val_set, vocab = build_task_data(rc)
        for fraction in rc.sweep.fractions:
            check_fraction("sweep.fractions", fraction, train_set)
        grid = [(None, {"ffn_kind": FfnKind.CLASSICAL})] if rc.sweep.include_classical else []
        grid += [(depth, {"ffn_kind": kind, "pqc_layers": depth}) for depth in rc.sweep.depths]
        cells = [  # every cell's settings are checked here, before anything is written
            (depth, rc.model_config(len(vocab), train_set.num_classes, **model), rc.train_config(fraction=f))
            for depth, model in grid
            for f in rc.sweep.fractions
        ]
        return _train_cells(rc, cells, train_set, val_set, vocab)
    except (ConfigError, ValueError, OSError) as exc:
        return _fail(exc)


def _train_cells(rc: RunConfig, cells, train_set, val_set, vocab) -> int:
    """Train every cell and write its report, rewriting ``table.csv`` (and any
    ``failures.csv``) after each cell, so a grid cut short keeps the rows of its
    finished cells; a cell that fails to train is recorded, not raised."""
    out_dir = _create_out_dir(rc)
    table = ["model,layers,fraction,val_acc,train_acc,gap,acc_per_param"]
    failures = ["cell,error"]

    def save(name, lines):
        atomic_write(out_dir / name, "\n".join(lines) + "\n")

    save("table.csv", table)
    for depth, model_cfg, train_cfg in cells:
        fraction, cell_kind = train_cfg.fraction, model_cfg.ffn_kind
        tag = f"frac{fraction_tag(fraction)}"
        name = f"classical_{tag}" if depth is None else f"{cell_kind.value}_L{depth}_{tag}"
        try:
            _, report = train(model_cfg, train_cfg, train_set, val_set, vocab)
        except (TrainingDiverged, ValueError) as exc:
            failures.append(f"{name},{str(exc)!r}")
            save("failures.csv", failures)
            print(f"{name}: failed: {exc}", file=sys.stderr)
            continue
        cell_dir = out_dir / "cells" / name
        cell_dir.mkdir(parents=True, exist_ok=True)
        _write_report(cell_dir, report, rc.echo(resolved_model=vars(model_cfg), train_fraction=fraction))
        table.append(
            f"{cell_kind.value},{'-' if depth is None else depth},{fraction!r},"
            f"{report.validation_accuracy!r},{report.training_accuracy!r},"
            f"{report.gap!r},{report.accuracy_per_param!r}"
        )
        save("table.csv", table)
        print(f"{name}: {report.summary_line()}")
    return 1 if len(failures) > 1 else 0


def cmd_sweep(config_path, out=None, seed=None, strict_depths=None) -> int:
    """Depth x fraction grid plus classical baselines; one metrics set per cell."""
    return _run_sweep(config_path, out, seed, strict_depths, forced_kind=None)


def cmd_ablate(config_path, out=None, seed=None, strict_depths=None) -> int:
    """Sweep with the vanilla quantum block (no internal residual) forced on."""
    return _run_sweep(config_path, out, seed, strict_depths, forced_kind=FfnKind.VANILLA_QFFN)


def cmd_probe(config_path, out=None, seed=None, strict_depths=None) -> int:
    """Gradient-variance probe over depths and variants; writes probe.csv."""
    try:
        rc = load_run_config(config_path, out, seed, strict_depths)
        if rc.probe is None:
            raise ConfigError("probe", "required field is missing")
        results = [
            grad_variance_probe(variant, rc.probe.depths, rc.probe.num_samples, rc.seed)
            for variant in rc.probe.variants
        ]
        atomic_write(_create_out_dir(rc) / "probe.csv", probe_csv(*results))
    except (ConfigError, ValueError, OSError) as exc:
        return _fail(exc)
    for result in results:
        for entry in result.entries:
            print(
                f"variant={entry.variant} depth={entry.depth} "
                f"variance={entry.variance:.6g} samples={entry.num_samples}"
            )
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
        "ablate": (cmd_ablate, "run the sweep with the vanilla quantum block"),
        "probe": (cmd_probe, "measure gradient variance across circuit depths"),
    }
    for name, (_, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--strict-depths",
            action="store_true",
            default=None,
            help="reject circuit depths outside the benchmark grid {1,2,4,8}",
        )
    args = parser.parse_args(argv)
    command, _ = commands[args.command]
    return command(args.config, args.out, args.seed, args.strict_depths)


if __name__ == "__main__":
    sys.exit(main())
