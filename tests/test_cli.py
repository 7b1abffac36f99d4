"""CLI commands: artifact emission, validation, determinism, sweep/probe shapes."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qffn.cli as cli
from qffn.cli import cmd_ablate, cmd_probe, cmd_sweep, cmd_train, main
from qffn.training import TrainingDiverged

TINY_MODEL = {"hidden": 16, "num_layers": 1, "num_heads": 1,
              "intermediate": 32, "max_seq_len": 16}
TINY_TRAIN = {"max_epochs": 1, "batch_size": 8}


def write_config(tmp_path, name="run.json", **overrides):
    doc = {
        "out_dir": str(tmp_path / "out"),
        "seed": 42,
        "task": {"kind": "synth", "num_train": 24, "num_val": 12, "num_classes": 2},
        "model": {"ffn_kind": "qffn", "pqc_layers": 1, **TINY_MODEL},
        "train": dict(TINY_TRAIN),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path, doc


class TestTrainCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        config, doc = write_config(tmp_path)
        assert cmd_train(config) == 0
        out = tmp_path / "out"
        for name in ("metrics.json", "epochs.csv", "weights.bin", "weights.json", "config.json"):
            assert (out / name).exists(), name
        assert not list(out.glob("*.tmp"))
        assert (out / "config.json").read_text() == config.read_text()
        summary = capsys.readouterr().out
        assert "val_acc=" in summary and "wall_clock_s=" in summary

    def test_metrics_schema(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert cmd_train(config) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert set(doc) == {
            "validation_accuracy", "training_accuracy", "gap", "accuracy_per_param",
            "param_total", "epochs", "wall_clock_s", "config_echo",
        }
        assert doc["gap"] == doc["training_accuracy"] - doc["validation_accuracy"]
        assert doc["wall_clock_s"] is None
        assert set(doc["epochs"][0]) == {"epoch", "train_loss", "val_loss", "train_acc", "val_acc"}
        assert doc["config_echo"]["seed"] == 42
        header = (tmp_path / "out" / "epochs.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,train_acc,val_acc"

    def test_rerun_is_byte_identical(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert cmd_train(config) == 0
        out = tmp_path / "out"
        first = {n: (out / n).read_bytes() for n in ("metrics.json", "epochs.csv", "weights.bin")}
        assert cmd_train(config) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_byte_identity_across_processes_and_hash_seeds(self, tmp_path):
        config, _ = write_config(tmp_path)
        blobs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            run = subprocess.run(
                [sys.executable, "-m", "qffn.cli", "train", "--config", str(config)],
                capture_output=True, text=True, env=env,
            )
            assert run.returncode == 0, run.stderr
            blobs.append(
                tuple((tmp_path / "out" / n).read_bytes()
                      for n in ("metrics.json", "epochs.csv", "weights.bin"))
            )
        assert blobs[0] == blobs[1]

    def test_strict_depths_rejects_off_grid(self, tmp_path, capsys):
        config, _ = write_config(
            tmp_path, model={"ffn_kind": "qffn", "pqc_layers": 3, **TINY_MODEL},
            strict_depths=True,
        )
        assert cmd_train(config) == 1
        assert not (tmp_path / "out").exists()
        assert "pqc_layers" in capsys.readouterr().err

    def test_off_grid_depth_allowed_without_strict_flag(self, tmp_path):
        config, _ = write_config(
            tmp_path, model={"ffn_kind": "qffn", "pqc_layers": 3, **TINY_MODEL}
        )
        assert cmd_train(config) == 0

    def test_missing_dataset_path_leaves_no_outputs(self, tmp_path, capsys):
        config, _ = write_config(
            tmp_path,
            task={"kind": "tsv", "train_path": str(tmp_path / "none.tsv"),
                  "val_path": str(tmp_path / "none.tsv")},
        )
        assert cmd_train(config) == 1
        assert not (tmp_path / "out").exists()
        assert "task.train_path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("model", "hidden", "abc"),
            ("model", "hidden", True),
            ("model", "dropout", "x"),
            ("model", "num_heads", 0),
            ("model", "pqc_layers", 2.5),
            ("train", "shuffle_seed", "abc"),
        ],
    )
    def test_mistyped_value_named_in_error(self, tmp_path, capsys, section, field, value):
        doc = {"model": {"ffn_kind": "qffn", "pqc_layers": 1, **TINY_MODEL}, "train": dict(TINY_TRAIN)}
        doc[section][field] = value
        config, _ = write_config(tmp_path, **doc)
        assert main(["train", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        assert f"config error at {section}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["num_layers", "intermediate"])
    def test_zero_layers_or_width_named_in_error(self, tmp_path, capsys, field):
        config, _ = write_config(tmp_path, model={"ffn_kind": "classical", **TINY_MODEL, field: 0})
        assert main(["train", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        assert f"config error at model.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value,kind",
        [
            ("max_seq_len", 10**12, "qffn"),
            ("pqc_layers", 10**6, "qffn"),
            ("hidden", 10**9, "qffn"),
            ("num_layers", 10**6, "qffn"),
            ("intermediate", 10**9, "classical"),
        ],
    )
    def test_oversized_model_named_before_any_allocation(self, tmp_path, capsys, field, value, kind):
        config, _ = write_config(tmp_path, model={**TINY_MODEL, "ffn_kind": kind, field: value})
        assert main(["train", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert f"config error at model.{field}" in err
        assert "Traceback" not in err

    def test_unknown_field_named_in_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, typo_field=1)
        assert cmd_train(config) == 1
        assert "typo_field" in capsys.readouterr().err

    def test_per_section_seed_rejected(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, train={"seed": 1, **TINY_TRAIN})
        assert cmd_train(config) == 1
        assert "train.seed" in capsys.readouterr().err

    def test_seed_override_changes_results(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert cmd_train(config) == 0
        baseline = (tmp_path / "out" / "epochs.csv").read_bytes()
        assert cmd_train(config, seed=7) == 0
        assert (tmp_path / "out" / "epochs.csv").read_bytes() != baseline

    def test_out_override(self, tmp_path):
        config, _ = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert cmd_train(config, out=other) == 0
        assert (other / "metrics.json").exists()

    def test_tsv_task_end_to_end(self, tmp_path):
        train_file = tmp_path / "train.tsv"
        val_file = tmp_path / "val.tsv"
        rows = [("good fine nice", 1), ("bad awful poor", 0)] * 8
        train_file.write_text("".join(f"{t}\t{l}\n" for t, l in rows))
        val_file.write_text("good fine\t1\nbad poor\t0\n")
        config, _ = write_config(
            tmp_path,
            task={"kind": "tsv", "train_path": str(train_file),
                  "val_path": str(val_file), "num_classes": 2},
        )
        assert cmd_train(config) == 0


class TestSweepCommand:
    def sweep_config(self, tmp_path, **overrides):
        return write_config(
            tmp_path,
            sweep={"depths": [1, 2], "fractions": [1.0, 0.5]},
            **overrides,
        )

    def test_grid_rows_and_cells(self, tmp_path):
        config, _ = self.sweep_config(tmp_path)
        assert cmd_sweep(config) == 0
        out = tmp_path / "out"
        lines = (out / "table.csv").read_text().strip().split("\n")
        assert lines[0] == "model,layers,fraction,val_acc,train_acc,gap,acc_per_param"
        assert len(lines) == 1 + 2 * 2 + 2  # grid rows + classical baselines
        classical = [l for l in lines[1:] if l.startswith("classical,-,")]
        assert len(classical) == 2
        assert (out / "cells" / "qffn_L2_frac0.5" / "metrics.json").exists()
        assert (out / "cells" / "classical_frac1" / "epochs.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        config, _ = self.sweep_config(tmp_path)
        assert cmd_sweep(config) == 0
        table = (tmp_path / "out" / "table.csv").read_bytes()
        assert cmd_sweep(config) == 0
        assert (tmp_path / "out" / "table.csv").read_bytes() == table

    def test_missing_sweep_section(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert cmd_sweep(config) == 1
        assert "sweep" in capsys.readouterr().err

    def test_cell_failures_recorded_and_flagged(self, tmp_path, monkeypatch):
        config, _ = self.sweep_config(tmp_path)
        real_train = cli.train

        def failing_train(model_cfg, train_cfg, *args, **kwargs):
            if model_cfg.pqc_layers == 2:
                raise TrainingDiverged("synthetic failure for test")
            return real_train(model_cfg, train_cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "train", failing_train)
        assert cmd_sweep(config) == 1
        out = tmp_path / "out"
        failures = (out / "failures.csv").read_text()
        assert "qffn_L2_frac1" in failures and "synthetic failure" in failures
        table = (out / "table.csv").read_text()
        assert "qffn,2," not in table and "qffn,1," in table

    def test_interrupted_grid_keeps_the_finished_rows(self, tmp_path, monkeypatch):
        config, _ = self.sweep_config(tmp_path)
        real_train = cli.train
        calls = []

        def interrupted_train(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", interrupted_train)
        with pytest.raises(KeyboardInterrupt):
            cmd_sweep(config)
        lines = (tmp_path / "out" / "table.csv").read_text().strip().split("\n")
        assert lines[0] == "model,layers,fraction,val_acc,train_acc,gap,acc_per_param"
        assert [line.split(",")[:3] for line in lines[1:]] == [["classical", "-", "1.0"], ["classical", "-", "0.5"]]

    def test_classical_kind_rejected_for_sweep(self, tmp_path, capsys):
        config, _ = self.sweep_config(
            tmp_path, model={"ffn_kind": "classical", **TINY_MODEL}
        )
        assert cmd_sweep(config) == 1
        assert "ffn_kind" in capsys.readouterr().err

    def test_ablate_forces_vanilla(self, tmp_path):
        config, _ = self.sweep_config(tmp_path)
        assert cmd_ablate(config) == 0
        table = (tmp_path / "out" / "table.csv").read_text()
        assert "vanilla_qffn,1," in table and "qffn,1," not in table.replace("vanilla_qffn", "")
        assert (tmp_path / "out" / "cells" / "vanilla_qffn_L1_frac1" / "metrics.json").exists()


class TestProbeCommand:
    def probe_config(self, tmp_path, **probe_overrides):
        probe = {"depths": [1, 2], "variants": ["optimized", "vanilla"], "num_samples": 30}
        probe.update(probe_overrides)
        return write_config(tmp_path, probe=probe)

    def test_rows_and_determinism(self, tmp_path):
        config, _ = self.probe_config(tmp_path)
        assert cmd_probe(config) == 0
        out = tmp_path / "out" / "probe.csv"
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "depth,variant,variance,num_samples,seed"
        assert len(lines) == 5  # 2 depths x 2 variants
        blob = out.read_bytes()
        assert cmd_probe(config) == 0
        assert out.read_bytes() == blob

    def test_sample_floor_enforced(self, tmp_path, capsys):
        config, _ = self.probe_config(tmp_path, num_samples=10)
        assert cmd_probe(config) == 1
        assert not (tmp_path / "out").exists()
        assert "num_samples" in capsys.readouterr().err

    def test_missing_probe_section(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert cmd_probe(config) == 1
        assert "probe" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_strict_depths_cover_probe_depths(self, tmp_path, capsys, where):
        probe = {"depths": [1, 3], "variants": ["optimized"], "num_samples": 30}
        if where == "config":
            config, _ = write_config(tmp_path, probe=probe, strict_depths=True)
            argv = ["probe", "--config", str(config)]
        else:
            config, _ = write_config(tmp_path, probe=probe)
            argv = ["probe", "--config", str(config), "--strict-depths"]
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()
        assert "config error at probe.depths: depths must be in (1, 2, 4, 8) in strict-depth mode, got 3" in (
            capsys.readouterr().err
        )


class TestRejectedBeforeAnyOutput:
    """Every setting is checked before a command trains or writes anything."""

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("train", "learning_rate", float("nan")),
            ("train", "learning_rate", float("inf")),
            ("train", "learning_rate", float("-inf")),
            pytest.param("train", "learning_rate", 10**400, id="train-learning_rate-int-beyond-every-float"),
            ("train", "batch_size", 0),
            ("train", "max_epochs", 0),
            ("model", "dropout", float("inf")),
        ],
    )
    def test_train_command(self, tmp_path, capsys, section, field, value):
        doc = {"model": {"ffn_kind": "qffn", "pqc_layers": 1, **TINY_MODEL}, "train": dict(TINY_TRAIN)}
        doc[section][field] = value
        config, _ = write_config(tmp_path, **doc)
        assert main(["train", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        assert f"config error at {section}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("train", "batch_size", 0),
            ("train", "learning_rate", float("nan")),
            ("model", "num_heads", 3),  # does not divide hidden 16
        ],
    )
    def test_sweep_commands(self, tmp_path, capsys, monkeypatch, command, section, field, value):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        doc = {"model": {"ffn_kind": "qffn", **TINY_MODEL}, "train": dict(TINY_TRAIN)}
        doc[section][field] = value
        config, _ = write_config(tmp_path, sweep={"depths": [1, 2], "fractions": [1.0, 0.5]}, **doc)
        assert main([command, "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        assert f"config error at {section}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,overrides,field",
        [
            pytest.param("sweep", {"sweep": {"depths": [1], "fractions": [1.0, 1]}}, "sweep.fractions",
                         id="equal-fractions"),
            pytest.param("sweep", {"sweep": {"depths": [1], "fractions": [0.5, 0.5000001]}}, "sweep.fractions",
                         id="fractions-that-name-one-cell"),
            pytest.param("ablate", {"sweep": {"depths": [1, 1], "fractions": [1.0]}}, "sweep.depths",
                         id="repeated-depth"),
            pytest.param("probe", {"probe": {"variants": ["vanilla", "vanilla"], "num_samples": 30}},
                         "probe.variants", id="repeated-variant"),
            pytest.param("train", {"task": {"kind": "synth", "num_train": 24, "num_val": 0}}, "task.num_val",
                         id="empty-val-split"),
            pytest.param("train", {"train": None, "task": None}, "task", id="null-train-and-task"),
            pytest.param("sweep", {"train": None, "sweep": None}, "sweep", id="null-train-and-sweep"),
            pytest.param("probe", {"train": None, "probe": None}, "probe", id="null-train-and-probe"),
            pytest.param("train", {"out_dir": 5}, "out_dir", id="non-string-out-dir"),
            pytest.param("probe", {"probe": {"num_samples": 10**12}}, "probe.num_samples",
                         id="probe-samples-beyond-memory"),
            pytest.param("probe", {"probe": {"depths": [1, 10**6], "num_samples": 30}}, "probe.depths",
                         id="probe-depth-beyond-bound"),
            pytest.param("sweep", {"sweep": {"depths": [10**6], "fractions": [1.0]}}, "sweep.depths",
                         id="sweep-depth-beyond-bound"),
        ],
    )
    def test_load_errors(self, tmp_path, capsys, monkeypatch, command, overrides, field):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        monkeypatch.setattr(cli, "grad_variance_probe", lambda *args, **kwargs: pytest.fail("probed"))
        monkeypatch.chdir(tmp_path)  # a relative output directory would appear here
        config, _ = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(config)]) == 1
        assert [p.name for p in tmp_path.iterdir()] == [config.name]
        assert f"config error at {field}:" in capsys.readouterr().err

    def test_tsv_num_classes_below_two(self, tmp_path, capsys):
        data = tmp_path / "data.tsv"
        data.write_text("good fine\t1\nbad poor\t0\n")
        task = {"kind": "tsv", "train_path": str(data), "val_path": str(data), "num_classes": 1}
        config, _ = write_config(tmp_path, task=task)
        assert main(["train", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        assert "config error at task.num_classes:" in capsys.readouterr().err

    def test_negative_seed_override(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, probe={"depths": [1], "num_samples": 30})
        assert main(["probe", "--config", str(config), "--seed", "-1"]) == 1
        assert not (tmp_path / "out").exists()
        assert "config error at seed:" in capsys.readouterr().err

    def test_overflowing_weights_fail_training_not_config(self, tmp_path, capsys):
        # one batch of 24, one step at lr 1e200: the weights overflow float32
        config, _ = write_config(tmp_path, train={"learning_rate": 1e200, "max_epochs": 1, "batch_size": 32})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "tensor tok_emb is not finite as float32" in err and "config error" not in err

    def test_overflowing_weights_are_sweep_cell_failures(self, tmp_path):
        config, _ = write_config(
            tmp_path,
            train={"learning_rate": 1e200, "max_epochs": 1, "batch_size": 32},
            sweep={"depths": [1], "fractions": [1.0], "include_classical": False},
        )
        with np.errstate(all="ignore"):
            assert main(["sweep", "--config", str(config)]) == 1
        failures = (tmp_path / "out" / "failures.csv").read_text()
        assert "qffn_L1_frac1" in failures and "not finite as float32" in failures
        assert (tmp_path / "out" / "table.csv").read_text().count("\n") == 1  # header only


class TestModelSectionCheckedOnLoad:
    """Every model value is checked on load, also by commands that build no
    model from it; only the data-derived vocab size and class count wait."""

    @pytest.fixture(autouse=True)
    def no_work(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        monkeypatch.setattr(cli, "grad_variance_probe", lambda *args, **kwargs: pytest.fail("probed"))
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def assert_rejected(tmp_path, capsys, config, command, message):
        assert main([command, "--config", str(config)]) == 1
        assert [p.name for p in tmp_path.iterdir()] == [config.name]
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("hidden", 0), ("dropout", 5.0), ("num_heads", 3)])
    def test_probe_rejects_a_bad_model_value(self, tmp_path, capsys, field, value):
        config, _ = write_config(
            tmp_path, model={field: value}, probe={"depths": [1], "num_samples": 30}
        )
        self.assert_rejected(tmp_path, capsys, config, "probe", f"config error at model.{field}")

    def test_sweep_checks_the_depth_every_cell_overrides(self, tmp_path, capsys):
        config, _ = write_config(
            tmp_path,
            model={"ffn_kind": "qffn", "pqc_layers": "x", **TINY_MODEL},
            sweep={"depths": [1], "fractions": [1.0], "include_classical": False},
        )
        self.assert_rejected(tmp_path, capsys, config, "sweep", "config error at model.pqc_layers")

    def test_sweep_without_ffn_kind_takes_the_model_default(self, tmp_path, capsys):
        # ModelConfig's default kind is classical, which a depth sweep cannot use.
        config, _ = write_config(
            tmp_path, model=dict(TINY_MODEL), sweep={"depths": [1], "fractions": [1.0]}
        )
        self.assert_rejected(
            tmp_path, capsys, config, "sweep",
            "config error at model.ffn_kind: depth sweeps need a quantum feedforward kind",
        )


class TestMain:
    def test_import_does_not_load_scipy_special(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-c", "import sys, qffn.cli; assert 'scipy.special' not in sys.modules"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0, run.stderr

    def test_dispatch_and_exit_codes(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1

    def test_strict_depth_flag(self, tmp_path):
        config, _ = write_config(
            tmp_path, model={"ffn_kind": "qffn", "pqc_layers": 3, **TINY_MODEL}
        )
        assert main(["train", "--config", str(config), "--strict-depths"]) == 1

    def test_probe_via_main_with_overrides(self, tmp_path):
        config, _ = write_config(
            tmp_path, probe={"depths": [1], "variants": ["optimized"], "num_samples": 30}
        )
        other = tmp_path / "probe_out"
        assert main(["probe", "--config", str(config), "--out", str(other), "--seed", "3"]) == 0
        text = (other / "probe.csv").read_text()
        assert text.strip().split("\n")[1].endswith(",30,3")


class TestOutputDirectoryErrors:
    """An unusable output directory fails with a message, never a traceback."""

    COMMANDS = {
        "train": {},
        "sweep": {"sweep": {"depths": [1], "fractions": [1.0], "include_classical": False}},
        "probe": {"probe": {"depths": [1], "variants": ["optimized"], "num_samples": 30}},
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
    def test_file_in_the_way_rejected_on_load(self, tmp_path, capsys, monkeypatch, command, below):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        monkeypatch.setattr(cli, "grad_variance_probe", lambda *args, **kwargs: pytest.fail("probed"))
        blocker = tmp_path / "out"
        blocker.write_text("not a directory\n")
        config, _ = write_config(tmp_path, out_dir=str(blocker / below), **self.COMMANDS[command])
        assert main([command, "--config", str(config)]) == 1
        assert "config error at out_dir:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config.name, "out"])
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "command,in_the_way",
        [("train", "metrics.json"), ("sweep", "cells"), ("probe", "probe.csv")],
    )
    def test_write_failure_is_an_error_line(self, tmp_path, capsys, command, in_the_way):
        # a directory where the command writes a file, or a file where it makes a directory
        out = tmp_path / "out"
        out.mkdir()
        if command == "sweep":
            (out / in_the_way).write_text("")
        else:
            (out / in_the_way).mkdir()
        config, _ = write_config(tmp_path, **self.COMMANDS[command])
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not list(out.rglob("*.tmp"))


class TestFractionSelectingNoExample:
    """A data fraction whose subsample would be empty is a config error, found
    before any training."""

    @pytest.fixture(autouse=True)
    def no_work(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        monkeypatch.chdir(tmp_path)

    TASK = {"kind": "synth", "num_train": 8, "num_val": 4, "num_classes": 2}

    def test_train_fraction(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, task=self.TASK, train={**TINY_TRAIN, "fraction": 0.1})
        assert main(["train", "--config", str(config)]) == 1
        assert "config error at train.fraction:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [config.name]

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    def test_sweep_fractions(self, tmp_path, capsys, command):
        config, _ = write_config(
            tmp_path, task=self.TASK, sweep={"depths": [1], "fractions": [1.0, 0.1]}
        )
        assert main([command, "--config", str(config)]) == 1
        assert "config error at sweep.fractions:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [config.name]
