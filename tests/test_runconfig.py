"""Run-config loading: the example files shipped in configs/, and null sections."""
import json
from pathlib import Path

import pytest

from qffn.runconfig import load_run_config
from qffn.training import TrainConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def test_every_documented_config_is_shipped():
    names = {p.name for p in SHIPPED}
    assert {"synth_train.json", "synth_sweep.json", "probe.json", "tsv_template.json"} <= names


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    assert load_run_config(path).source_path == path


def test_null_counts_as_unset(tmp_path):
    path = tmp_path / "run.json"
    sections = ("seed", "strict_depths", "task", "model", "train", "sweep", "probe")
    path.write_text(json.dumps({"out_dir": "out", **dict.fromkeys(sections)}))
    config = load_run_config(path)
    assert (config.seed, config.strict_depths) == (42, False)
    assert config.task is config.sweep is config.probe is None
    assert config.train_config() == TrainConfig()
