"""Run-config loading of the example files shipped in configs/."""
from pathlib import Path

import pytest

from qffn.runconfig import load_run_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def test_every_documented_config_is_shipped():
    names = {p.name for p in SHIPPED}
    assert {"synth_train.json", "synth_sweep.json", "probe.json", "tsv_template.json"} <= names


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    assert load_run_config(path).source_path == path
