"""Run-config loading: the example files shipped in configs/, null sections
and rejected documents."""
import json
import re
from pathlib import Path

import pytest

from qffn.runconfig import ConfigError, load_run_config
from qffn.training import TrainConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def test_every_documented_config_is_shipped():
    names = {p.name for p in SHIPPED}
    assert {"synth_train.json", "synth_sweep.json", "synth_ablate.json", "probe.json", "tsv_template.json"} <= names
    # The paper's ablation is its sweep with the vanilla block, and nothing else.
    sweep, ablate = (json.loads((CONFIG_DIR / name).read_text()) for name in ("synth_sweep.json", "synth_ablate.json"))
    assert (sweep["model"].pop("ffn_kind"), ablate["model"].pop("ffn_kind")) == ("qffn", "vanilla_qffn")
    assert sweep.pop("out_dir") != ablate.pop("out_dir")
    assert sweep == ablate


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    assert load_run_config(path).source_path == path


def test_null_counts_as_unset(tmp_path):
    path = tmp_path / "run.json"
    sections = ("seed", "task", "model", "train", "sweep", "probe")
    path.write_text(json.dumps({"out_dir": "out", **dict.fromkeys(sections)}))
    config = load_run_config(path)
    assert config.seed == 42
    assert config.task is config.sweep is config.probe is None
    assert (config.model, config.train) == ({}, TrainConfig())


def write(tmp_path, doc) -> Path:
    path = tmp_path / "run.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps({"out_dir": "out", **doc}))
    return path


@pytest.mark.parametrize(
    "doc,field,message",
    [
        pytest.param({"task": {"kind": "synth", "num_train": 24, "num_val": 12, "num_classes": 15}}, "task.num_classes",
                     "num_classes must be <= 14, got 15", id="synth-classes-above-14"),
        pytest.param({"task": {"kind": "synth", "num_train": 10**11, "num_val": 12}}, "task.num_train",
                     "num_train must be <= 1000000, got 100000000000", id="synth-train-split-above-bound"),
        pytest.param({"task": {"kind": "synth", "num_train": 24, "num_val": 10**6 + 1}}, "task.num_val",
                     "num_val must be <= 1000000, got 1000001", id="synth-val-split-above-bound"),
        pytest.param({"task": {"num_train": 24, "num_val": 12}}, "task.kind",
                     "required field is missing", id="task-without-kind"),
        pytest.param({"sweep": {"depths": [1], "fractions": [1.0, 0.0]}}, "sweep.fractions",
                     "fractions items must be in (0, 1], got [1.0, 0.0]", id="fraction-zero"),
        pytest.param({"sweep": {"depths": [1], "fractions": [1.5]}}, "sweep.fractions",
                     "fractions items must be in (0, 1], got [1.5]", id="fraction-above-one"),
        pytest.param({"probe": {"variants": ["optimized", "quantum"]}}, "probe.variants",
                     "variants must contain only ['optimized', 'vanilla'], got ['optimized', 'quantum']",
                     id="unknown-variant"),
        pytest.param("{", "<config>", "invalid JSON in", id="invalid-json"),
        pytest.param("[]", "<config>", "top level must be a JSON object", id="top-level-list"),
        pytest.param("3", "<config>", "top level must be a JSON object", id="top-level-number"),
    ],
)
def test_rejected_document_names_the_field(tmp_path, doc, field, message):
    with pytest.raises(ConfigError, match=re.escape(f"config error at {field}: {message}")) as info:
        load_run_config(write(tmp_path, doc))
    assert info.value.field == field
