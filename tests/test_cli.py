import json

import numpy as np
import pytest

from fsalign import cli, training
from fsalign import network as nw

import golden

WRITTEN = ["adapted/checkpoint.npz", "adapted/steps.jsonl", "config.json", "metrics.json",
           "source_only/checkpoint.npz", "source_only/steps.jsonl"]


def test_train_writes_the_run(tmp_path, capsys):
    """The files `train --out` writes: config.json as the config it was
    given, metrics.json as printed, and per twin the rows and the net that
    `train` gives for the same config."""
    cfg = golden.tiny_config(2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(training.config_to_dict(cfg)))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                  if p.is_file()) == WRITTEN
    assert training.load_config(str(out / "config.json")) == cfg
    metrics = json.loads((out / "metrics.json").read_text())
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == metrics
    for twin, twin_cfg in (("adapted", cfg), ("source_only", training.source_only_config(cfg))):
        assert set(metrics[twin]) == {"probe_accuracy", "target_match_rate"}
        result = training.train(twin_cfg)
        rows = golden.read_steps(out / twin / "steps.jsonl")
        assert rows == result.rows
        # only the adapted twin builds the domain classifiers
        accuracies = {"acc_d3", "acc_dri"} if twin == "adapted" else set()
        assert all(row.keys() & {"acc_d3", "acc_dri"} == accuracies for row in rows)
        other = nw.SeparationNet(cfg.network, seed=cfg.seed + 7)
        assert not np.array_equal(other.head_cls.w.value, result.net.head_cls.w.value)
        training.load_checkpoint(other, str(out / twin))
        assert golden.param_digest(other) == golden.param_digest(result.net), twin


def usage_error(capsys, *argv):
    """The stderr of `fsalign *argv`, which exits 2 with usage, no traceback."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(argv))
    err = capsys.readouterr().err
    assert exit_info.value.code == 2 and err.startswith("usage: fsalign")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("text,message", [
    (None, "No such file or directory"),
    ('{"iterations": ', "Expecting value"),
    ('{"no_such_key": 1}', "unknown TrainConfig keys: no_such_key"),
    ('{"iterations": 0}', "iterations must be an integer >= 1"),
], ids=["missing", "malformed", "unknown_key", "bad_field"])
def test_a_bad_config_is_one_usage_error(tmp_path, capsys, text, message):
    """A missing, malformed or invalid --config exits with status 2 and
    usage, the path and the cause on stderr, not a traceback."""
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    err = usage_error(capsys, "train", "--config", str(config))
    assert f"error: --config {config}: " in err and message in err


@pytest.mark.parametrize("under,message", [("", "File exists"), ("run", "Not a directory")],
                         ids=["a_file", "under_a_file"])
def test_an_out_at_or_under_a_file_is_one_usage_error(tmp_path, capsys, under, message):
    """An --out that names a file, or a path under one, exits with status 2
    and usage, the path and the cause on stderr, not a traceback."""
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / under
    err = usage_error(capsys, "train", "--out", str(out))
    assert f"error: --out {out}: " in err and message in err


def test_gradcheck_prints_the_report(monkeypatch, capsys):
    report = {"l_c": {"max_rel_err": 1e-9, "per_param": {"head.w": 1e-9}}}
    monkeypatch.setattr(training, "finite_difference_check", lambda: report)
    assert cli.main(["gradcheck"]) == 0
    assert json.loads(capsys.readouterr().out) == report
