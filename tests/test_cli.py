import json

from fsalign import cli, training

from test_training import tiny_config


def test_train_writes_the_run(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(training.config_to_dict(tiny_config(2))))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == metrics
    assert (out / "losses.csv").read_text().count("\n") == 3
    # the source-only twin logs the detector terms alone
    assert (out / "losses_source_only.csv").read_text().splitlines()[0] == "step,L_c,L_r,total"
    for name in ("losses_source_only.csv", "checkpoint.bin", "checkpoint_source_only.json"):
        assert (out / name).exists()


def test_gradcheck_prints_the_report(monkeypatch, capsys):
    report = {"l_c": {"max_rel_err": 1e-9, "per_param": {"head.w": 1e-9}}}
    monkeypatch.setattr(training, "finite_difference_check", lambda: report)
    assert cli.main(["gradcheck"]) == 0
    assert json.loads(capsys.readouterr().out) == report
