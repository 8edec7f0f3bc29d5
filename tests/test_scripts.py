"""The scripts under ``scripts/`` run end to end on the public API."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_experiments_writes_one_table_per_experiment(tmp_path, capsys):
    run_all = _load("run_all_experiments")
    assert run_all.main(["--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.csv" for name in run_all.PINNED)
    for name in run_all.PINNED:
        assert (tmp_path / f"{name}.csv").read_text(encoding="utf-8").startswith(f"# experiment={name}\n")


def test_every_experiment_has_a_pinned_size():
    from skorochaos.experiments import SPECS

    assert set(_load("run_all_experiments").PINNED) == set(SPECS)


def test_convergence_study_prints_both_tables(capsys):
    study = _load("convergence_study")
    assert study.main(["--paths", "200"]) == 0
    out = capsys.readouterr().out
    assert f"{'depth':>5} {'energy':>12} {'bound':>12} {'ratio':>8}" in out
    assert f"{'N':>4} {'gap mse':>12} {'resid rms':>12}" in out


def test_check_digests_names_an_altered_digest(tmp_path, monkeypatch, capsys):
    check = _load("check_digests")
    table = json.loads(check.DIGESTS.read_text())
    table["martingale"]["1"] = "0" * 64
    altered = tmp_path / "digests.json"
    altered.write_text(json.dumps(table))
    monkeypatch.setattr(check, "DIGESTS", altered)
    assert check.main(["1", "1"]) == 1
    out = capsys.readouterr().out
    assert "seed 1 martingale: sha256 " in out and f"differs from {'0' * 64}" in out
    assert "FAIL" not in out
    assert out.endswith("5 of 6 recorded digests unchanged; 0 recorded runs failed\n")


def test_check_digests_fails_a_recorded_run_that_fails_its_checks(monkeypatch, capsys):
    from skorochaos.experiments import SPECS

    spec = SPECS["theorem1"]

    def run(cfg):
        res = spec.run(cfg)
        res.failures.append("theorem1: injected")  # not a CSV column, so the bytes stay
        return res

    monkeypatch.setitem(SPECS, "theorem1", spec._replace(run=run))
    check = _load("check_digests")
    assert check.main(["1", "1"]) == 1
    out = capsys.readouterr().out
    assert "seed 1 theorem1: FAIL theorem1: injected" in out
    assert out.endswith("6 of 6 recorded digests unchanged; 1 recorded runs failed\n")
