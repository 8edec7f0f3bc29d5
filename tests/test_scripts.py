"""The scripts under ``scripts/`` run end to end on the public API."""

import importlib.util
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
