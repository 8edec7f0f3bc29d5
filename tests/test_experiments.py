"""Experiment configs, CSV format, and the command-line wrapper."""

import re

import pytest

from skorochaos import ExperimentConfig, Grid, run_experiment
from skorochaos.cli import main, read_config_file
from skorochaos.experiments import format_value

TINY = {
    "geometry": dict(M=2, samples=200, seed=5),
    "isometry": dict(N=8, L=2, paths=3000, seed=5),
    "martingale": dict(N=8, seed=5),
    "theorem1": dict(N=16, depth=4, seed=5),
    "ducnualart": dict(N=8, seed=5),
    "reversal": dict(N=8, paths=600, seed=5, t=0.25, n=2),
    "stopping": dict(N=8, paths=600, seed=5),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_experiment_passes_at_small_size(name):
    cfg = ExperimentConfig(experiment=name, **TINY[name])
    res = run_experiment(cfg)
    assert res.ok, res.failures
    assert res.rows
    for row in res.rows:
        assert len(row) == len(res.columns)


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_geometry_covers_the_cube_at_the_endpoints(t):
    res = run_experiment(ExperimentConfig(experiment="geometry", M=3, t=t, samples=200, seed=5))
    assert res.ok, res.failures
    assert res.rows == [(3, t, 200, True, True)]


def test_csv_echo_includes_seed_and_trailing_newline():
    cfg = ExperimentConfig(experiment="theorem1", N=16, depth=4, seed=9, workers=3)
    res = run_experiment(cfg)
    text = res.csv_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    echo = [l for l in lines if l.startswith("# ")]
    assert "# experiment=theorem1" in echo
    assert "# seed=9" in echo
    assert not any(l.startswith("# workers") or l.startswith("# out") for l in echo)
    assert lines[len(echo)] == "depth,vhat,sobolev_bound"
    assert len(lines) == len(echo) + 1 + len(res.rows)


# echo header and column line of each experiment at its TINY size
ECHO_GOLDEN = {
    "ducnualart": ["# experiment=ducnualart", "# N=8", "# L=2", "# seed=5", "statistic,value"],
    "geometry": ["# experiment=geometry", "# M=2", "# t=0.25", "# samples=200", "# seed=5",
                 "M,t,n_points,covered,disjoint"],
    "isometry": ["# experiment=isometry", "# N=8", "# L=2", "# paths=3000", "# seed=5",
                 "n,m,exact,estimate,std_error,z"],
    "martingale": ["# experiment=martingale", "# N=8", "# seed=5", "integrand,n_pairs,max_defect"],
    "reversal": ["# experiment=reversal", "# N=8", "# n=2", "# t=0.25", "# paths=600", "# seed=5",
                 "N,t,statistic,value,std_error"],
    "stopping": ["# experiment=stopping", "# N=8", "# paths=600", "# seed=5",
                 "rule,test_variable,n_paths,estimate,std_error,z"],
    "theorem1": ["# experiment=theorem1", "# N=16", "# L=2", "# depth=4", "# seed=5",
                 "depth,vhat,sobolev_bound"],
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_csv_echo_header_is_pinned(name):
    golden = ECHO_GOLDEN[name]
    text = run_experiment(ExperimentConfig(experiment=name, workers=2, **TINY[name])).csv_text()
    assert text.splitlines()[: len(golden)] == golden


def test_format_value_round_trips_floats():
    for x in (0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -2.5e17):
        assert float(format_value(x)) == x
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(42) == "42"


# Each bad value goes to an experiment that reads the field; the last key
# is the one at fault, and the error names its value.
@pytest.mark.parametrize(
    "overrides",
    [
        dict(experiment="nonsense"),
        dict(N=7),
        dict(N=6),
        dict(experiment="isometry", N=128),
        dict(experiment="isometry", L=5),
        dict(experiment="isometry", paths=1),
        dict(experiment="theorem1", N=8, depth=5),
        dict(experiment="theorem1", N=16, depth=3),
        dict(experiment="geometry", M=0),
        dict(experiment="geometry", M=7),
        dict(experiment="reversal", n=4),
        dict(experiment="geometry", samples=0),
        dict(experiment="isometry", seed=-1),
        dict(experiment="geometry", seed=2**64),
        dict(N=8.0),
        dict(N="8"),
        dict(N=True),
        dict(experiment="isometry", seed="1"),
        dict(experiment="isometry", paths=1e5),
        dict(experiment="reversal", t="0.5"),
        dict(experiment="reversal", t=True),
        dict(experiment="stopping", N=1),
        dict(experiment="stopping", N=2),
        dict(experiment="reversal", t=0.5, N=2),
        dict(experiment="reversal", N=8, t=0.3),
        dict(experiment="reversal", N=128, t=-0.25),
    ],
)
def test_config_validation_rejects(overrides):
    base = dict(experiment="martingale", N=8)
    base.update(overrides)
    with pytest.raises(ValueError, match=re.escape(str(list(overrides.values())[-1]))):
        ExperimentConfig(**base).validate()


def test_validation_ignores_fields_the_experiment_does_not_take():
    foreign = dict(L=5, paths=1, depth=5, M=0, n=4, samples=0, workers=0)
    ExperimentConfig(experiment="martingale", N=4, **foreign).validate()
    ExperimentConfig(experiment="stopping", N=4, depth=3).validate()
    ExperimentConfig(experiment="geometry", N=7).validate()


def test_reversal_may_exceed_kernel_cell_cap():
    ExperimentConfig(experiment="reversal", N=128).validate()


def test_read_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# a comment\n\nN = 8\nseed=3\n")
    assert read_config_file(str(p)) == {"N": "8", "seed": "3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("N 8\n")
    with pytest.raises(ValueError):
        read_config_file(str(bad))


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("N=16\nseed=3\n")
    rc = main(["martingale", "--config", str(p), "--N", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# N=8" in out
    assert "# seed=3" in out


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("bogus=1\n")
    assert main(["martingale", "--config", str(p)]) == 2
    p.write_text("experiment=stopping\n")
    assert main(["martingale", "--config", str(p)]) == 2
    p.write_text("paths=10\n")  # a field of other experiments, not of martingale
    assert main(["martingale", "--config", str(p)]) == 2
    p.write_text("workers=2\n")  # a config field that no experiment takes
    assert main(["stopping", "--config", str(p)]) == 2


def test_cli_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["stopping", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_cli_invalid_value_exits_2(capsys):
    for argv in (
        ["martingale", "--N", "7"],
        ["reversal", "--N", "8", "--t", "inf"],
        ["reversal", "--N", "8", "--t", "nan"],
        ["isometry", "--N", "8", "--seed", "-1"],
        ["geometry", "--seed", "-1"],
        ["theorem1", "--N", "16", "--depth", "3"],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["stopping", "martingale"])
def test_cli_ignores_depth_it_does_not_take(name, capsys):
    assert main([name, "--N", "4"]) == 0
    assert f"{name}: pass" in capsys.readouterr().err


def test_cli_writes_out_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    rc = main(["martingale", "--N", "8", "--out", str(dest)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert "martingale: pass" in captured.err
    text = dest.read_text()
    assert text.startswith("# experiment=martingale")
    assert text.endswith("\n")


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.csv"
    rc = main(["martingale", "--N", "4", "--out", str(dest)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert not dest.exists()


def test_cli_opens_out_before_the_run(monkeypatch, tmp_path, capsys):
    from skorochaos import experiments as exp

    def never(cfg):
        pytest.fail("the experiment ran before --out was opened")

    monkeypatch.setitem(exp.SPECS, "martingale", exp.SPECS["martingale"]._replace(run=never))
    assert main(["martingale", "--N", "8", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    # an invalid config fails before --out is opened, so it creates no file
    dest = tmp_path / "x.csv"
    assert main(["martingale", "--N", "7", "--out", str(dest)]) == 2
    assert not dest.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["stopping", "--N", "1"],
        ["stopping", "--N", "2"],
        ["reversal", "--N", "2", "--t", "0.25"],
        ["reversal", "--N", "8", "--t", "0.3"],
    ],
)
def test_cli_rejects_a_config_the_grid_cannot_hold_before_opening_out(argv, tmp_path, capsys):
    dest = tmp_path / "f.csv"
    dest.write_bytes(b"earlier table\n")
    assert main([*argv, "--paths", "10", "--out", str(dest)]) == 2
    assert "error:" in capsys.readouterr().err
    assert dest.read_bytes() == b"earlier table\n"


def watch_eval_many(monkeypatch, record):
    """Call ``record(functionals, batch)`` before every eval_many call, wherever the name is bound."""
    from skorochaos import chaos, experiments, reversal, skorohod, stopping

    original = chaos.eval_many

    def watched(functionals, batch):
        record(functionals, batch)
        return original(functionals, batch)

    for module in (chaos, experiments, reversal, skorohod, stopping):
        monkeypatch.setattr(module, "eval_many", watched)


@pytest.fixture
def eval_rows(monkeypatch):
    """Rows x paths of every eval_many call."""
    calls = []
    watch_eval_many(monkeypatch, lambda functionals, batch: calls.append(len(functionals) * batch.count))
    return calls


def test_no_eval_many_call_is_handed_a_repeat(monkeypatch):
    """eval_many evaluates every functional it is given, so a repeat would be evaluated twice.

    Two functionals evaluate alike when their means have the same bits and
    each order's kernel holds the same items in the same key order.
    """
    repeats = []

    def record(functionals, batch):
        seen = set()
        for F in functionals:
            key = (F.mean.hex(), tuple((n, tuple(f.items())) for n, f in sorted(F.kernels.items())))
            if key in seen:
                repeats.append((len(functionals), F))
            seen.add(key)

    watch_eval_many(monkeypatch, record)
    for n in (1, 2, 3):
        assert run_experiment(ExperimentConfig(experiment="reversal", N=16, n=n, t=0.5, paths=200)).ok
    assert run_experiment(ExperimentConfig(experiment="stopping", N=16, paths=500)).ok
    assert repeats == []


def test_each_batch_is_evaluated_once(eval_rows):
    from skorochaos import GridStoppingTime, optional_sampling_check, sample_paths
    from skorochaos.skorohod import brownian_terminal_process, skorohod_process

    grid = Grid(16)
    batch = sample_paths(grid, 500, seed=3)
    Y = skorohod_process(brownian_terminal_process(grid))
    S, T = GridStoppingTime.first_exit(grid, -0.5, 0.5), GridStoppingTime.deterministic(grid, 16)
    optional_sampling_check(Y, S, T, batch)
    assert sum(eval_rows) <= 2 * batch.count
    eval_rows.clear()
    run_experiment(ExperimentConfig(experiment="isometry", N=8, L=3, paths=200))
    assert len(eval_rows) == 1
    for n in (1, 2, 3):
        eval_rows.clear()
        run_experiment(ExperimentConfig(experiment="reversal", N=16, n=n, t=0.5, paths=200))
        # every order's panel on the reversed batch, every tail difference on the forward one,
        # and backward_ito_eval's window
        assert len(eval_rows) == 3


def counting(monkeypatch, name, modules, calls):
    """Record a call of ``name`` in ``calls``, in every module of ``modules`` that binds it."""
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_martingale_rows_match_the_per_pair_loop(n):
    from skorochaos.experiments import _integrand_family
    from skorochaos.skorohod import martingale_defect, skorohod_process

    want = []
    for name, u in _integrand_family(Grid(n)).items():
        Y = skorohod_process(u)
        pairs = [martingale_defect(Y, a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
        want.append((name, len(pairs), max(pairs)))
    res = run_experiment(ExperimentConfig(experiment="martingale", N=n))
    assert res.ok, res.failures
    assert [(name, pairs, worst.hex()) for name, pairs, worst in res.rows] == [
        (name, pairs, worst.hex()) for name, pairs, worst in want
    ]


def test_martingale_makes_no_per_pair_call(monkeypatch):
    from skorochaos import chaos, experiments, skorohod

    calls = []
    for name in ("martingale_defect", "conditional_expectation"):
        counting(monkeypatch, name, (skorohod, chaos, experiments), calls)
    run_experiment(ExperimentConfig(experiment="martingale", N=16))
    assert calls == []


def test_theorem1_builds_each_forward_factor_once_per_window_boundary(monkeypatch):
    from skorochaos import bf, experiments

    built, families = [], []
    # every forward-factor build multiplies G1 by one window increment made by first_order
    counting(monkeypatch, "first_order", (bf,), built)
    original = experiments.two_sided_approximation

    def kept(v, partition):
        out = original(v, partition)
        families.append(out[1])
        return out

    monkeypatch.setattr(experiments, "two_sided_approximation", kept)
    run_experiment(ExperimentConfig(experiment="theorem1", N=16, depth=4))
    assert len(families) == 5
    assert built
    assert len(built) <= sum(s.hi - s.lo + 1 for family in families for s in family.summands)


def test_theorem1_builds_the_forward_form_integrand_once(monkeypatch):
    from skorochaos import bf, experiments, skorohod

    calls = []
    counting(monkeypatch, "ito_skorohod_integrand", (skorohod, bf, experiments), calls)
    res = run_experiment(ExperimentConfig(experiment="theorem1", N=16, depth=4))
    assert res.ok, res.failures
    assert len(calls) == 1


def test_cli_reports_failures(monkeypatch, capsys):
    from skorochaos import experiments as exp

    def failing(cfg):
        res = exp.ExperimentResult(cfg, ("a",))
        res.rows.append((1,))
        res.failures.append("synthetic failure for the exit path")
        return res

    monkeypatch.setitem(exp.SPECS, "martingale", exp.SPECS["martingale"]._replace(run=failing))
    rc = main(["martingale", "--N", "8"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "FAIL: synthetic failure" in err
    assert "martingale: FAIL (1 rows)" in err


def test_geometry_reports_a_disagreement_with_the_section_union(monkeypatch, capsys):
    from skorochaos import grid

    # every selection region claims every point, so the union hits every count
    monkeypatch.setattr(grid, "in_selection_region_at", lambda sel, t, x: True)
    rc = main(["geometry", "--M", "2", "--samples", "20", "--seed", "5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL: geometry: 20 of 20 points where the count criterion and the union of t-sections disagree" in (
        captured.err
    )
    assert captured.out.startswith("# experiment=geometry\n")
    assert captured.out.endswith("\nM,t,n_points,covered,disjoint\n2,0.25,20,true,true\n")
