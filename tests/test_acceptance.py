"""Acceptance battery, one test per criterion.

Runs the same battery as `mppa verify configs/experiment_a.cfg` and turns
each criterion into a test case that prints its PASS/FAIL line.  Slow
(about a minute): the full oracle trial counts and both experiment runs
happen here.
"""

import csv
import dataclasses
from pathlib import Path

import pytest

from mppa import acceptance, bounds
from mppa.acceptance import (EXPERIMENT_B_TEXT, CriterionResult,
                             criterion_asymptotic, criterion_diagnostics,
                             criterion_equivalence, criterion_experiment_a,
                             criterion_experiment_b, run_all)
from mppa.cli import main, run_experiment
from mppa.config import parse_config
from mppa.countfn import BoundValue
from mppa.oracle import run_suite

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CRITERIA = ("experiment_a", "experiment_b", "diagnostics",
            "asymptotic_regularity", "oracle_suites",
            "evaluator_equivalence", "monotonicity")


@pytest.fixture(scope="module")
def results(request):
    root = request.config.rootpath
    out = {res.name: res for res in run_all(root / "configs/experiment_a.cfg")}
    assert tuple(out) == CRITERIA
    return out


def verify_line(res: CriterionResult) -> str:
    """The line `mppa verify` prints for one criterion."""
    return f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(results, name):
    res = results[name]
    line = verify_line(res)
    print(line)
    assert res.passed, line


def test_readme_shows_the_verify_output(results):
    readme = CONFIGS.parent / "README.md"
    shown = [line for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith(("PASS ", "FAIL "))]
    assert shown == [verify_line(res) for res in results.values()]


def test_budget_bits_variable_is_not_read(monkeypatch):
    # A magnitude cap read from the environment would bind the production
    # evaluator alone: it would disagree with refeval on every instance whose
    # value passes the cap, and the suzuki2 oracle would crash on a premise
    # bound over the cap.
    monkeypatch.setenv("PPA_BUDGET_BITS", "16")
    res = criterion_equivalence()
    assert res.passed, res.detail
    assert run_suite("suzuki2", trials=20).ok


# --- criteria on one experiment run ------------------------------------------------
#
# Criteria 1-4 judge what cli.run_experiment computes, so each is exercised
# here on a single run of a config (a fraction of a second), not through the
# whole battery.


@pytest.fixture(scope="module")
def exp_a(cfg_a):
    return run_experiment(cfg_a)


@pytest.fixture(scope="module")
def exp_b():
    return run_experiment(parse_config(EXPERIMENT_B_TEXT))


def test_experiment_criteria_pass_on_shipped_configs(exp_a, exp_b):
    for res in (criterion_experiment_a(exp_a), criterion_experiment_b(exp_b),
                criterion_diagnostics(exp_a, exp_b),
                criterion_asymptotic(exp_a)):
        assert res.passed, res.detail
    # the config's own ks and fs: 10 x 3 combos, three residuals each
    assert len(exp_a.meta_rows) == 30
    assert len(exp_a.res_rows) == 90
    assert all(row[3] != "" for row in exp_a.res_rows)


def test_experiment_a_fails_on_an_exceeded_bound(monkeypatch, cfg_a):
    monkeypatch.setattr(bounds, "phi", lambda *a, **kw: BoundValue.exact(0))
    res = criterion_experiment_a(run_experiment(cfg_a))
    assert not res.passed
    # k = 0, f = const 0 has its witness at n = 0, within a bound of 0; the
    # first combo past it is f = const 10, whose witness is n = 1
    assert res.detail == "VIOLATION at k=0, f=const 10: 1 > 0"


def test_asymptotic_fails_on_an_exceeded_bound(monkeypatch, cfg_a):
    monkeypatch.setattr(bounds, "res_bounds",
                        lambda *a, **kw: (BoundValue.exact(0),) * 3)
    res = criterion_asymptotic(run_experiment(cfg_a))
    assert not res.passed
    assert res.detail.startswith("dz at k=0, f=const 0: witness 1 exceeds "
                                 "bound 0")


def test_diagnostics_reads_nu_with_the_configs_c(monkeypatch, config_a_text,
                                                 exp_b):
    # c_n = 1/(n+1) is not constant; c_n >= 1/61 holds up to n = 60
    text = (config_a_text
            .replace("c = const 1\n", "c = harmonic 1\n")
            .replace("c = 1\n", "c = 61\n")
            .replace("Gamma = const 0", "Gamma = id")
            .replace("horizon = 10000", "horizon = 60")
            .replace("ks = 0,1,2,3,4,5,6,7,8,9", "ks = 0")
            .replace("fs = const 0; const 10; id", "fs = const 0"))
    cfg = parse_config(text)
    assert not cfg.moduli.constant_c
    seen = []
    nu = bounds.nu

    def recording_nu(k, moduli, *, budget=None):
        seen.append(moduli.constant_c)
        return nu(k, moduli, budget=budget)

    monkeypatch.setattr(bounds, "nu", recording_nu)
    res = criterion_diagnostics(run_experiment(cfg), exp_b)
    assert res.passed, res.detail
    assert seen == [False] * 6


def test_diagnostics_names_a_failed_row(exp_a, exp_b):
    rows = [row if row[0] != "resolvent_drift" else
            [row[0], "max violation = 1", "FAIL"] for row in exp_b.check_rows]
    res = criterion_diagnostics(exp_a, dataclasses.replace(exp_b,
                                                           check_rows=rows))
    assert not res.passed
    assert res.detail == "resolvent_drift on B: max violation = 1"


@pytest.mark.parametrize("name", ["experiment_a", "experiment_b"])
def test_battery_rows_are_the_run_csv_rows(tmp_path, name):
    config = CONFIGS / f"{name}.cfg"
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    exp = run_experiment(parse_config(config.read_text(encoding="utf-8")))
    for name, rows in (("metastability.csv", exp.meta_rows),
                       ("asymptotic.csv", exp.res_rows),
                       ("checks.csv", exp.check_rows)):
        with open(out / name, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1:] == rows, name


@pytest.fixture
def quick_battery(monkeypatch):
    """run_all with criteria 5-7 stubbed out, recording the problem kind of
    every experiment it runs."""
    calls = []

    def counting(cfg):
        calls.append(cfg.problem.kind)
        return run_experiment(cfg)

    for name in ("oracles", "equivalence", "monotonicity"):
        monkeypatch.setattr(acceptance, f"criterion_{name}",
                            lambda: CriterionResult("stub", True, ""))
    monkeypatch.setattr(acceptance, "run_experiment", counting)
    return calls


def test_run_all_runs_each_experiment_once(quick_battery):
    results = run_all(CONFIGS / "experiment_a.cfg")
    assert [r.name for r in results][:4] == list(CRITERIA[:4])
    assert all(r.passed for r in results)
    assert quick_battery == ["quadratic_prox", "ball_projection"]


def test_run_all_names_what_stopped_config_a(quick_battery, tmp_path,
                                             config_a_text):
    bad = tmp_path / "bad.cfg"      # c_n = 1/4 lies below 1/c = 1
    bad.write_text(config_a_text.replace("c = const 1\n", "c = const 0.25\n"),
                   encoding="utf-8")
    for path, why in ((tmp_path / "missing.cfg", "config failed: "),
                      (bad, "moduli violations: ")):
        results = run_all(path)
        assert [r.name for r in results][:4] == list(CRITERIA[:4])
        status = {r.name: r for r in results}
        assert status["experiment_b"].passed
        for name in ("experiment_a", "diagnostics", "asymptotic_regularity"):
            assert not status[name].passed
            assert status[name].detail.startswith(why), status[name].detail
    assert "c_n below" in status["experiment_a"].detail
