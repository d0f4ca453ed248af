"""Self-tests of the benchmark.  Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import mppa.cli as cli  # noqa: E402


def _generate(name, seed, workdir):
    wl = workloads.generate(name, seed, run.ROOT, workdir)
    for path, text in wl.configs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return wl


def _pick(wl, *names):
    return [job for job in wl.jobs if job.name in names]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name, tmp_path):
    def inputs(seed):
        wl = workloads.generate(name, seed, run.ROOT, tmp_path)
        return ([(job.name, job.argv, job.spec) for job in wl.jobs],
                {str(path): text for path, text in wl.configs.items()})

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_oracle_mix_is_fixed(tmp_path):
    for seed in (0, 1, 2):
        wl = workloads.generate("oracle_suites", seed, run.ROOT, tmp_path)
        classes = [workloads.suzuki2_class(int(job.argv[4]))
                   for job in wl.jobs if job.spec["lemma"] == "suzuki2"]
        assert {c: classes.count(c) for c in set(classes)} == \
            workloads.SUZUKI2_MIX


@pytest.mark.parametrize("cls", ["small", "medium", "early"])
def test_suzuki2_class_predicts_the_suite(cls):
    """The generator's reading of a suzuki2 seed matches what the suite
    does with it (the capped class takes seconds and is left out)."""
    seed = next(s for s in range(1000) if workloads.suzuki2_class(s) == cls)
    job = workloads._oracle_job("probe", "suzuki2", seed, 1)
    tracer = Tracer()
    with tracer.installed():
        assert run.run_job(cli, job).rc == 0
    outcomes = {outcome for outcome, _ in tracer.outcomes}
    assert outcomes == ({"exact", "early"} if cls == "early" else {"exact"})
    assert (tracer.ticks() > 100_000) == (cls == "medium")


def test_tail_latency_rule():
    assert run.tail_latency(range(1, 101)) == (90, 90.0)
    value, pct = run.tail_latency([5.0] * 10 + [1.0])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11)
    value, pct = run.tail_latency(range(40))
    assert value == 29 and pct == 75.0
    with pytest.raises(ValueError):
        run.tail_latency(range(10))
    # 31 jobs run 5 times each: ten runs lie beyond the 29th value
    assert run.tail_latency(range(31), 5) == (28, pytest.approx(2900 / 31))
    # 4 runs each: ceil(10 / 4) = 3 jobs beyond
    assert run.tail_latency(range(31), 4)[0] == 27
    assert run.tail_latency(range(8), 11) == (6, 87.5)


def test_host_speed_scaling():
    ref = hostspeed.REF_SAMPLE_S
    assert hostspeed.factor([ref] * 3) == pytest.approx(1.0)
    # speeds are averaged, not times: half the samples at half speed
    assert hostspeed.factor([ref, 2 * ref]) == pytest.approx(0.75)
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.005) as sampler:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.spent >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_corrupted_bound_render_is_a_failure(tmp_path):
    wl = _generate("bound_exact", 0, tmp_path)
    jobs = _pick(wl, "zeta_0", "sigma_0", "sigma_1", "R_0")
    _, attempts = run.run_pass(cli, jobs)
    assert checks.count_failures(jobs, [attempts]) == (0, [])

    victim = attempts["R_0"]
    head, value = victim.stdout.rstrip("\n").rsplit(",", 1)
    bad = dict(attempts, R_0=dataclasses.replace(
        victim, stdout=f"{head},{int(value) + 1}\n"))
    failed, messages = checks.count_failures(jobs, [bad])
    assert failed == 1 and "reference" in messages[0]


def test_corrupted_csv_is_a_failure(tmp_path):
    wl = _generate("run_sweep", 0, tmp_path)
    jobs = _pick(wl, "experiment_b")
    _, attempts = run.run_pass(cli, jobs)
    assert checks.count_failures(jobs, [attempts]) == (0, [])

    out = jobs[0].spec["out"]
    files = {name: (out / name).read_bytes() for name in checks.RUN_FILES}
    corrupted = []
    for name, old, new in (("checks.csv", b"PASS", b"FAIL"),
                           ("trace.csv", b"1", b"2"),
                           ("asymptotic.csv", b"BOUND_INCOMPUTABLE",
                            b"VIOLATION")):
        attempt = dataclasses.replace(attempts["experiment_b"])
        checks.summarize_run(attempt, dict(
            files, **{name: files[name].replace(old, new, 1)}))
        corrupted.append({"experiment_b": attempt})
    failed, messages = checks.count_failures(jobs, [attempts, *corrupted])
    assert failed == 3
    assert "is FAIL" in messages[0]
    assert "differs from the first pass" in messages[1]
    assert "1 VIOLATION verdicts" in messages[2]


def test_traced_counts_repeat(tmp_path):
    run_jobs = _pick(_generate("run_sweep", 0, tmp_path / "r"),
                     "experiment_b")
    bound_jobs = _pick(_generate("bound_exact", 0, tmp_path / "b"),
                       "theta_marker_0", "sigma_0")
    jobs = run_jobs + bound_jobs + [
        workloads._oracle_job("ratap", "ratap", 3, 20)]
    original = cli.main
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            assert cli.main is not original
            _, attempts = run.run_pass(cli, jobs)
        values = run.layer_values(tracer, attempts)
        counts.append({name: values[name] for name in run.COUNTS})
    assert cli.main is original
    assert counts[0] == counts[1]
    assert counts[0]["iteration.steps"] == 2000
    assert counts[0]["operators.resolvent_calls"] > 0
    assert counts[0]["countfn.ticks"] > 0
    assert counts[0]["bounds.early_n"] > 0
    assert counts[0]["verdicts.incomputable_n"] == 32


def test_benchmark_json_matches_the_script():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
