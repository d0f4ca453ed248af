"""Benchmark for mppa: drives the `mppa` command line (`mppa.cli.main`) in
one process, one job after another, over a seeded workload.

    python3 perfbench/run.py --workload run_sweep --seed 1 --seconds 25 --trace 0

With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
there is no mppa source tree (`src/mppa`) beside the benchmark.

A pass runs every job of the workload once.  Passes repeat until
`--seconds` have gone by, and at least the workload's `min_passes`
times.  Output checks run between passes, outside the timed region; see
checks.py.  Every job time is scaled to a reference host speed sampled
around and during the job; see hostspeed.py.

`--record-digests` runs one pass at the default seed and stores its output
digests in digests.json, for later runs at that seed to reproduce.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import hostspeed
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("config.parse_s", "s"),
    ("operators.resolvent_calls", "count"),
    ("operators.resolvent_s", "s"),
    ("schedules.validate_s", "s"),
    ("iteration.steps", "count"),
    ("iteration.run_s", "s"),
    ("iteration.steps_per_s", "1/s"),
    ("iteration.recurrence_s", "s"),
    ("iteration.checks_s", "s"),
    ("iteration.search_s", "s"),
    ("iteration.trace_csv_s", "s"),
    ("countfn.evals", "count"),
    ("countfn.ticks", "count"),
    ("countfn.ticks_per_s", "1/s"),
    ("countfn.evaluate_s", "s"),
    ("bounds.exact_n", "count"),
    ("bounds.exact_s", "s"),
    ("bounds.theta_s", "s"),
    ("bounds.proj_s", "s"),
    ("bounds.xi_s", "s"),
    ("bounds.capped_n", "count"),
    ("bounds.capped_s", "s"),
    ("bounds.early_n", "count"),
    ("bounds.early_s", "s"),
    ("bounds.chi_tilde_s", "s"),
    ("bounds.phi_s", "s"),
    ("bounds.res_bounds_s", "s"),
    ("oracle.ratap_s", "s"),
    ("oracle.limsup2_s", "s"),
    ("oracle.xu_s", "s"),
    ("oracle.suzuki1_s", "s"),
    ("oracle.suzuki2_s", "s"),
    ("oracle.search_s", "s"),
    ("cli.self_s", "s"),
    *((f"share.{layer}", "%") for layer in LAYERS),
    ("verdicts.consistent_n", "count"),
    ("verdicts.no_witness_n", "count"),
    ("verdicts.incomputable_n", "count"),
    ("verdicts.violation_n", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly from one traced pass to the next.
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import mppa.cli
from mppa.config import parse_config
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
"""


def tail_latency(values, runs_per_value: int = 1,
                 beyond: int = TAIL_BEYOND) -> tuple:
    """The value at the highest percentile that still has `beyond` runs
    above it, and that percentile.  Each value stands for
    `runs_per_value` runs (a job's median run stands for all its runs)."""
    ordered = sorted(values)
    above = math.ceil(beyond / runs_per_value)
    if len(ordered) <= above:
        raise ValueError(f"need more than {above} values, got {len(ordered)}")
    index = len(ordered) - above - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and the processes it starts, on one CPU, so that
    the host-speed samples measure the CPU a fresh process runs on: the
    CPUs of a shared host are loaded unevenly."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def setup_time(config_paths) -> tuple:
    """Interpreter start, `import mppa.cli` and parsing the workload's
    configs, in a fresh process: (seconds at the reference host speed,
    raw seconds).  Run it inside `one_cpu()`: the samples taken while the
    process runs then share its CPU, and their time is taken out."""
    before = hostspeed.edge()
    sampler = hostspeed.Sampler()
    start = time.perf_counter()
    with sampler:
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        *map(str, config_paths)],
                       check=True, capture_output=True)
    raw = time.perf_counter() - start - sampler.spent
    samples = before + sampler.samples + hostspeed.edge()
    return raw * hostspeed.factor(samples), raw


def run_job(cli, job, sampler=None) -> checks.Attempt:
    """Run one job through `cli.main`, looked up at call time so that the
    traced passes go through the tracer's wrapper.  With a `sampler` the
    host speed is sampled while the job runs, and the time the samples
    took is left out of the job's time."""
    out, err = io.StringIO(), io.StringIO()
    sampling = sampler if sampler is not None else contextlib.nullcontext()
    cpu_start = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            sampling:
        try:
            rc = cli.main(list(job.argv))
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            rc = -1
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu_start
    spent = sampler.spent if sampler is not None else 0.0
    return checks.Attempt(rc, out.getvalue(), err.getvalue(),
                          seconds - spent, cpu_seconds - spent)


def run_pass(cli, jobs, order=None, sample: bool = True) -> tuple:
    """(wall seconds, {job name: Attempt}) for one pass.  With `order` the
    jobs run shuffled, so that one slow episode of the host does not hit
    the same jobs in every pass.  A run job's output directory is removed
    before the job (outside its time).  Host-speed samples are taken between
    jobs and, with `sample`, while each job runs; each job's time is
    scaled by the samples before, during and after it.  The wall time
    includes the samples."""
    if order is not None:
        jobs = order.sample(jobs, len(jobs))
    attempts = {}
    start = time.perf_counter()
    before = hostspeed.edge()
    for job in jobs:
        if job.kind == "run":
            # New files each time: rewriting last pass's files in place
            # makes the file system flush them to disk inside the job.
            shutil.rmtree(job.spec["out"], ignore_errors=True)
        sampler = hostspeed.Sampler() if sample else None
        attempt = run_job(cli, job, sampler)
        after = hostspeed.edge()
        during = sampler.samples if sampler is not None else []
        attempt.scale = hostspeed.factor(before + during + after)
        attempts[job.name] = attempt
        before = after
    wall = time.perf_counter() - start
    for job in jobs:
        checks.read_outputs(job, attempts[job.name])
    return wall, attempts


def per_job(passes, field: str = "scaled_seconds") -> dict:
    """Each job's median `field` over the passes."""
    return {name: statistics.median(getattr(p[name], field) for p in passes)
            for name in passes[0]}


def _enough(walls: list, start: float, seconds: float, least: int) -> bool:
    """Stop once `least` passes ran and another would end past `seconds`."""
    return len(walls) >= least and \
        time.perf_counter() - start + statistics.median(walls) > seconds


def measure(cli, wl, seconds: float, order: random.Random) -> tuple:
    """Untraced passes: (end-to-end values, sample notes, attempts)."""
    walls, passes = [], []
    start = time.perf_counter()
    while not _enough(walls, start, seconds, wl.min_passes):
        wall, attempts = run_pass(cli, wl.jobs, order)
        walls.append(wall)
        passes.append(attempts)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    mid = per_job(passes)
    tail, pct = tail_latency(mid.values(), wl.min_passes)
    values = {
        "wall_s": sum(mid.values()),
        "cpu_s": sum(per_job(passes, "scaled_cpu_seconds").values()),
        "job_p50_s": statistics.median(mid.values()),
        "job_tail_s": tail,
        "peak_rss_mb": rss_mb,
    }
    tries = f"median of {len(passes)} passes, host-speed scaled"
    raw = sum(per_job(passes, "seconds").values())
    notes = {
        "wall_s": f"sum over jobs of each one's {tries}; unscaled "
                  f"{raw:.3f}; whole passes with samples "
                  f"{', '.join(f'{w:.3f}' for w in walls)}",
        "cpu_s": f"sum over jobs of each one's {tries}",
        "job_p50_s": f"median over {len(mid)} jobs of each one's {tries}",
        "job_tail_s": f"p{pct:.1f} over {len(mid)} jobs of each one's "
                      f"{tries}, each counted as {wl.min_passes} runs",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return values, notes, passes


def layer_values(tracer: Tracer, attempts: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    inc = tracer.inclusive
    layer_self = tracer.layer_self()
    spanned = sum(layer_self.values()) or 1.0
    steps = tracer.steps
    run_s = inc("iteration.run")
    ticks = tracer.ticks()
    evaluate_s = inc("countfn.evaluate")
    outcome_n = Counter()
    for (outcome, _stage), count in tracer.outcomes.items():
        outcome_n[outcome] += count
    calc_s = evaluate_s + sum(tracer.outcome_time.values())
    verdicts = Counter()
    for attempt in attempts.values():
        verdicts += attempt.verdicts
    oracle_spans = [n for n in tracer.totals if n.startswith("oracle.")]
    values = {
        "config.parse_s": inc("config.parse_config"),
        "operators.resolvent_calls": tracer.calls("operators.resolvent"),
        "operators.resolvent_s": inc("operators.resolvent"),
        "schedules.validate_s": inc("schedules.validate_moduli",
                                    "schedules.validate_anchors"),
        "iteration.steps": steps,
        "iteration.run_s": run_s,
        "iteration.steps_per_s": steps / run_s if run_s else 0.0,
        "iteration.recurrence_s": inc("iteration.recurrence_check"),
        "iteration.checks_s": inc("iteration.boundedness_check",
                                  "iteration.wbound_check",
                                  "iteration.resolvent_drift_check",
                                  "iteration.gap_decrease_check"),
        "iteration.search_s": inc("iteration.empirical_metastability",
                                  "iteration.empirical_window_index"),
        "iteration.trace_csv_s": inc("iteration.trace_csv_lines"),
        "countfn.evals": len(tracer.states),
        "countfn.ticks": ticks,
        "countfn.ticks_per_s": ticks / calc_s if calc_s else 0.0,
        "countfn.evaluate_s": evaluate_s,
        "bounds.exact_n": outcome_n["exact"],
        "bounds.exact_s": tracer.outcome_time["exact"],
        "bounds.theta_s": inc("bounds.theta"),
        "bounds.proj_s": inc("bounds.proj_bound"),
        "bounds.xi_s": inc("bounds.xi"),
        "bounds.capped_n": outcome_n["capped"],
        "bounds.capped_s": tracer.outcome_time["capped"],
        "bounds.early_n": outcome_n["early"],
        "bounds.early_s": tracer.outcome_time["early"],
        "bounds.chi_tilde_s": inc("bounds.chi_tilde"),
        "bounds.phi_s": inc("bounds.phi"),
        "bounds.res_bounds_s": inc("bounds.res_bounds"),
        "oracle.search_s": sum(tracer.totals[n].self_time
                               for n in oracle_spans),
        "cli.self_s": layer_self["cli"],
        "verdicts.consistent_n": verdicts["CONSISTENT"],
        "verdicts.no_witness_n": verdicts["NO_WITNESS_IN_HORIZON"],
        "verdicts.incomputable_n": verdicts["BOUND_INCOMPUTABLE"],
        "verdicts.violation_n": verdicts["VIOLATION"],
    }
    for lemma in ("ratap", "limsup2", "xu", "suzuki1", "suzuki2"):
        values[f"oracle.{lemma}_s"] = inc(f"oracle.run_suite[{lemma}]")
    for layer in LAYERS:
        values[f"share.{layer}"] = 100.0 * layer_self[layer] / spanned
    return values


def measure_traced(cli, jobs, seconds: float, order: random.Random) -> tuple:
    """Alternating untraced and traced passes: (per-layer values, notes,
    attempts, count mismatches, tracers)."""
    plain, traced, passes, pairs = [], [], [], []
    start = time.perf_counter()
    while not _enough(pairs, start, seconds, 1):
        pair_start = time.perf_counter()
        _, attempts = run_pass(cli, jobs, order)
        plain.append(attempts)
        tracer = Tracer()
        with tracer.installed():
            _, attempts = run_pass(cli, jobs, order, sample=False)
        pairs.append(time.perf_counter() - pair_start)
        traced.append((tracer, attempts, layer_values(tracer, attempts)))
        passes += [plain[-1], attempts]
    values = {}
    for name, unit in PER_LAYER:
        samples = [v[name] for _, _, v in traced if name in v]
        if samples:
            values[name] = (samples[0] if unit == "count"
                            else statistics.median(samples))
    values["trace.untraced_wall_s"] = sum(per_job(plain).values())
    values["trace.traced_wall_s"] = sum(
        per_job([a for _, a, _ in traced]).values())
    values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                  - values["trace.untraced_wall_s"])
    mismatches = [f"{name} varies across traced passes: "
                  f"{[v[name] for _, _, v in traced]}"
                  for name in COUNTS
                  if len({v[name] for _, _, v in traced}) > 1]
    notes = {name: f"median of {len(traced)} traced passes"
             for name, unit in PER_LAYER if unit != "count"}
    for name, count in (("trace.untraced_wall_s", len(plain)),
                        ("trace.traced_wall_s", len(traced))):
        notes[name] = (f"sum over jobs of each one's median of {count} "
                       f"passes, host-speed scaled")
    notes["trace.overhead_s"] = "traced_wall_s - untraced_wall_s"
    return values, notes, passes, mismatches, [t for t, _, _ in traced]


def _metrics(table, values) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table}


def _print_table(table, values, notes) -> None:
    for name, unit in table:
        value = values[name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:28s} {text:>14s} {unit:6s} {notes.get(name, '')}")


def _outcome_lines(tracer: Tracer) -> None:
    for (outcome, stage), count in sorted(tracer.outcomes.items()):
        label = f"{outcome}({stage})" if stage else outcome
        print(f"bounds outcome {label:28s} {count}")


def record_digests(cli, wl) -> int:
    _, attempts = run_pass(cli, wl.jobs)
    failed, messages = checks.count_failures(wl.jobs, [attempts])
    if failed:
        print("\n".join(messages), file=sys.stderr)
        return 1
    table = {}
    if checks.DIGESTS_FILE.is_file():
        table = json.loads(checks.DIGESTS_FILE.read_text(encoding="utf-8"))
    table[wl.name] = {job.name: attempts[job.name].digests()
                      for job in wl.jobs}
    checks.DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True)
                                   + "\n", encoding="utf-8")
    print(f"recorded {len(wl.jobs)} digests for {wl.name}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mppa" / "cli.py").is_file():
        print(f"perfbench: no mppa source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mppa
    import mppa.cli as cli

    if Path(mppa.__file__).resolve().parent != (SRC / "mppa").resolve():
        print(f"perfbench: imported mppa from {mppa.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.generate(args.workload, args.seed, ROOT, workdir)
    for path, text in wl.configs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    if args.record_digests:
        if args.seed != workloads.DEFAULT_SEED:
            print("perfbench: digests are recorded at the default seed",
                  file=sys.stderr)
            return 2
        return record_digests(cli, wl)

    order = random.Random(f"order:{wl.name}:{wl.seed}")
    if args.trace:
        values, notes, passes, problems, tracers = measure_traced(
            cli, wl.jobs, args.seconds, order)
        table = PER_LAYER
        (workdir / "spans.json").write_text(
            json.dumps(tracers[0].table(), indent=1), encoding="utf-8")
    else:
        config_paths = [job.argv[1] for job in wl.jobs
                        if job.kind != "oracle"]
        with one_cpu():
            setup_time(config_paths)  # warm-up: byte-code caches, page cache
            setups = [setup_time(config_paths) for _ in range(SETUP_REPEATS)]
        values, notes, passes = measure(cli, wl, args.seconds, order)
        (workdir / "jobs.json").write_text(json.dumps(
            {name: {"scaled_s": per_job(passes)[name],
                    "raw_s": per_job(passes, "seconds")[name]}
             for name in passes[0]}, indent=1), encoding="utf-8")
        values["setup_s"] = statistics.median(s for s, _ in setups)
        notes["setup_s"] = (f"median of {len(setups)} fresh processes, "
                            f"host-speed scaled; unscaled "
                            f"{statistics.median(r for _, r in setups):.3f}")
        table, problems, tracers = END_TO_END, [], []

    recorded = (checks.load_digests(wl.name)
                if args.seed == workloads.DEFAULT_SEED else None)
    failed, messages = checks.count_failures(wl.jobs, passes, recorded)
    attempted = len(passes) * len(wl.jobs)
    for line in messages + problems:
        print(f"FAIL {line}", file=sys.stderr)

    print(f"workload {wl.name} seed {wl.seed}: {len(wl.jobs)} jobs per pass, "
          f"{len(passes)} passes, fail_frac {failed / attempted:.4g} "
          f"({failed} of {attempted})")
    _print_table(table, values, notes)
    if tracers:
        _outcome_lines(tracers[0])
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": _metrics(table, values)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
