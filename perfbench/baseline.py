"""Re-measure the baseline figures the ROADMAP quotes.

    python3 perfbench/baseline.py

Prints, as medians of REPEATS tries: the import time of `mppa.cli` in a
fresh process; `mppa run` wall time on both shipped configs; and, for
experiment A at horizons 10^4 and 10^5, the time of the same `run` and
`recurrence_check` calls `mppa run` makes (with run's steps per second),
timed from outside without tracing wrappers.
"""

from __future__ import annotations

import re
import shutil
import statistics
import sys
import time

import run as bench
from workloads import Job

HORIZONS = (10_000, 100_000)
REPEATS = 3


def main() -> int:
    if not (bench.SRC / "mppa" / "cli.py").is_file():
        print(f"baseline: no mppa source tree at {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    import mppa.cli as cli

    workdir = bench.WORKDIR / "baseline"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with bench.one_cpu():
        imports = [bench.setup_time([])[1] for _ in range(REPEATS)]
    rows = [("import mppa.cli (fresh process)", "s", imports)]

    for name in ("experiment_a", "experiment_b"):
        job = Job(name, "run", ("run", str(bench.ROOT / "configs" / f"{name}.cfg"),
                                "--out", str(workdir / name)))
        rows.append((f"mppa run {name}", "s",
                     [bench.run_job(cli, job).seconds
                      for _ in range(REPEATS)]))

    from mppa.config import parse_config
    from mppa.iteration import recurrence_check, run
    from mppa.schedules import derive_constants

    text = (bench.ROOT / "configs" / "experiment_a.cfg").read_text()
    for horizon in HORIZONS:
        cfg = parse_config(re.sub(r"(?m)^horizon = \d+$",
                                  f"horizon = {horizon}", text))
        m1 = derive_constants(cfg.moduli).M1
        run_s, recurrence_s = [], []
        for _ in range(REPEATS):
            start = time.perf_counter()
            trace = run(cfg.problem.build(), cfg.iteration.build(),
                        cfg.iteration.u, cfg.iteration.z0, horizon,
                        c=cfg.moduli.c, s=cfg.problem.s,
                        target=cfg.problem.target)
            middle = time.perf_counter()
            recurrence_check(trace, trace.s, m1)
            run_s.append(middle - start)
            recurrence_s.append(time.perf_counter() - middle)
        rows += [(f"run, horizon {horizon}", "s", run_s),
                 (f"run steps/s, horizon {horizon}", "1/s",
                  [horizon / t for t in run_s]),
                 (f"recurrence_check, horizon {horizon}", "s", recurrence_s)]

    for label, unit, samples in rows:
        print(f"{label:40s} {statistics.median(samples):12.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
