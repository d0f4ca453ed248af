"""Output checks for benchmark jobs.  Nothing here runs inside a timed pass.

A job attempt fails when its exit code or output is wrong, when its output
differs from the same job's output in the first pass, or, at the default
seed, when it differs from the digest recorded for the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

RUN_FILES = ("trace.csv", "metastability.csv", "asymptotic.csv", "checks.csv")
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Attempt:
    """One execution of one job.  A run job's CSVs are reduced to their
    digests, verdict counts and failed check rows as soon as the pass
    ends, so memory does not grow with the number of passes."""

    rc: int
    stdout: str
    stderr: str
    seconds: float
    cpu_seconds: float
    scale: float = 1.0  # host-speed factor, see hostspeed.py
    files: dict = field(default_factory=dict)  # CSV name -> sha256
    verdicts: Counter = field(default_factory=Counter)
    failed_checks: list = field(default_factory=list)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def scaled_cpu_seconds(self) -> float:
        return self.cpu_seconds * self.scale

    def digests(self) -> dict:
        if self.files:
            return dict(self.files)
        return {"stdout": hashlib.sha256(self.stdout.encode()).hexdigest()}


def _rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def summarize_run(attempt: Attempt, files: dict) -> None:
    """Reduce a run job's CSV bytes (name -> bytes) into the attempt."""
    attempt.files = {name: hashlib.sha256(data).hexdigest()
                     for name, data in sorted(files.items())}
    attempt.verdicts = Counter(
        row[-1] for name in ("metastability.csv", "asymptotic.csv")
        for row in _rows(files.get(name, b""))[1:])
    attempt.failed_checks = [
        f"check {row[0]} is {row[-1]}"
        for row in _rows(files.get("checks.csv", b""))[1:]
        if row[-1] != "PASS"]


def read_outputs(job, attempt: Attempt) -> None:
    """Summarize a run job's CSVs before the next pass overwrites them."""
    if job.kind == "run":
        out = Path(job.spec["out"])
        summarize_run(attempt, {name: (out / name).read_bytes()
                                for name in RUN_FILES
                                if (out / name).is_file()})


def _run_problems(attempt: Attempt) -> list:
    missing = [name for name in RUN_FILES if name not in attempt.files]
    if missing:
        return [f"missing {', '.join(missing)}"]
    problems = list(attempt.failed_checks)
    if attempt.verdicts["VIOLATION"]:
        problems.append(f"{attempt.verdicts['VIOLATION']} VIOLATION verdicts")
    return problems


def reference_render(job) -> str:
    """The independent evaluator's render of a bound job's instance."""
    from mppa.refeval import ref_bound

    bits = int(os.environ.get("PPA_BUDGET_BITS", 4096))
    return ref_bound(job.spec["bound"], bits=bits, **job.spec["ref"]).render()


def _bound_problems(attempt: Attempt, expected: str) -> list:
    rows = _rows(attempt.stdout.encode())
    if len(rows) != 2 or rows[0] != ["name", "k", "f_spec", "value"]:
        return [f"unexpected output {attempt.stdout!r}"]
    got = rows[1][3]
    if got != expected:
        return [f"rendered {got}, reference {expected}"]
    return []


def _oracle_problems(job, attempt: Attempt) -> list:
    rows = _rows(attempt.stdout.encode())
    trials = str(job.spec["trials"])
    want = [job.spec["lemma"], trials, trials, "PASS"]
    if rows != [["lemma", "trials", "passes", "status"], want]:
        return [f"oracle rows {rows[1:]}, want {want}"]
    return []


def problems(job, attempt: Attempt, expected=None) -> list:
    """Everything wrong with one attempt, judged on its own.  `expected`
    is the reference render for a bound job."""
    if attempt.rc != 0:
        return [f"exit code {attempt.rc}: {attempt.stderr.strip()[:200]}"]
    if job.kind == "run":
        return _run_problems(attempt)
    if job.kind == "bound":
        return _bound_problems(attempt, expected)
    return _oracle_problems(job, attempt)


def load_digests(workload: str) -> dict:
    if not DIGESTS_FILE.is_file():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(
        workload, {})


def count_failures(jobs, passes, recorded=None) -> tuple:
    """Judge every attempt of every pass.  Returns (failed, messages).

    `passes` is a list of {job name: Attempt}; `recorded` maps job names to
    digests an attempt must reproduce (the default-seed digests)."""
    expected = {job.name: reference_render(job)
                for job in jobs if job.kind == "bound"}
    failed, messages = 0, []
    first = passes[0] if passes else {}
    for number, attempts in enumerate(passes):
        for job in jobs:
            attempt = attempts[job.name]
            found = problems(job, attempt, expected.get(job.name))
            digests = attempt.digests()
            if digests != first[job.name].digests():
                found.append("output differs from the first pass")
            if recorded and recorded.get(job.name) != digests:
                found.append("output differs from the recorded digest")
            if found:
                failed += 1
                messages.append(f"pass {number} {job.name}: {'; '.join(found)}")
    return failed, messages
