"""Command-line front end: experiment runs, single bound evaluations,
oracle suites and the acceptance battery.

All tables are UTF-8 CSV with LF line endings and a mandatory header row;
reals carry 17 significant digits.  Identical config and seed give
byte-identical files.  Exit codes: 0 for success (BUDGET_EXCEEDED values
and BOUND_INCOMPUTABLE verdicts are successes), 1 for a failed property,
2 for usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import bounds
from .config import ConfigError, ExperimentConfig, parse_config, parse_fspec, \
    render_fspec
from .countfn import BoundValue, BudgetExceededError, CountFn, evaluate
from .operators import INEQ_TOL, SLACK, check_resolvent_identity
from .schedules import (ModuliReport, derive_constants, validate_anchors,
                        validate_moduli)

if TYPE_CHECKING:  # the run pipeline imports iteration, and numpy, when it runs
    from .iteration import Trace

# The named bounds whose inputs a config and --fspec (the f) supply.
BOUND_NAMES = tuple(name for name, entry in bounds.BOUNDS.items()
                    if set(entry.needs) <= {"f"})
_NEEDS_F = frozenset(name for name in BOUND_NAMES
                     if "f" in bounds.BOUNDS[name].needs)
# The oracle suites' names, spelled out so that the parser, which main
# builds for every command, does not import the oracle.
LEMMAS = ("ratap", "limsup2", "xu", "suzuki1", "suzuki2")


def _write_table(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(path_text: str):
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return path, None
    try:
        return path, parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return path, None


# --- bound -----------------------------------------------------------------------


def cmd_bound(args) -> int:
    _, cfg = _load_config(args.config)
    if cfg is None:
        return 2
    name = args.name
    if name not in BOUND_NAMES:
        print(f"unknown bound name: {name!r} (choose from "
              f"{', '.join(BOUND_NAMES)})", file=sys.stderr)
        return 2
    f = None
    f_spec = ""
    if name in _NEEDS_F:
        if args.fspec is None:
            print(f"bound {name} needs --fspec", file=sys.stderr)
            return 2
        try:
            f = parse_fspec(args.fspec)
        except ValueError as exc:
            print(f"bad fspec: {exc}", file=sys.stderr)
            return 2
        f_spec = render_fspec(f)

    moduli = cfg.moduli
    ctx = derive_constants(moduli)
    budget = cfg.budget()
    try:
        bv = bounds.bound(name, k=args.k, n=args.n, t=args.t, a=moduli.a,
                          d=ctx.D, n_arg=ctx.N, f=f, moduli=moduli,
                          budget=budget)
    except ValueError as exc:
        print(f"bound error: {exc}", file=sys.stderr)
        return 2

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["name", "k", "f_spec", "value"])
    writer.writerow([name, str(args.k), f_spec, bv.render()])
    return 0


# --- oracle ----------------------------------------------------------------------


def cmd_oracle(args) -> int:
    from .oracle import run_suite

    lemmas = [args.lemma] if args.lemma else list(LEMMAS)
    if args.trials is not None and args.trials < 1:
        # refused before the header, so stdout stays empty
        raise ValueError("trials must be positive")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["lemma", "trials", "passes", "status"])
    failed = False
    for lemma in lemmas:
        result = run_suite(lemma, seed=args.seed, trials=args.trials)
        writer.writerow([result.lemma, str(result.trials),
                         str(result.passes),
                         "PASS" if result.ok else "FAIL"])
        if not result.ok:
            failed = True
            print(f"first counterexample ({lemma}): {result.first_failure}",
                  file=sys.stderr)
    return 1 if failed else 0


# --- run -------------------------------------------------------------------------


def _verdict(emp: Optional[int], bv: BoundValue, f, last: int,
             budget) -> str:
    """CONSISTENT when a witness sits at or below an Exact bound; VIOLATION
    only when the whole window of every candidate below the bound was
    observable and none worked."""
    if not bv.is_exact:
        return "BOUND_INCOMPUTABLE"
    if emp is not None and emp <= bv.value:
        return "CONSISTENT"
    fb = evaluate(f, bv.value, budget)
    if fb.is_exact and bv.value + fb.value <= last:
        return "VIOLATION"
    return "NO_WITNESS_IN_HORIZON"


def _judged(search, values, k: int, f, bv: BoundValue, budget) -> list:
    """[empirical, bound, verdict] of one empirical search over values, whose
    last index is the horizon the verdict may observe."""
    try:
        emp = search(values, k, f, budget)
    except BudgetExceededError:
        emp = None
    return ["" if emp is None else str(emp), bv.render(),
            _verdict(emp, bv, f, values.shape[0] - 1, budget)]


class _Watched(CountFn):
    """f, noting whether an evaluation read it: called it or asked for its
    affine form.  A call goes straight to f, so the ticks are f's own."""

    def __init__(self, f: CountFn):
        self.f = f
        self.read = False

    def __call__(self, n: int, state) -> int:
        self.read = True
        return self.f(n, state)

    def affine_form(self):
        self.read = True
        return self.f.affine_form()


def _for_f(unread: dict, name: str, f: CountFn, bound):
    """bound(f); or, when bound gave unread[name] for an earlier f without
    reading it, that value, which no other f can change."""
    if name in unread:
        return unread[name]
    watched = _Watched(f)
    value = bound(watched)
    if not watched.read:
        unread[name] = value
    return value


def _property_rows(trace, cfg: ExperimentConfig, budget) -> tuple:
    """The rows of metastability.csv and of asymptotic.csv, for each k and
    f of the config (and each residual in the latter)."""
    from .iteration import (asymptotic_residuals, empirical_metastability,
                            empirical_window_index)

    meta_rows, res_rows = [], []
    curves = asymptotic_residuals(trace)
    for k in cfg.run.ks:
        unread = {}
        for spec in cfg.run.fspecs:
            f = parse_fspec(spec)
            bv = _for_f(unread, "phi", f, lambda g: bounds.phi(
                k, g, cfg.moduli, budget=budget))
            meta_rows.append([str(k), spec] + _judged(
                empirical_metastability, trace.z, k, f, bv, budget))
            triple = _for_f(unread, "res_bounds", f, lambda g:
                            bounds.res_bounds(k, g, cfg.moduli,
                                              budget=budget))
            for name, bv in zip(("dz", "res_Jn", "res_J"), triple):
                res_rows.append([name, str(k), spec] + _judged(
                    empirical_window_index, curves[name], k, f, bv, budget))
    return meta_rows, res_rows


def _check_rows(trace, cfg: ExperimentConfig, ctx, schedule, budget) -> list:
    from .iteration import (boundedness_check, gap_decrease_check,
                            recurrence_check, resolvent_drift_check,
                            wbound_check)

    moduli = cfg.moduli
    rows = []

    problems = validate_anchors(moduli, schedule, trace.u, trace.z[0],
                                trace.s, budget)
    rows.append(["anchors", "; ".join(problems) if problems else "ok",
                 "FAIL" if problems else "PASS"])

    worst = boundedness_check(trace, ctx.N0)
    rows.append(["boundedness", f"max |z_n - s| - N0 = {worst:.17g}",
                 "PASS" if worst <= SLACK else "FAIL"])

    if trace.horizon >= 1:
        worst = wbound_check(trace, moduli.a, ctx.N0)
        rows.append(["wbound", f"max |w_n - s| - 2aN0 = {worst:.17g}",
                     "PASS" if worst <= SLACK else "FAIL"])

        worst = recurrence_check(trace, trace.s, ctx.M1)
        rows.append(["recurrence", f"max violation = {worst:.17g}",
                     "PASS" if worst <= INEQ_TOL else "FAIL"])

        worst = resolvent_drift_check(trace, moduli.c, ctx.N0)
        rows.append(["resolvent_drift", f"max violation = {worst:.17g}",
                     "PASS" if worst <= INEQ_TOL else "FAIL"])

        worst = 0.0
        for i in (0, trace.horizon // 2, trace.horizon):
            worst = max(worst, check_resolvent_identity(
                trace.op, float(trace.cs[i]), 1.0 / moduli.c, trace.z[i]))
        rows.append(["resolvent_identity", f"max residual = {worst:.17g}",
                     "PASS" if worst <= INEQ_TOL else "FAIL"])
    else:
        for name in ("wbound", "recurrence", "resolvent_drift",
                     "resolvent_identity"):
            rows.append([name, "vacuous (no steps)", "PASS"])

    if trace.horizon >= 2:
        nu_values = {}
        for k in range(6):
            bv = bounds.nu(k, moduli, budget=budget)
            if bv.is_exact:
                nu_values[k] = bv.value
        found = gap_decrease_check(trace, nu_values)
        if not nu_values:
            found = ["no k <= 5 compared: every nu(k) is a budget marker"]
        ks = "k <= 5" if len(nu_values) == 6 else \
            "k in {" + ", ".join(map(str, nu_values)) + "}"
        rows.append(["gap_decrease", found[0] if found else f"{ks}, ok",
                     "FAIL" if found else "PASS"])
    else:
        rows.append(["gap_decrease", "vacuous (no steps)", "PASS"])
    return rows


@dataclass(frozen=True)
class Experiment:
    """What `mppa run` computes for one config.  `report` is None at horizon
    0, where the moduli are not validated.  When the report has violations
    nothing else is computed: `trace` is None and the tables are empty.
    Otherwise the rows are those of metastability.csv, asymptotic.csv (both
    empty at horizon 0) and checks.csv."""

    report: Optional[ModuliReport]
    trace: Optional[Trace]
    meta_rows: list
    res_rows: list
    check_rows: list


def run_experiment(cfg: ExperimentConfig) -> Experiment:
    """Validate the moduli, run the iteration and build the property
    tables: the one pipeline of `mppa run` and `mppa verify`.  It imports
    `iteration`, and with it numpy, when it runs: no other command needs
    them."""
    from .iteration import run

    budget = cfg.budget()
    moduli = cfg.moduli
    schedule = cfg.iteration.build()
    horizon = cfg.run.horizon

    snapshot = schedule.snapshot(horizon)

    report = None
    if horizon >= 1:
        report = validate_moduli(schedule, moduli, horizon, budget=budget,
                                 k_cap=max(cfg.run.ks, default=0) + 16,
                                 snapshot=snapshot)
        if not report.ok:
            return Experiment(report, None, [], [], [])

    trace = run(cfg.problem.operator, schedule, cfg.iteration.u,
                cfg.iteration.z0, horizon, c=moduli.c,
                target=cfg.problem.target, snapshot=snapshot)
    meta_rows, res_rows = [], []
    if horizon >= 1:
        meta_rows, res_rows = _property_rows(trace, cfg, budget)
    check_rows = _check_rows(trace, cfg, derive_constants(moduli), schedule,
                             budget)
    return Experiment(report, trace, meta_rows, res_rows, check_rows)


def cmd_run(args) -> int:
    path, cfg = _load_config(args.config)
    if cfg is None:
        return 2
    out = Path(args.out) if args.out else path.parent / (path.stem + "_out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2

    exp = run_experiment(cfg)
    if exp.trace is None:
        for v in exp.report.violations:
            print(f"moduli violation: {v}", file=sys.stderr)
        return 2

    from .iteration import write_trace_csv

    with open(out / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(exp.trace, fh)
    if exp.trace.horizon == 0:
        print("notice: horizon 0, property tables are header-only",
              file=sys.stderr)
    _write_table(out / "metastability.csv",
                 ["k", "f_spec", "empirical", "bound", "verdict"],
                 exp.meta_rows)
    _write_table(out / "asymptotic.csv",
                 ["quantity", "k", "f_spec", "empirical", "bound", "verdict"],
                 exp.res_rows)
    _write_table(out / "checks.csv", ["check", "detail", "status"],
                 exp.check_rows)

    bad_checks = [r[0] for r in exp.check_rows if r[2] == "FAIL"]
    violations = [r for r in exp.meta_rows + exp.res_rows
                  if r[-1] == "VIOLATION"]
    for name in bad_checks:
        print(f"check failed: {name}", file=sys.stderr)
    for row in violations:
        print(f"bound violated: {','.join(row)}", file=sys.stderr)
    return 1 if bad_checks or violations else 0


# --- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .acceptance import run_all

    path = Path(args.config)
    if not path.is_file():
        print(f"cannot read config: {path}", file=sys.stderr)
        return 2
    results = run_all(path)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed = failed or not res.passed
    return 1 if failed else 0


# --- entry -----------------------------------------------------------------------


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a natural number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mppa",
        description="Proximal point iteration with certified quantitative "
                    "bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run an experiment config, write "
                                        "trace and property tables")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: <config stem>_out)")

    p_bound = subs.add_parser("bound", help="evaluate one named bound")
    p_bound.add_argument("config")
    p_bound.add_argument("name")
    p_bound.add_argument("--k", type=_natural, default=0)
    p_bound.add_argument("--n", type=_natural, default=0)
    p_bound.add_argument("--t", type=int, default=1)
    p_bound.add_argument("--fspec", default=None)

    p_oracle = subs.add_parser("oracle", help="run brute-force lemma suites")
    p_oracle.add_argument("--lemma", choices=LEMMAS, default=None)
    p_oracle.add_argument("--seed", type=int, default=7)
    p_oracle.add_argument("--trials", type=int, default=None)

    p_verify = subs.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("config")
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up at call time, so a wrapper installed on cmd_<name> sees it
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
