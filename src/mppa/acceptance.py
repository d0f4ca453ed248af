"""The acceptance battery: seven desk-scale criteria covering the two
reference experiments, the diagnostic inequalities, the oracle suites, the
two-evaluator equivalence battery, hand-computed pin values and the
monotonicity properties of the bound calculus.

Each criterion returns a CriterionResult; run_all executes them in order
and never raises, so a harness can report every line even when one blows
up.  The experiment criteria judge the trace and the tables that
`cli.run_experiment`, the pipeline of `mppa run`, computes for a config of
the quadratic problem (the repo ships one under configs/) and for the
projection experiment, pinned inline so the battery does not depend on
file layout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds
from .cli import Experiment, run_experiment
from .config import count_fn, parse_config
from .countfn import BoundValue, Budget, strongly_majorizes
from .oracle import SUITES, run_suite
from .refeval import RefResult, ref_bound
from .schedules import Moduli


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


# The projection experiment, pinned inline (mirrors configs/experiment_b.cfg).
EXPERIMENT_B_TEXT = """\
[problem]
kind = ball_projection
center = 0,0
radius = 1
s = 1,0
target = 1,0

[iteration]
u = 2,0
z0 = 0,0
lam = harmonic 3
gamma = const 0.5
c = const 1
error = zero

[moduli]
a = 2
c = 1
Cmaj = const 1
ell = id
L = expceil 4
Gamma = const 0
E = const 0
N1 = 2
N2 = 1
N3 = 2

[run]
horizon = 2000
ks = 0,1,2,3
fs = const 0; id
"""


def _first_uncleared(rows) -> Optional[list]:
    """The first table row whose witness is missing or whose verdict is
    neither CONSISTENT nor BOUND_INCOMPUTABLE, so a witness exceeding an
    exact bound fails whether or not the verdict can call it a VIOLATION."""
    return next((row for row in rows if row[-3] == "" or
                 row[-1] not in ("CONSISTENT", "BOUND_INCOMPUTABLE")), None)


# --- criterion 1: strong convergence on the quadratic problem ---------------------


def criterion_experiment_a(exp: Experiment) -> CriterionResult:
    """Boundedness, the trend from n = 10^2 to 10^4, and the metastability
    table, all as `mppa run` computes them for config A."""
    trace = exp.trace
    checks = {row[0]: row for row in exp.check_rows}
    _, detail, status = checks["boundedness"]
    if status != "PASS":
        return CriterionResult("experiment_a", False, detail)
    # the detail ends in the excess over N0 with 17 digits, which round-trip
    slack = -float(detail.rpartition(" = ")[2])
    if trace.horizon < 10000:
        return CriterionResult(
            "experiment_a", False,
            f"horizon {trace.horizon} < 10^4, trend check impossible")
    if not trace.dist_s[10000] < trace.dist_s[100]:
        return CriterionResult(
            "experiment_a", False,
            f"no progress: d(10^4)={trace.dist_s[10000]:.3g} >= "
            f"d(10^2)={trace.dist_s[100]:.3g}")

    uncleared = _first_uncleared(exp.meta_rows)
    if uncleared:
        k, spec, emp, bound, verdict = uncleared
        return CriterionResult(
            "experiment_a", False,
            f"no metastability witness for k={k}, f={spec}" if emp == ""
            else f"{verdict} at k={k}, f={spec}: {emp} > {bound}")
    incomputable = sum(1 for row in exp.meta_rows
                       if row[-1] == "BOUND_INCOMPUTABLE")
    return CriterionResult(
        "experiment_a", True,
        f"bounded by N0 (slack {slack:.3g}), trend ok, {len(exp.meta_rows)} "
        f"metastability combos ({incomputable} bounds over budget, "
        f"0 violations)")


# --- criterion 2: the projection experiment ---------------------------------------


def criterion_experiment_b(exp: Experiment) -> CriterionResult:
    trace = exp.trace
    op = trace.op

    rng = random.Random(0)
    worst = 0.0
    for _ in range(100):
        x = np.array([rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)])
        base = op.resolvent(0.1, x)
        for c in (1.0, 10.0):
            worst = max(worst, float(np.linalg.norm(op.resolvent(c, x) - base)))
    if worst > 1e-10:
        return CriterionResult(
            "experiment_b", False,
            f"resolvent depends on c: max deviation {worst:.3g}")

    hits = np.nonzero(trace.dist_target <= 0.1)[0]
    if hits.size == 0:
        return CriterionResult(
            "experiment_b", False,
            f"never within 0.1 of (1,0); min distance "
            f"{float(np.min(trace.dist_target)):.3g}")
    return CriterionResult(
        "experiment_b", True,
        f"resolvent c-independent (max dev {worst:.3g}), |z_n - (1,0)| <= "
        f"0.1 first at n={int(hits[0])}")


# --- criterion 3: diagnostic inequalities ------------------------------------------

_DIAGNOSTICS = ("recurrence", "resolvent_drift", "gap_decrease")


def criterion_diagnostics(exp_a: Experiment,
                          exp_b: Experiment) -> CriterionResult:
    """The recurrence, resolvent-drift and gap-decrease rows of checks.csv
    for both experiments."""
    details = []
    for label, exp in (("A", exp_a), ("B", exp_b)):
        checks = {row[0]: row for row in exp.check_rows}
        for name in _DIAGNOSTICS:
            _, detail, status = checks[name]
            if status != "PASS":
                return CriterionResult(
                    "diagnostics", False, f"{name} on {label}: {detail}")
        details.append(f"{label}: " + ", ".join(
            f"{name} {checks[name][1]}" for name in _DIAGNOSTICS))
    return CriterionResult("diagnostics", True, "; ".join(details))


# --- criterion 4: asymptotic regularity --------------------------------------------


def criterion_asymptotic(exp: Experiment) -> CriterionResult:
    """The asymptotic table of config A: every residual has a window index
    for each k and f, and none exceeds an exact bound."""
    if not exp.res_rows:
        return CriterionResult("asymptotic_regularity", False,
                               "no asymptotic rows: horizon 0")
    uncleared = _first_uncleared(exp.res_rows)
    if uncleared:
        name, k, spec, emp, bound, verdict = uncleared
        return CriterionResult(
            "asymptotic_regularity", False,
            f"{name} has no window below 1/{int(k) + 1} for f={spec} within "
            f"the horizon" if emp == ""
            else f"{name} at k={k}, f={spec}: witness {emp} exceeds bound "
                 f"{bound} ({verdict})")
    exact = sum(1 for row in exp.res_rows if row[-1] != "BOUND_INCOMPUTABLE")
    k_max = max(int(row[1]) for row in exp.res_rows)
    return CriterionResult(
        "asymptotic_regularity", True,
        f"all residuals below 1/(k+1) for k<={k_max}; {exact} exact "
        f"bounds compared")


# --- criterion 5: oracle suites -----------------------------------------------------


def criterion_oracles() -> CriterionResult:
    parts = []
    for lemma, (trials, _) in SUITES.items():
        res = run_suite(lemma, seed=7, trials=trials)
        if not res.ok:
            return CriterionResult(
                "oracle_suites", False,
                f"{lemma}: {res.passes}/{res.trials}, first failure: "
                f"{res.first_failure}")
        parts.append(f"{lemma} {res.passes}/{res.trials}")
    return CriterionResult("oracle_suites", True, ", ".join(parts))


# --- criterion 6: evaluator equivalence and hand pins --------------------------------

# Toy moduli for the battery: T1 keeps every loop small (a = 1 kills the
# exponential cell count), T2 exercises a > 1 and a non-constant Cmaj.
_T1 = {"a": 1, "c": 1, "N1": 1, "N2": 1, "N3": 1, "Cmaj": ("const", 1),
       "ell": ("id",), "L": ("id",), "Gamma": ("id",), "E": ("id",)}
_T2 = {"a": 2, "c": 2, "N1": 1, "N2": 1, "N3": 1, "Cmaj": ("affine", 1, 1),
       "ell": ("id",), "L": ("affine", 2, 0), "Gamma": ("id",), "E": ("id",)}

BATTERY = (
    {"name": "zeta", "k": 0, "n": 5, "mod": _T1},
    {"name": "zeta", "k": 1, "n": 3, "mod": _T2},
    {"name": "sigma", "k": 0, "n": 0, "d": 1, "mod": _T1},
    {"name": "sigma", "k": 2, "n": 1, "d": 3, "mod": _T2},
    {"name": "theta", "k": 0, "n": 0, "t": 1, "n_arg": 1, "f": ("id",)},
    {"name": "theta", "k": 2, "n": 3, "t": 2, "n_arg": 2,
     "f": ("affine", 1, 2)},
    {"name": "theta", "k": 1, "n": 1, "t": 1, "n_arg": 2,
     "f": ("table", (0, 2, 1))},
    {"name": "R", "k": 0, "t": 1, "a": 2},
    {"name": "R", "k": 2, "t": 4, "a": 3},
    {"name": "R", "k": 0, "t": 5000, "a": 2},
    {"name": "proj", "k": 0, "n_arg": 1, "f": ("affine", 1, 1)},
    {"name": "proj", "k": 1, "n_arg": 2, "f": ("affine", 1, 1)},
    {"name": "varphi_suzuki1", "k": 0, "l": 1, "t": 2, "a": 2, "n_arg": 1,
     "f": ("affine", 1, 2), "nu": ("affine", 1, 0)},
    {"name": "chi_tilde", "k": 0, "a": 1, "n_arg": 2, "f": ("const", 0),
     "nu": ("const", 5)},
    {"name": "chi0", "k": 0, "f": ("const", 0), "mod": _T1,
     "constant_c": True},
    {"name": "chi0", "k": 2, "f": ("id",), "mod": _T1},
    {"name": "nu", "k": 3, "mod": _T2},
    {"name": "mu", "k": 5, "mod": _T1},
    {"name": "xi", "k": 0, "f": ("const", 1), "mod": _T1,
     "constant_c": True},
    {"name": "res_Jn", "k": 0, "f": ("const", 0), "mod": _T1,
     "constant_c": True},
    {"name": "psi", "k": 0, "f": ("const", 0), "mod": _T1,
     "constant_c": True},
    {"name": "Psi", "k": 0, "f": ("const", 0), "mod": _T1,
     "constant_c": True},
    {"name": "phi", "k": 0, "f": ("const", 0), "mod": _T1,
     "constant_c": True},
)


def moduli_from(mod: dict, constant_c: bool = False) -> Moduli:
    return Moduli(a=mod["a"], c=mod["c"], Cmaj=count_fn(mod["Cmaj"]),
                  ell=count_fn(mod["ell"]), Ldiv=count_fn(mod["L"]),
                  Gamma=count_fn(mod["Gamma"]), E=count_fn(mod["E"]),
                  N1=mod["N1"], N2=mod["N2"], N3=mod["N3"],
                  constant_c=constant_c)


def production_bound(inst: dict, budget: Optional[Budget] = None) -> BoundValue:
    """Evaluate one battery instance through the production calculus: the
    same dict refeval.ref_bound takes, its specs built into counting
    functions and its moduli and constant_c into Moduli."""
    args = dict(inst)
    for key in ("f", "nu"):
        if key in args:
            args[key] = count_fn(args[key])
    constant_c = args.pop("constant_c", False)
    if "mod" in args:
        args["moduli"] = moduli_from(args.pop("mod"), constant_c)
    return bounds.bound(budget=budget, **args)


def _agree(bv: BoundValue, rv: RefResult) -> bool:
    if bv.is_exact != rv.is_exact:
        return False
    if bv.is_exact:
        return bv.value == rv.value
    return bv.stage == rv.stage


HAND_PINS = (
    ("sigma(0,0; L=id, D=1)", {"name": "sigma", "k": 0, "n": 0, "d": 1,
                               "mod": _T1}, "3"),
    ("theta(0,0,1,1,id)", {"name": "theta", "k": 0, "n": 0, "t": 1,
                           "n_arg": 1, "f": ("id",)}, "2"),
    ("R(2,0,1)", {"name": "R", "k": 0, "t": 1, "a": 2}, "6"),
    ("zeta(1,3; c=2, Cmaj=n+1)", {"name": "zeta", "k": 1, "n": 3,
                                  "mod": _T2}, "15"),
    ("nu_constc(0) toy", {"name": "nu", "k": 0, "mod": _T1,
                          "constant_c": True}, "32"),
)


def criterion_equivalence() -> CriterionResult:
    markers = 0
    for i, inst in enumerate(BATTERY):
        bv = production_bound(inst)
        rv = ref_bound(**inst)
        if not _agree(bv, rv):
            return CriterionResult(
                "evaluator_equivalence", False,
                f"instance {i} ({inst['name']}): production "
                f"{bv.render()} != reference {rv.render()}")
        markers += 0 if bv.is_exact else 1
    for label, inst, expected in HAND_PINS:
        bv = production_bound(inst)
        if bv.render() != expected:
            return CriterionResult(
                "evaluator_equivalence", False,
                f"hand pin {label}: got {bv.render()}, expected {expected}")
    return CriterionResult(
        "evaluator_equivalence", True,
        f"{len(BATTERY)} instances agree ({markers} budget markers), "
        f"{len(HAND_PINS)} hand pins exact")


# --- criterion 7: monotonicity -------------------------------------------------------


def _k_series(name: str, base: dict, ks: range) -> list:
    values = []
    for k in ks:
        inst = dict(base, name=name, k=k)
        values.append(production_bound(inst))
    return values


def _monotone_prefix(series: list) -> bool:
    """Exact values must be nondecreasing and precede any budget markers."""
    prev = None
    seen_marker = False
    for bv in series:
        if not bv.is_exact:
            seen_marker = True
            continue
        if seen_marker:
            return False
        if prev is not None and bv.value < prev:
            return False
        prev = bv.value
    return True


# f <=* f' pairs; checked with strongly_majorizes before use.
_F_PAIRS = (
    (("const", 0), ("const", 3)),
    (("const", 3), ("affine", 1, 3)),
    (("id",), ("affine", 2, 1)),
    (("table", (1, 0, 2)), ("affine", 1, 2)),
)

_K_FAMILIES = (
    ("zeta", {"n": 3, "mod": _T2}),
    ("sigma", {"n": 1, "d": 2, "mod": _T1}),
    ("theta", {"n": 0, "t": 1, "n_arg": 2, "f": ("id",)}),
    ("R", {"t": 3, "a": 2}),
    ("proj", {"n_arg": 2, "f": ("affine", 1, 1)}),
    ("varphi_suzuki1", {"l": 0, "t": 1, "a": 1, "n_arg": 1,
                        "f": ("const", 2), "nu": ("id",)}),
    ("chi_tilde", {"a": 1, "n_arg": 1, "f": ("const", 0), "nu": ("id",)}),
    ("chi0", {"f": ("const", 0), "mod": _T1, "constant_c": True}),
    ("nu", {"mod": _T1, "constant_c": True}),
    ("mu", {"mod": _T1}),
    ("xi", {"f": ("const", 0), "mod": _T1, "constant_c": True}),
    ("psi", {"f": ("const", 0), "mod": _T1, "constant_c": True}),
    ("Psi", {"f": ("const", 0), "mod": _T1, "constant_c": True}),
    ("phi", {"f": ("const", 0), "mod": _T1, "constant_c": True}),
)

_F_FAMILIES = (
    ("theta", {"k": 2, "n": 0, "t": 1, "n_arg": 2}),
    ("proj", {"k": 1, "n_arg": 2}),
    ("chi_tilde", {"k": 0, "a": 1, "n_arg": 2, "nu": ("const", 3)}),
    ("chi0", {"k": 0, "mod": _T1, "constant_c": True}),
    ("xi", {"k": 0, "mod": _T1, "constant_c": True}),
)


def criterion_monotonicity() -> CriterionResult:
    ks = range(6)
    exact_points = 0
    for name, base in _K_FAMILIES:
        series = _k_series(name, base, ks)
        if not _monotone_prefix(series):
            rendered = [bv.render() for bv in series]
            return CriterionResult(
                "monotonicity", False,
                f"{name} not monotone in k: {rendered}")
        exact_points += sum(1 for bv in series if bv.is_exact)

    for lo_spec, hi_spec in _F_PAIRS:
        if not strongly_majorizes(count_fn(lo_spec), count_fn(hi_spec)):
            return CriterionResult(
                "monotonicity", False,
                f"battery pair broken: {lo_spec} not <=* {hi_spec}")
        for name, base in _F_FAMILIES:
            lo = production_bound(dict(base, name=name, f=lo_spec))
            hi = production_bound(dict(base, name=name, f=hi_spec))
            if lo.is_exact and hi.is_exact and lo.value > hi.value:
                return CriterionResult(
                    "monotonicity", False,
                    f"{name} not monotone under <=*: f={lo_spec} gives "
                    f"{lo.value} > {hi.value} from f'={hi_spec}")

    return CriterionResult(
        "monotonicity", True,
        f"{len(_K_FAMILIES)} k-series monotone ({exact_points} exact "
        f"points), {len(_F_PAIRS)}x{len(_F_FAMILIES)} counterfunction "
        f"comparisons")


# --- entry ---------------------------------------------------------------------------


def run_all(config_path) -> list:
    """Execute the full battery; the config path names the quadratic
    experiment (criteria 1, 3 and 4).  Config A and the pinned experiment B
    each run once, through the pipeline of `mppa run`."""
    results = []

    def experiment(read):
        """An Experiment that ran, or the text saying why it did not."""
        try:
            exp = run_experiment(parse_config(read()))
        except Exception as exc:
            return f"config failed: {exc}"
        if exp.trace is None:
            return f"moduli violations: {exp.report.violations}"
        return exp

    exp_a = experiment(lambda: Path(config_path).read_text(encoding="utf-8"))
    exp_b = experiment(lambda: EXPERIMENT_B_TEXT)

    def guarded(name, criterion, *experiments):
        failed = [exp for exp in experiments if isinstance(exp, str)]
        if failed:
            results.append(CriterionResult(name, False, failed[0]))
            return
        try:
            results.append(criterion(*experiments))
        except Exception as exc:
            results.append(CriterionResult(name, False, f"crashed: {exc}"))

    guarded("experiment_a", criterion_experiment_a, exp_a)
    guarded("experiment_b", criterion_experiment_b, exp_b)
    guarded("diagnostics", criterion_diagnostics, exp_a, exp_b)
    guarded("asymptotic_regularity", criterion_asymptotic, exp_a)
    guarded("oracle_suites", criterion_oracles)
    guarded("evaluator_equivalence", criterion_equivalence)
    guarded("monotonicity", criterion_monotonicity)
    return results
