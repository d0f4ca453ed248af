"""Seeded job lists for the three benchmark workloads.

A job is one `mppa` command line.  Everything the program sees (config
files and argv) is generated here from the workload seed with
`random.Random`, whose draws are stable across Python versions, and with
exact decimal text, so one seed always yields byte-identical inputs.

Each workload is stratified: the count of jobs of each kind and cost class
is fixed, and the seed varies only values that leave a job's cost nearly
unchanged (points, boxes, matrices, error families, counterfunction
constants, oracle seeds).  That keeps the time of one pass, the median job
and the tail job steady from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("run_sweep", "oracle_suites", "bound_exact")
DEFAULT_SEED = 0

SHIPPED_CONFIGS = ("experiment_a", "experiment_b")
RUN_HORIZON = 5000
RUN_KS = "0,1,2,3,4,5"
RUN_FS = "const 0; const 10; id"
GENERATED_PER_KIND = 2
PSD_DIM = 8
PSD_KERNEL = 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output check needs.

    `kind` is the subcommand.  `spec` holds the check data: the reference
    instance for `bound`, the lemma and trial count for `oracle`, the
    output directory for `run`.
    """

    name: str
    kind: str
    argv: tuple
    spec: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Workload:
    """`min_passes` is the pass count every run reaches.  The tail latency
    counts each job's median as that many runs, so the percentile, and the
    cost class it falls in, stay put whatever the host's speed."""

    name: str
    seed: int
    jobs: list
    configs: dict  # path -> text the jobs read
    min_passes: int


def _dec(x: float, places: int = 3) -> str:
    """Round to a short exact decimal so the config text is portable."""
    text = f"{x:.{places}f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _vec(v) -> str:
    return ",".join(v)


def _norm(v) -> float:
    return math.sqrt(sum(float(x) ** 2 for x in v))


# --- run_sweep --------------------------------------------------------------------


def _schedule(rng: random.Random) -> dict:
    """lam = harmonic h, gamma = const g in the [1/a, 1 - 1/a] band, c
    constant; returns the moduli those imply (ell = id, L = expceil h+1)."""
    a = rng.choice((2, 3, 4))
    while True:
        h = rng.choice((3, 4, 5, 6))
        g = _dec(rng.uniform(1.0 / a, 1.0 - 1.0 / a), 2)
        if 1.0 / a <= float(g) <= 1.0 - 1.0 / a and 1.0 / h + float(g) < 0.95:
            break
    c_val = rng.choice(("0.5", "1", "2"))
    return {
        "a": a, "h": h, "g": g, "c_val": c_val,
        "c_int": math.ceil(1.0 / float(c_val)),
        "cmaj": math.ceil(float(c_val)),
    }


def _errors(rng: random.Random, dim: int):
    """Zero or geometric error family, with the tail rate E and the error
    mass it implies.  For ratio r <= 1/2 and E(k) = k + B the tail past
    E(k) is at most r**k <= 1/(k+1) once r**(B+1) |b| / (1 - r) <= 1."""
    if rng.random() < 0.5:
        return "zero", "const 0", 0.0
    ratio = rng.choice((0.25, 0.5))
    base = [_dec(rng.uniform(-1.0, 1.0)) for _ in range(dim)]
    if _norm(base) == 0.0:
        base[0] = "0.5"
    size = _norm(base) / (1.0 - ratio)
    shift = 0
    while ratio ** (shift + 1) * size > 1.0:
        shift += 1
    family = f"geometric {_dec(ratio, 2)} {_vec(base)}"
    return family, f"affine 1 {shift}", size


def _point(rng: random.Random, dim: int, spread: float = 2.0) -> list:
    return [_dec(rng.uniform(-spread, spread)) for _ in range(dim)]


def _box_problem(rng: random.Random) -> tuple:
    dim = 3
    lo, hi = [], []
    for _ in range(dim):
        a, b = sorted((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        lo.append(_dec(a))
        hi.append(_dec(max(b, a + 0.1)))
    s = [_dec((float(x) + float(y)) / 2.0) for x, y in zip(lo, hi)]
    u = _point(rng, dim)
    target = [_dec(min(max(float(x), float(l)), float(h)))
              for x, l, h in zip(u, lo, hi)]
    lines = ["kind = box_projection", f"lo = {_vec(lo)}", f"hi = {_vec(hi)}",
             f"s = {_vec(s)}", f"target = {_vec(target)}"]
    return dim, lines, s, u


def _psd_problem(rng: random.Random) -> tuple:
    """A = B^T B + I on the coordinates outside a random pair, zero on that
    pair: exact integer entries, positive semidefinite, with a kernel
    spanned by two coordinate axes, so the nearest zero to u is u with the
    other coordinates set to 0."""
    dim = PSD_DIM
    kernel = sorted(rng.sample(range(dim), PSD_KERNEL))
    live = [i for i in range(dim) if i not in kernel]
    rows = [[rng.randint(-2, 2) for _ in live] for _ in live]
    mat = [[0] * dim for _ in range(dim)]
    for x, i in enumerate(live):
        for y, j in enumerate(live):
            mat[i][j] = sum(r[x] * r[y] for r in rows) + (1 if i == j else 0)
    u = _point(rng, dim)
    target = [u[i] if i in kernel else "0" for i in range(dim)]
    s = ["0"] * dim
    matrix = ";".join(",".join(str(v) for v in row) for row in mat)
    lines = ["kind = linear_psd", f"matrix = {matrix}", f"s = {_vec(s)}",
             f"target = {_vec(target)}"]
    return dim, lines, s, u


def _rotation_problem(rng: random.Random) -> tuple:
    s = ["0", "0"]
    lines = ["kind = rotation2d", f"s = {_vec(s)}", f"target = {_vec(s)}"]
    return 2, lines, s, _point(rng, 2)


_PROBLEMS = {
    "box_projection": _box_problem,
    "linear_psd": _psd_problem,
    "rotation2d": _rotation_problem,
}


def run_config(rng: random.Random, kind: str) -> str:
    """A config for `kind` whose moduli are derived from the drawn values,
    so that moduli validation and every diagnostic check pass."""
    dim, problem, s, u = _PROBLEMS[kind](rng)
    z0 = _point(rng, dim)
    sch = _schedule(rng)
    error, e_rate, mass = _errors(rng, dim)
    n1 = math.ceil(_norm(u)) + 1
    n2 = math.ceil(mass + 1.0) + 1
    n3 = math.ceil(max(
        _norm([float(x) - float(y) for x, y in zip(u, s)]),
        _norm([float(x) - float(y) for x, y in zip(z0, s)]))) + 1
    return "\n".join([
        "[problem]", *problem, "",
        "[iteration]",
        f"u = {_vec(u)}",
        f"z0 = {_vec(z0)}",
        f"lam = harmonic {sch['h']}",
        f"gamma = const {sch['g']}",
        f"c = const {sch['c_val']}",
        f"error = {error}", "",
        "[moduli]",
        f"a = {sch['a']}",
        f"c = {sch['c_int']}",
        f"Cmaj = const {sch['cmaj']}",
        "ell = id",
        f"L = expceil {sch['h'] + 1}",
        "Gamma = const 0",
        f"E = {e_rate}",
        f"N1 = {n1}",
        f"N2 = {n2}",
        f"N3 = {n3}", "",
        "[run]",
        f"horizon = {RUN_HORIZON}",
        f"ks = {RUN_KS}",
        f"fs = {RUN_FS}", "",
    ])


def run_sweep(seed: int, root: Path, workdir: Path) -> Workload:
    rng = random.Random(f"run_sweep:{seed}")
    jobs, configs = [], {}
    for name in SHIPPED_CONFIGS:
        path = root / "configs" / f"{name}.cfg"
        out = workdir / "out" / name
        jobs.append(Job(name, "run", ("run", str(path), "--out", str(out)),
                        {"out": out}))
    for kind in _PROBLEMS:
        for i in range(GENERATED_PER_KIND):
            name = f"{kind}_{i}"
            path = workdir / "configs" / f"{name}.cfg"
            configs[path] = run_config(rng, kind)
            out = workdir / "out" / name
            jobs.append(Job(name, "run", ("run", str(path), "--out", str(out)),
                            {"out": out}))
    # 8 jobs, 8 passes: the tail is the third-slowest job (linear_psd).
    return Workload("run_sweep", seed, jobs, configs, min_passes=8)


# --- oracle_suites ------------------------------------------------------------------

# Cost classes of a one-trial suzuki2 job.  Trial 0 of that suite draws
# f = Const(randrange(3)), then n_ball = choice((1, 2, 3)), then
# k = randrange(2), and evaluates chi_tilde(k, f, 2, Const(0), n_ball):
#   n_ball = 3, k = 0: the theta loop fits the call cap up front and runs
#                      until the 10^7-call cap trips ("capped", seconds);
#   n_ball = 2, k = 0 or n_ball = 1, k = 1: exact after ~10^6 calls
#                      ("medium", a fifth of a second);
#   n_ball = 1, k = 0: exact at once ("small");
#   k = 1, n_ball >= 2: the loop length exceeds the cap, marker up front
#                      ("early").
SUZUKI2_MIX = {"capped": 1, "medium": 6, "small": 2, "early": 2}
ORACLE_MIX = {
    # lemma: (jobs per pass, trials per job); a job's cost grows with its
    # trials, so the seed draws only the oracle seeds
    "ratap": (4, 200),
    "limsup2": (4, 200),
    "xu": (10, 20),
    "suzuki1": (2, 2),
}


def suzuki2_class(oracle_seed: int) -> str:
    """Cost class of `mppa oracle --lemma suzuki2 --trials 1` at this seed."""
    rng = random.Random(oracle_seed)
    rng.randrange(0, 3)
    n_ball = rng.choice((1, 2, 3))
    k = rng.randrange(0, 2)
    if k == 0:
        return {1: "small", 2: "medium", 3: "capped"}[n_ball]
    return "medium" if n_ball == 1 else "early"


def _oracle_job(name: str, lemma: str, oracle_seed: int, trials: int) -> Job:
    argv = ("oracle", "--lemma", lemma, "--seed", str(oracle_seed),
            "--trials", str(trials))
    return Job(name, "oracle", argv, {"lemma": lemma, "trials": trials})


def oracle_suites(seed: int, root: Path, workdir: Path) -> Workload:
    rng = random.Random(f"oracle_suites:{seed}")
    jobs = []
    for lemma, (count, trials) in ORACLE_MIX.items():
        for i in range(count):
            jobs.append(_oracle_job(f"{lemma}_{i}", lemma,
                                    rng.randrange(1 << 30), trials))
    wanted = dict(SUZUKI2_MIX)
    while any(wanted.values()):
        oracle_seed = rng.randrange(1 << 30)
        cls = suzuki2_class(oracle_seed)
        if wanted[cls]:
            wanted[cls] -= 1
            jobs.append(_oracle_job(f"suzuki2_{cls}_{wanted[cls]}", "suzuki2",
                                    oracle_seed, 1))
    # 31 jobs, 3 passes: the tail falls among the medium suzuki2 jobs.
    return Workload("oracle_suites", seed, jobs, {}, min_passes=3)


# --- bound_exact --------------------------------------------------------------------

SMALL_RATES = ("id", "const 0", "const 1", "const 2", "affine 1 0",
               "affine 1 1", "affine 2 0")
THETA_STEPS = (235_000, 245_000)
PROJ_STEPS = (300_000, 310_000)
# Magnitude-cap markers: f at least doubles its argument, so the loop value
# passes 2**4096 within 4096 of its 5000 to 9000 steps and stops there.
DOUBLING = "affine 2 1"
BOUND_MIX = {"theta": 5, "proj": 5, "xi": 4, "theta_marker": 2,
             "proj_marker": 2, "zeta": 1, "sigma": 2, "R": 1}


def _fspec(text: str) -> tuple:
    """A counting-function text in the form `refeval.make_fn` takes."""
    head, *args = text.split()
    return (head, *(int(a) for a in args))


def _small_moduli(rng: random.Random, n_vals=(1, 1, 1)) -> dict:
    rates = {key: rng.choice(SMALL_RATES)
             for key in ("ell", "L", "Gamma", "E")}
    n1, n2, n3 = n_vals
    return {"a": 1, "c": rng.choice((1, 2)), "Cmaj": "const 1",
            "N1": n1, "N2": n2, "N3": n3, **rates}


def bound_config(mod: dict) -> str:
    """A rotation2d config carrying the small moduli.  `mppa bound` reads
    only the moduli and the budget; the rest just has to parse."""
    return "\n".join([
        "[problem]", "kind = rotation2d", "",
        "[iteration]", "u = 1,0", "z0 = 0,0", "lam = harmonic 3",
        "gamma = const 0.5", "c = const 1", "error = zero", "",
        "[moduli]",
        f"a = {mod['a']}", f"c = {mod['c']}", f"Cmaj = {mod['Cmaj']}",
        f"ell = {mod['ell']}", f"L = {mod['L']}",
        f"Gamma = {mod['Gamma']}", f"E = {mod['E']}",
        f"N1 = {mod['N1']}", f"N2 = {mod['N2']}", f"N3 = {mod['N3']}", "",
        "[run]", "horizon = 1", "ks = 0", "fs = const 0", "",
    ])


def ref_moduli(mod: dict) -> dict:
    """The moduli in the portable form `refeval.ref_bound` takes."""
    out = {key: mod[key] for key in ("a", "c", "N1", "N2", "N3")}
    for key in ("Cmaj", "ell", "L", "Gamma", "E"):
        out[key] = _fspec(mod[key])
    return out


def _derived_n(mod: dict) -> int:
    return max(2 * mod["N3"], mod["N2"] + mod["N3"])


def _bound_job(name, cfg_path, mod, bound, k=0, n=0, t=1, fspec=None) -> Job:
    argv = ["bound", str(cfg_path), bound, "--k", str(k), "--n", str(n),
            "--t", str(t)]
    if fspec is not None:
        argv += ["--fspec", fspec]
    big_n = _derived_n(mod)
    ref = {"k": k, "mod": ref_moduli(mod), "constant_c": True}
    if bound == "theta":
        ref.update(n=n, t=t, n_arg=big_n)
    elif bound == "proj":
        ref.update(n_arg=big_n)
    elif bound == "zeta":
        ref.update(n=n)
    elif bound == "sigma":
        ref.update(n=n, d=4 * big_n * big_n)
    elif bound == "R":
        ref.update(t=t, a=mod["a"])
    if fspec is not None:
        ref["f"] = _fspec(fspec)
    return Job(name, "bound", tuple(argv), {"bound": bound, "ref": ref})


def bound_exact(seed: int, root: Path, workdir: Path) -> Workload:
    rng = random.Random(f"bound_exact:{seed}")
    jobs, configs = [], {}

    def config(name: str, mod: dict) -> Path:
        path = workdir / "configs" / f"{name}.cfg"
        configs[path] = bound_config(mod)
        return path

    for i in range(BOUND_MIX["theta"]):
        # theta loops P = N (k+1) steps with N = 2 N3 for N2 <= N3.
        mod = _small_moduli(rng, (1, 1, rng.randint(2, 4)))
        steps = rng.randint(*THETA_STEPS)
        k = steps // _derived_n(mod) - 1
        jobs.append(_bound_job(f"theta_{i}", config(f"theta_{i}", mod), mod,
                               "theta", k=k, n=rng.randint(0, 50),
                               t=rng.randint(1, 3),
                               fspec=f"const {rng.randint(0, 9)}"))
    for i in range(BOUND_MIX["proj"]):
        # proj loops N^2 (k+1) steps.
        mod = _small_moduli(rng, (1, 1, rng.randint(2, 4)))
        steps = rng.randint(*PROJ_STEPS)
        k = steps // _derived_n(mod) ** 2 - 1
        fspec = rng.choice(("id", f"const {rng.randint(0, 9)}"))
        jobs.append(_bound_job(f"proj_{i}", config(f"proj_{i}", mod), mod,
                               "proj", k=k, fspec=fspec))
    for i in range(BOUND_MIX["xi"]):
        # At k = 0 with N1 = N2 = N3 = 1 the inner theta loop has 435600
        # steps whatever the rates, so the cost is fixed and the value exact.
        mod = _small_moduli(rng)
        jobs.append(_bound_job(f"xi_{i}", config(f"xi_{i}", mod), mod, "xi",
                               k=0, fspec=f"const {rng.randint(0, 9)}"))
    for i in range(BOUND_MIX["theta_marker"]):
        mod = _small_moduli(rng, (1, 1, rng.randint(2, 4)))
        k = rng.randint(5000, 9000) // _derived_n(mod)
        jobs.append(_bound_job(f"theta_marker_{i}",
                               config(f"theta_marker_{i}", mod), mod, "theta",
                               k=k, t=1, fspec=DOUBLING))
    for i in range(BOUND_MIX["proj_marker"]):
        mod = _small_moduli(rng, (1, 1, rng.randint(2, 4)))
        k = rng.randint(5000, 9000) // _derived_n(mod) ** 2
        jobs.append(_bound_job(f"proj_marker_{i}",
                               config(f"proj_marker_{i}", mod), mod, "proj",
                               k=k, fspec=DOUBLING))
    for bound in ("zeta", "sigma", "R"):
        for i in range(BOUND_MIX[bound]):
            mod = _small_moduli(rng)
            name = f"{bound}_{i}"
            jobs.append(_bound_job(name, config(name, mod), mod, bound,
                                   k=rng.randint(0, 100), n=rng.randint(0, 100),
                                   t=rng.randint(1, 40)))
    # 22 jobs, 4 passes: the tail is the fastest of the four xi jobs.
    return Workload("bound_exact", seed, jobs, configs, min_passes=4)


_GENERATORS = {
    "run_sweep": run_sweep,
    "oracle_suites": oracle_suites,
    "bound_exact": bound_exact,
}


def generate(workload: str, seed: int, root: Path, workdir: Path) -> Workload:
    """The jobs and config texts of one workload; pure given the seed."""
    return _GENERATORS[workload](seed, root, workdir)
