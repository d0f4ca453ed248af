"""Line-oriented experiment configuration.

Format: `[section]` headers with `key = value` pairs, `#` comments, vectors
as comma-separated reals and matrix rows separated by `;`.  Counting
functions use a small textual grammar (`const K`, `id`, `affine A B`,
`table v0,v1,...`, `expceil A`).  Parsing collects located errors instead
of stopping at the first; serialization is canonical so that
parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

from .countfn import (Affine, Budget, Const, CountFn, ExpCeil, Identity,
                      Table)
from .operators import (BallProjection, BoxProjection, LinearPSD,
                        QuadraticProx, ResolventOperator, Rotation2D)
from .schedules import (ConstantSeq, GeometricError, HarmonicSeq, Moduli,
                        Schedule, ZeroError, validate_schedule)

log = logging.getLogger(__name__)

REQUIRED_SECTIONS = ("problem", "iteration", "moduli", "run")

_PROBLEM_KEYS = {
    "quadratic_prox": {"center", "weight"},
    "ball_projection": {"center", "radius"},
    "box_projection": {"lo", "hi"},
    "linear_psd": {"matrix"},
    "rotation2d": set(),
}


class ConfigError(Exception):
    """Carries every located problem found in one parsing pass."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in v)


# --- counting function grammar ----------------------------------------------


# Counting-function constructors by head: (constructor, argument count,
# the message for a wrong count).
_FN_KINDS = {
    "id": (Identity, 0, "id takes no arguments"),
    "const": (Const, 1, "const takes one argument"),
    "affine": (Affine, 2, "affine takes two arguments"),
    "expceil": (ExpCeil, 1, "expceil takes one argument"),
    "table": (Table, 1, "table takes one comma-separated argument"),
}


def _constructor(head: str, args) -> type:
    if head not in _FN_KINDS:
        raise ValueError(f"unknown counting function: {head!r}")
    ctor, arity, usage = _FN_KINDS[head]
    if len(args) != arity:
        raise ValueError(usage)
    return ctor


def count_fn(spec: tuple) -> CountFn:
    """The counting function of a spec tuple, such as ("affine", 2, 1) or
    ("table", (0, 2, 1)): the grammar of parse_fspec, arguments as ints."""
    head, *args = spec
    return _constructor(head, args)(*args)


def parse_fspec(text: str) -> CountFn:
    parts = text.split()
    if not parts:
        raise ValueError("empty counting function")
    head, args = parts[0], parts[1:]
    ctor = _constructor(head, args)
    if head != "table":
        return ctor(*(int(v) for v in args))
    values = tuple(int(v) for v in args[0].split(","))
    table = ctor(values)
    if table.values != values:
        log.warning("non-monotone table %s majorized to %s",
                    list(values), list(table.values))
    return table


def render_fspec(fn: CountFn) -> str:
    if isinstance(fn, Identity):
        return "id"
    if isinstance(fn, Const):
        return f"const {fn.value}"
    if isinstance(fn, Affine):
        return f"affine {fn.slope} {fn.offset}"
    if isinstance(fn, ExpCeil):
        return f"expceil {fn.scale}"
    if isinstance(fn, Table):
        return "table " + ",".join(str(v) for v in fn.values)
    raise ValueError(f"no textual form for {type(fn).__name__}")


# --- sequence family grammar ---------------------------------------------------


def _parse_family(text: str):
    parts = text.split()
    if not parts:
        raise ValueError("empty family")
    if parts[0] == "const" and len(parts) == 2:
        return ConstantSeq(value=float(parts[1]))
    if parts[0] == "harmonic" and len(parts) == 2:
        return HarmonicSeq(shift=float(parts[1]))
    raise ValueError(f"unknown scalar family: {text!r}")


def _render_family(fam) -> str:
    if isinstance(fam, ConstantSeq):
        return f"const {_fmt(fam.value)}"
    if isinstance(fam, HarmonicSeq):
        return f"harmonic {_fmt(fam.shift)}"
    raise ValueError(f"no textual form for {type(fam).__name__}")


def _parse_error_family(text: str, dim: int):
    parts = text.split()
    if parts == ["zero"]:
        return ZeroError(dim=dim)
    if parts and parts[0] == "geometric" and len(parts) == 3:
        base = tuple(float(x) for x in parts[2].split(","))
        return GeometricError(ratio=float(parts[1]), base=base)
    raise ValueError(f"unknown error family: {text!r}")


def _render_error_family(fam) -> str:
    if isinstance(fam, ZeroError):
        return "zero"
    if isinstance(fam, GeometricError):
        return f"geometric {_fmt(fam.ratio)} {_fmt_vec(fam.base)}"
    raise ValueError(f"no textual form for {type(fam).__name__}")


# --- config dataclasses ----------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    center: Optional[tuple] = None
    weight: Optional[float] = None
    radius: Optional[float] = None
    lo: Optional[tuple] = None
    hi: Optional[tuple] = None
    matrix: Optional[tuple] = None
    s: Optional[tuple] = None
    target: Optional[tuple] = None

    def build(self) -> ResolventOperator:
        if self.kind == "quadratic_prox":
            weight = 1.0 if self.weight is None else self.weight
            return QuadraticProx(center=self.center, weight=weight,
                                 zero_set_witness=self.s)
        if self.kind == "ball_projection":
            return BallProjection(center=self.center, radius=self.radius,
                                  zero_set_witness=self.s)
        if self.kind == "box_projection":
            return BoxProjection(lo=self.lo, hi=self.hi,
                                 zero_set_witness=self.s)
        if self.kind == "linear_psd":
            return LinearPSD(matrix=self.matrix, zero_set_witness=self.s)
        if self.kind == "rotation2d":
            return Rotation2D()
        raise ValueError(f"unknown problem kind: {self.kind!r}")


@dataclass(frozen=True)
class IterationSpec:
    u: tuple
    z0: tuple
    lam: object
    gamma: object
    c: object
    error: object

    def build(self) -> Schedule:
        return Schedule(lam=self.lam, gamma=self.gamma, c=self.c,
                        error=self.error)


@dataclass(frozen=True)
class RunSpec:
    horizon: int
    ks: tuple
    fspecs: tuple
    budget_bits: Optional[int] = None
    budget_calls: Optional[int] = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    iteration: IterationSpec
    moduli: Moduli
    run: RunSpec

    @property
    def constant_c(self) -> bool:
        return isinstance(self.iteration.c, ConstantSeq)

    def budget(self) -> Budget:
        base = Budget()
        bits = base.magnitude_bits if self.run.budget_bits is None \
            else self.run.budget_bits
        calls = base.max_calls if self.run.budget_calls is None \
            else self.run.budget_calls
        return Budget(magnitude_bits=bits, max_calls=calls)


# --- parsing ----------------------------------------------------------------------


def _split_sections(text: str):
    """Section name -> {key: (line_number, raw_value)}, plus located errors."""
    sections = {}
    errors = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in REQUIRED_SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]")
                current = None
                continue
            if name in sections:
                errors.append(f"line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        current[key] = (lineno, value)
    return sections, errors


class _Section:
    """One section's keys with consumption tracking for unknown-key errors."""

    def __init__(self, name, data, errors):
        self.name = name
        self.data = dict(data)
        self.errors = errors

    def take(self, key, parser, required=False, default=None):
        if key not in self.data:
            if required:
                self.errors.append(
                    f"missing key {key!r} in [{self.name}]")
            return default
        lineno, raw = self.data.pop(key)
        try:
            return parser(raw)
        except (ValueError, TypeError) as exc:
            self.errors.append(f"line {lineno}: {key}: {exc}")
            return default

    def finish(self):
        for key, (lineno, _) in sorted(self.data.items(),
                                       key=lambda kv: kv[1][0]):
            self.errors.append(
                f"line {lineno}: unknown key {key!r} in [{self.name}]")


def _float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _vec(raw: str) -> tuple:
    return tuple(_float(x) for x in raw.split(","))


def _matrix(raw: str) -> tuple:
    return tuple(tuple(_float(x) for x in row.split(","))
                 for row in raw.split(";"))


def _nat(raw: str) -> int:
    v = int(raw)
    if v < 0:
        raise ValueError("value must be a natural number")
    return v


def _nat_list(raw: str) -> tuple:
    return tuple(_nat(x) for x in raw.split(","))


def _fspec_list(raw: str) -> tuple:
    specs = [part.strip() for part in raw.split(";")]
    return tuple(render_fspec(parse_fspec(s)) for s in specs)


def parse_config(text: str) -> ExperimentConfig:
    sections, errors = _split_sections(text)
    for name in REQUIRED_SECTIONS:
        if name not in sections:
            errors.append(f"missing section [{name}]")
    if errors:
        raise ConfigError(errors)

    prob = _Section("problem", sections["problem"], errors)
    kind = prob.take("kind", str, required=True)
    if kind is not None and kind not in _PROBLEM_KEYS:
        errors.append(f"unknown problem kind: {kind!r}")
        kind = None
    allowed = _PROBLEM_KEYS.get(kind, set())
    fields = {}
    for key, parser in (("center", _vec), ("weight", _float),
                        ("radius", _float), ("lo", _vec), ("hi", _vec),
                        ("matrix", _matrix)):
        required = kind is not None and key in allowed and key != "weight"
        value = prob.take(key, parser, required=required)
        if value is not None and kind is not None and key not in allowed:
            errors.append(f"key {key!r} does not apply to kind {kind!r}")
            value = None
        fields[key] = value
    s_decl = prob.take("s", _vec)
    target = prob.take("target", _vec)
    prob.finish()

    it = _Section("iteration", sections["iteration"], errors)
    u = it.take("u", _vec, required=True)
    z0 = it.take("z0", _vec, required=True)
    lam = it.take("lam", _parse_family, required=True)
    gamma = it.take("gamma", _parse_family, required=True)
    cfam = it.take("c", _parse_family, required=True)
    err_raw = it.take("error", str, required=True)
    it.finish()
    error_fam = None
    if err_raw is not None and z0 is not None:
        try:
            error_fam = _parse_error_family(err_raw, dim=len(z0))
        except ValueError as exc:
            errors.append(f"error: {exc}")

    mod = _Section("moduli", sections["moduli"], errors)
    a = mod.take("a", _nat, required=True)
    c_int = mod.take("c", _nat, required=True)
    cmaj = mod.take("Cmaj", parse_fspec, required=True)
    ell = mod.take("ell", parse_fspec, required=True)
    ldiv = mod.take("L", parse_fspec, required=True)
    gam_rate = mod.take("Gamma", parse_fspec, required=True)
    e_rate = mod.take("E", parse_fspec, required=True)
    n1 = mod.take("N1", _nat, required=True)
    n2 = mod.take("N2", _nat, required=True)
    n3 = mod.take("N3", _nat, required=True)
    mod.finish()

    runs = _Section("run", sections["run"], errors)
    horizon = runs.take("horizon", _nat, required=True)
    ks = runs.take("ks", _nat_list, required=True)
    fspecs = runs.take("fs", _fspec_list, required=True)
    budget_bits = runs.take("budget_bits", _nat)
    budget_calls = runs.take("budget_calls", _nat)
    runs.finish()

    if errors:
        raise ConfigError(errors)

    problem = ProblemSpec(kind=kind, s=s_decl, target=target, **fields)
    iteration = IterationSpec(u=u, z0=z0, lam=lam, gamma=gamma, c=cfam,
                              error=error_fam)
    try:
        moduli = Moduli(a=a, c=c_int, Cmaj=cmaj, ell=ell, Ldiv=ldiv,
                        Gamma=gam_rate, E=e_rate, N1=n1, N2=n2, N3=n3)
    except ValueError as exc:
        raise ConfigError([f"moduli: {exc}"]) from None
    run = RunSpec(horizon=horizon, ks=ks, fspecs=fspecs,
                  budget_bits=budget_bits, budget_calls=budget_calls)
    cfg = ExperimentConfig(problem=problem, iteration=iteration,
                           moduli=moduli, run=run)

    try:
        cfg.problem.build()
    except ValueError as exc:
        raise ConfigError([f"problem: {exc}"]) from None
    schedule = cfg.iteration.build()
    found = validate_schedule(schedule, horizon)
    if found:
        raise ConfigError(found)
    return cfg


# --- serialization -----------------------------------------------------------------


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = ["[problem]", f"kind = {cfg.problem.kind}"]
    for key in ("center", "weight", "radius", "lo", "hi"):
        value = getattr(cfg.problem, key)
        if value is None:
            continue
        text = _fmt(value) if key in ("weight", "radius") else _fmt_vec(value)
        lines.append(f"{key} = {text}")
    if cfg.problem.matrix is not None:
        rows = ";".join(_fmt_vec(row) for row in cfg.problem.matrix)
        lines.append(f"matrix = {rows}")
    if cfg.problem.s is not None:
        lines.append(f"s = {_fmt_vec(cfg.problem.s)}")
    if cfg.problem.target is not None:
        lines.append(f"target = {_fmt_vec(cfg.problem.target)}")

    it = cfg.iteration
    lines += [
        "",
        "[iteration]",
        f"u = {_fmt_vec(it.u)}",
        f"z0 = {_fmt_vec(it.z0)}",
        f"lam = {_render_family(it.lam)}",
        f"gamma = {_render_family(it.gamma)}",
        f"c = {_render_family(it.c)}",
        f"error = {_render_error_family(it.error)}",
    ]

    m = cfg.moduli
    lines += [
        "",
        "[moduli]",
        f"a = {m.a}",
        f"c = {m.c}",
        f"Cmaj = {render_fspec(m.Cmaj)}",
        f"ell = {render_fspec(m.ell)}",
        f"L = {render_fspec(m.Ldiv)}",
        f"Gamma = {render_fspec(m.Gamma)}",
        f"E = {render_fspec(m.E)}",
        f"N1 = {m.N1}",
        f"N2 = {m.N2}",
        f"N3 = {m.N3}",
    ]

    r = cfg.run
    lines += [
        "",
        "[run]",
        f"horizon = {r.horizon}",
        "ks = " + ",".join(str(k) for k in r.ks),
        "fs = " + "; ".join(r.fspecs),
    ]
    if r.budget_bits is not None:
        lines.append(f"budget_bits = {r.budget_bits}")
    if r.budget_calls is not None:
        lines.append(f"budget_calls = {r.budget_calls}")
    return "\n".join(lines) + "\n"
