"""Line-oriented experiment configuration.

Format: `[section]` headers with `key = value` pairs, `#` comments, vectors
as comma-separated reals and matrix rows separated by `;`.  Counting
functions use a small textual grammar (`const K`, `id`, `affine A B`,
`table v0,v1,...`, `expceil A`).  `_SECTIONS` declares every key once,
with its parser and text form; parse_config and serialize_config walk it.
Parsing collects located errors instead of stopping at the first;
serialization is canonical: parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .countfn import (Affine, Budget, Const, CountFn, ExpCeil, Identity,
                      Table)
from .operators import (BallProjection, BoxProjection, LinearPSD,
                        QuadraticProx, ResolventOperator, Rotation2D)
from .schedules import (ConstantSeq, GeometricError, HarmonicSeq, Moduli,
                        Schedule, ZeroError, validate_schedule)

log = logging.getLogger(__name__)

# Each problem kind's operator and the keys of its arguments, in key order.
_OPERATORS = {op.kind: (op, keys) for op, keys in (
    (QuadraticProx, ("center", "weight")),
    (BallProjection, ("center", "radius")),
    (BoxProjection, ("lo", "hi")),
    (LinearPSD, ("matrix",)),
    (Rotation2D, ()),
)}
_ARG_KEYS = {key for _, keys in _OPERATORS.values() for key in keys}


class ConfigError(Exception):
    """Carries every located problem found in one parsing pass."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in v)


def _fmt_nats(v) -> str:
    return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)


def _render_args(heads: dict, obj, fmt) -> str:
    """`head arg ...`: obj's head in heads, then its fields written by fmt."""
    return " ".join([heads[type(obj)],
                     *(fmt(getattr(obj, f.name)) for f in fields(obj))])


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
_FN_HEADS = {ctor: head for head, (ctor, _, _) in _FN_KINDS.items()}


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
    return _render_args(_FN_HEADS, fn, _fmt_nats)


# --- sequence family grammar ---------------------------------------------------

# Scalar families by head; their arguments are their fields, as reals.
_FAMILIES = {"const": ConstantSeq, "harmonic": HarmonicSeq}
_FAMILY_HEADS = {cls: head for head, cls in _FAMILIES.items()}


def _parse_family(text: str):
    parts = text.split()
    if not parts:
        raise ValueError("empty family")
    cls = _FAMILIES.get(parts[0])
    if cls is None or len(parts) != 1 + len(fields(cls)):
        raise ValueError(f"unknown scalar family: {text!r}")
    return cls(*(_float(v) for v in parts[1:]))


def _parse_error_family(text: str):
    """The error family as a function of the operator's dimension, which
    `zero` takes and `geometric R b1,...,bd` must have."""
    parts = text.split()
    if parts == ["zero"]:
        return ZeroError
    if parts and parts[0] == "geometric" and len(parts) == 3:
        fam = GeometricError(ratio=_float(parts[1]), base=_vec(parts[2]))
        return lambda dim: fam
    raise ValueError(f"unknown error family: {text!r}")


def _render_error_family(fam) -> str:
    if isinstance(fam, GeometricError):
        return f"geometric {_fmt(fam.ratio)} {_fmt_vec(fam.base)}"
    return "zero"


# --- config dataclasses ----------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """A kind, its operator's arguments as (key, value) pairs, s, target.
    `operator` is built and checked at first read; a copy builds its own."""

    kind: str
    args: tuple = ()
    s: Optional[tuple] = None
    target: Optional[tuple] = None

    @cached_property
    def operator(self) -> ResolventOperator:
        op, _ = _OPERATORS[self.kind]
        return op(**dict(self.args), zero_set_witness=self.s)

    def build(self) -> ResolventOperator:
        return self.operator


@dataclass(frozen=True)
class IterationSpec:
    u: tuple
    z0: tuple
    lam: object
    gamma: object
    c: object
    error: object

    def build(self) -> Schedule:
        return Schedule(self.lam, self.gamma, self.c, self.error)


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

    def budget(self) -> Budget:
        caps = {"magnitude_bits": self.run.budget_bits,
                "max_calls": self.run.budget_calls}
        return Budget(**{k: v for k, v in caps.items() if v is not None})


# --- keys --------------------------------------------------------------------

def _kind(raw: str) -> str:
    if raw not in _OPERATORS:
        raise ValueError(f"unknown problem kind: {raw!r}")
    return raw


def _float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _vec(raw: str) -> tuple:
    return tuple(_float(x) for x in raw.split(","))


def _matrix(raw: str) -> tuple:
    return tuple(_vec(row) for row in raw.split(";"))


def _nat(raw: str) -> int:
    v = int(raw)
    if v < 0:
        raise ValueError("value must be a natural number")
    return v


def _fspec_list(raw: str) -> tuple:
    return tuple(render_fspec(parse_fspec(s)) for s in raw.split(";"))


class _Key(NamedTuple):
    """A config key: its parser and text form, whether it must appear, the
    spec field holding it (default: the key), and whether its value must
    have the operator's dimension."""

    key: str
    parse: Callable
    render: Callable
    required: bool = True
    field: Optional[str] = None
    sized: bool = False

    @property
    def attr(self) -> str:
        return self.field or self.key


_VEC = (_vec, _fmt_vec)
_REAL = (_float, _fmt)
_NAT = (_nat, _fmt_nats)
_FN = (parse_fspec, render_fspec)
_SEQ = (_parse_family, lambda fam: _render_args(_FAMILY_HEADS, fam, _fmt))

# Each section's spec class and its keys in canonical order.  An operator
# key (one of _ARG_KEYS) applies only to the kinds that _OPERATORS gives it.
_SECTIONS = {
    "problem": (ProblemSpec, (
        _Key("kind", _kind, str), _Key("center", *_VEC),
        _Key("weight", *_REAL, required=False), _Key("radius", *_REAL),
        _Key("lo", *_VEC), _Key("hi", *_VEC),
        _Key("matrix", _matrix, lambda rows: ";".join(map(_fmt_vec, rows))),
        _Key("s", *_VEC, required=False),
        _Key("target", *_VEC, required=False, sized=True))),
    "iteration": (IterationSpec, (
        _Key("u", *_VEC, sized=True), _Key("z0", *_VEC, sized=True),
        _Key("lam", *_SEQ), _Key("gamma", *_SEQ), _Key("c", *_SEQ),
        _Key("error", _parse_error_family, _render_error_family,
             sized=True))),
    "moduli": (Moduli, (
        _Key("a", *_NAT), _Key("c", *_NAT), _Key("Cmaj", *_FN),
        _Key("ell", *_FN), _Key("L", *_FN, field="Ldiv"),
        _Key("Gamma", *_FN), _Key("E", *_FN),
        _Key("N1", *_NAT), _Key("N2", *_NAT), _Key("N3", *_NAT))),
    "run": (RunSpec, (
        _Key("horizon", *_NAT),
        _Key("ks", lambda raw: tuple(map(_nat, raw.split(","))), _fmt_nats),
        _Key("fs", _fspec_list, "; ".join, field="fspecs"),
        _Key("budget_bits", *_NAT, required=False),
        _Key("budget_calls", *_NAT, required=False))),
}


# --- parsing ----------------------------------------------------------------------

def _split_sections(text: str):
    """Section name -> {key: (line_number, raw_value)}, plus located errors."""
    sections, errors, current = {}, [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]")
            elif name in sections:
                errors.append(f"line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {}) \
                if name in _SECTIONS else None
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


def _parse_section(name: str, data: dict, errors: list) -> dict:
    """The section's spec fields from its {key: (line, raw)} data, plus its
    located errors.  An unknown kind requires and refuses no operator key."""
    _, rows = _SECTIONS[name]
    values = {}
    for row in rows:
        required, applies = row.required, True
        if row.key in _ARG_KEYS:
            kind = values["kind"]
            applies = kind is None or row.key in _OPERATORS[kind][1]
            required = required and kind is not None and applies
        value = None
        if row.key in data:
            lineno, raw = data[row.key]
            try:
                value = row.parse(raw)
            except (ValueError, TypeError) as exc:
                errors.append(f"line {lineno}: {row.key}: {exc}")
        elif required:
            errors.append(f"missing key {row.key!r} in [{name}]")
        if value is not None and not applies:
            errors.append(f"key {row.key!r} does not apply to kind {kind!r}")
        elif row.key not in _ARG_KEYS:
            values[row.attr] = value
        elif value is not None:
            values["args"] = values.get("args", ()) + ((row.key, value),)
    known = {row.key for row in rows}
    for lineno, key in sorted((lineno, key) for key, (lineno, _)
                              in data.items() if key not in known):
        errors.append(f"line {lineno}: unknown key {key!r} in [{name}]")
    return values


def _fit(cfg: ExperimentConfig, sections: dict) -> ExperimentConfig:
    """Build the operator, then fit every sized value to its dimension: a
    vector must have it, and an error family is made with it."""
    try:
        dim = cfg.problem.operator.dim
    except ValueError as exc:
        raise ConfigError([f"problem: {exc}"]) from None
    specs, errors = {}, []
    for name, (_, rows) in _SECTIONS.items():
        spec, fitted = getattr(cfg, name), {}
        for row in rows:
            value = getattr(spec, row.attr) if row.sized else None
            if value is None:
                continue
            if callable(value):
                value = fitted[row.attr] = value(dim)
            size = len(value) if isinstance(value, tuple) else value.dim
            if size != dim:
                errors.append(f"line {sections[name][row.key][0]}: {row.key}: "
                              f"dimension {size}, the operator's is {dim}")
        specs[name] = replace(spec, **fitted) if fitted else spec
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**specs)


def parse_config(text: str) -> ExperimentConfig:
    sections, errors = _split_sections(text)
    errors += [f"missing section [{name}]" for name in _SECTIONS
               if name not in sections]
    if errors:
        raise ConfigError(errors)
    values = {name: _parse_section(name, sections[name], errors)
              for name in _SECTIONS}
    if errors:
        raise ConfigError(errors)
    # the one hypothesis no key states: whether c_n is constant
    values["moduli"]["constant_c"] = isinstance(values["iteration"]["c"],
                                                ConstantSeq)
    specs = {}
    for name, (cls, _) in _SECTIONS.items():
        try:
            specs[name] = cls(**values[name])
        except ValueError as exc:
            raise ConfigError([f"{name}: {exc}"]) from None
    cfg = _fit(ExperimentConfig(**specs), sections)
    found = validate_schedule(cfg.iteration.build(), cfg.run.horizon)
    if found:
        raise ConfigError(found)
    return cfg


# --- serialization -----------------------------------------------------------------

def serialize_config(cfg: ExperimentConfig) -> str:
    blocks = []
    for name, (_, rows) in _SECTIONS.items():
        spec = getattr(cfg, name)
        values = {**vars(spec), **dict(getattr(spec, "args", ()))}
        blocks.append("\n".join([f"[{name}]"] + [
            f"{row.key} = {row.render(values[row.attr])}"
            for row in rows if values.get(row.attr) is not None]))
    return "\n\n".join(blocks) + "\n"
