"""Parameter schedules for the iteration and their quantitative moduli.

A Schedule fixes the closed-form families for the anchor weight lambda_n,
the inertia gamma_n, the resolvent parameter c_n and the error term e_n;
the mixing weight delta_n is always derived as 1 - lambda_n - gamma_n.

Moduli packages the rates that make the convergence analysis quantitative:
ell witnesses lambda_n -> 0, Ldiv witnesses divergence of the lambda sums,
Gamma witnesses c_{n+1} - c_n -> 0, E witnesses the error tail being Cauchy,
and a, c, Cmaj, N1, N2, N3 are the numeric envelopes everything else is
phrased in.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .countfn import (Affine, Budget, Composed, CountFn, evaluate,
                      evaluate_prefix)
from .operators import SLACK, as_point, excess, np, sq_dist

# Integers at least this large exceed every finite float.
_FLOAT_MAX = int(sys.float_info.max)


@dataclass(frozen=True)
class ConstantSeq:
    value: float

    def values(self, count: int) -> np.ndarray:
        return np.full(count, self.value)

    def at(self, n: int) -> float:
        """values(count)[n] as a Python float, for any count > n."""
        return self.value


@dataclass(frozen=True)
class HarmonicSeq:
    """n -> 1 / (n + shift)."""

    shift: float

    def __post_init__(self):
        if not (self.shift > 0):
            raise ValueError("harmonic shift must be positive")

    def values(self, count: int) -> np.ndarray:
        return 1.0 / (np.arange(count) + self.shift)

    def at(self, n: int) -> float:
        """values(count)[n] as a Python float, for any count > n: the same
        two roundings."""
        return 1.0 / (n + self.shift)


@dataclass(frozen=True)
class ZeroError:
    dim: int

    def values(self, count: int) -> np.ndarray:
        return np.zeros((count, self.dim))

    def norms(self, count: int) -> np.ndarray:
        return np.zeros(count)


@dataclass(frozen=True)
class GeometricError:
    """e_n = ratio**n * base with 0 < ratio < 1."""

    ratio: float
    base: tuple

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise ValueError("geometric ratio must lie in (0, 1)")
        object.__setattr__(self, "base", tuple(float(v) for v in self.base))

    @property
    def dim(self) -> int:
        return len(self.base)

    def values(self, count: int) -> np.ndarray:
        scales = self.ratio ** np.arange(count)
        return scales[:, None] * np.asarray(self.base)

    def norms(self, count: int) -> np.ndarray:
        scales = self.ratio ** np.arange(count)
        return scales * float(np.linalg.norm(self.base))


@dataclass(frozen=True)
class Schedule:
    lam: object
    gamma: object
    c: object
    error: object

    def scalars(self, horizon: int) -> tuple:
        """(lam, gam, delta, cs) for n = 0..horizon."""
        count = horizon + 1
        lam = self.lam.values(count)
        gam = self.gamma.values(count)
        return lam, gam, 1.0 - lam - gam, self.c.values(count)

    def snapshot(self, horizon: int) -> tuple:
        """Vectorized parameters: scalars for n = 0..horizon, errors for
        n = 0..horizon-1."""
        return self.scalars(horizon) + (self.error.values(max(horizon, 0)),)


# The families that are nonincreasing in n.  Rounding is monotone, so in
# floats too; delta = 1 - lambda - gamma is then nondecreasing.
_NONINCREASING = (ConstantSeq, HarmonicSeq)


def validate_schedule(schedule: Schedule, horizon: int) -> list:
    """All of lambda, gamma, delta must lie in (0, 1) and c must be positive
    and finite up to the horizon; returns located violation messages.

    When every family is nonincreasing, each of the four sequences is
    monotone, so it lies in its interval if its two ends n = 0 and n =
    horizon do, and those decide acceptance without arrays.  Anything else
    goes through the array scan, the one writer of the messages."""
    if horizon >= 0 and _ends_inside(schedule, horizon):
        return []
    return _schedule_problems(*schedule.scalars(horizon))


def _ends_inside(schedule: Schedule, horizon: int) -> bool:
    """Whether every family is nonincreasing and, at n = 0 and n = horizon,
    lambda, gamma and delta lie in (0, 1) and c in (0, inf), each computed
    as schedule.scalars computes it."""
    families = (schedule.lam, schedule.gamma, schedule.c)
    if not all(type(fam) in _NONINCREASING for fam in families):
        return False
    for n in (0, horizon):
        lam, gam, c = (fam.at(n) for fam in families)
        if not (0 < lam < 1 and 0 < gam < 1 and 0 < 1.0 - lam - gam < 1
                and 0 < c < math.inf):
            return False
    return True


def _schedule_problems(lam, gam, delta, cs) -> list:
    problems = []
    for name, arr in (("lambda", lam), ("gamma", gam), ("delta", delta)):
        bad = np.nonzero((arr <= 0) | (arr >= 1))[0]
        if bad.size:
            n = int(bad[0])
            problems.append(
                f"{name} out of (0, 1) at n={n}: {float(arr[n])!r}")
    # written so that NaN fails it, as in iteration.run
    bad = np.nonzero(~((0 < cs) & (cs < np.inf)))[0]
    if bad.size:
        n = int(bad[0])
        problems.append(
            f"c not positive and finite at n={n}: {float(cs[n])!r}")
    return problems


@dataclass(frozen=True)
class Moduli:
    """Quantitative hypotheses: rate functions plus numeric envelopes.

    a bounds gamma_n away from 0 and 1 (1/a <= gamma_n <= 1 - 1/a), c is the
    reciprocal floor for c_n (c_n >= 1/c), Cmaj majorizes the running maximum
    of c_n, and N1 >= |u|, N2 >= error mass + 1, N3 >= max(|u - s|, |z0 - s|).
    constant_c states that c_n is constant; parse_config derives it from the
    config's c family.
    """

    a: int
    c: int
    Cmaj: CountFn
    ell: CountFn
    Ldiv: CountFn
    Gamma: CountFn
    E: CountFn
    N1: int
    N2: int
    N3: int
    constant_c: bool = False

    def __post_init__(self):
        # a = 1 makes the gamma band empty, which any schedule check will
        # flag, but the bound formulas remain well defined and are exercised
        # on such degenerate moduli by the evaluator cross-checks.
        if self.a < 1:
            raise ValueError("a must be a positive integer")
        if self.c < 1:
            raise ValueError("c must be a positive integer")
        for name in ("N1", "N2", "N3"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class BoundContext:
    """Constants derived from the moduli, shared by the bound calculus."""

    N0: int
    N: int
    M1: int
    M2: int
    D: int
    G: CountFn


def derive_constants(moduli: Moduli) -> BoundContext:
    n0 = moduli.N2 + moduli.N3
    n = max(2 * moduli.N3, moduli.N2 + moduli.N3)
    m1 = 3 * moduli.N2 + 4 * n
    m2 = m1 + 2 * (moduli.N3 + n)
    d = 4 * n * n
    g = Composed(moduli.E, Affine(m2, m2))
    return BoundContext(N0=n0, N=n, M1=m1, M2=m2, D=d, G=g)


@dataclass
class ModuliReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _as_floats(values: list) -> np.ndarray:
    """The integers as floats, each rounded as float(v) rounds it; those
    past the float range become the largest float, which still majorizes
    every finite float."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.array([min(v, _FLOAT_MAX) for v in values], dtype=float)


def validate_moduli(schedule: Schedule, moduli: Moduli, horizon: int,
                    budget: Optional[Budget] = None,
                    k_cap: Optional[int] = None,
                    snapshot: Optional[tuple] = None) -> ModuliReport:
    """Check the quantitative hypotheses against the schedule up to the
    horizon.  k ranges over [0, k_cap] (default: the horizon); hypotheses
    whose relevant index lies beyond the horizon are vacuous at that k.
    `snapshot` is schedule.snapshot(horizon), when the caller has it.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if k_cap is None:
        k_cap = horizon
    if snapshot is None:
        snapshot = schedule.snapshot(horizon)
    lam, gam, delta, cs, errs = snapshot
    violations = _schedule_problems(lam, gam, delta, cs)

    # suffix maxima make each rate check O(1) per k
    lam_sufmax = np.maximum.accumulate(lam[::-1])[::-1]
    lam_cumsum = np.cumsum(lam)  # lam_cumsum[i] = sum of lam_0..lam_i
    cdiff = np.abs(np.diff(cs))
    cdiff_sufmax = (np.maximum.accumulate(cdiff[::-1])[::-1]
                    if cdiff.size else np.zeros(0))
    enorms = (np.linalg.norm(errs, axis=1) if errs.size else np.zeros(0))
    ecumsum = np.cumsum(enorms)

    for k, lk in enumerate(evaluate_prefix(moduli.ell, k_cap + 1, budget)):
        if lk <= horizon and lam_sufmax[lk] > 1.0 / (k + 1) + SLACK:
            n = lk + int(np.argmax(lam[lk:] > 1.0 / (k + 1) + SLACK))
            violations.append(
                f"lambda rate fails at k={k}: "
                f"lambda_{n}={float(lam[n])!r} > 1/{k + 1}")
            break

    for k, Lk in enumerate(evaluate_prefix(moduli.Ldiv, k_cap + 1, budget)):
        if Lk > horizon:
            break
        total = float(lam_cumsum[Lk] - lam_cumsum[0]) if Lk >= 1 else 0.0
        if total < k - SLACK:
            violations.append(
                f"divergence rate fails at k={k}: sum of lambda_1..lambda_{Lk} "
                f"= {total!r} < {k}")
            break

    lo, hi = 1.0 / moduli.a, 1.0 - 1.0 / moduli.a
    bad = np.nonzero((gam < lo - SLACK) | (gam > hi + SLACK))[0]
    if bad.size:
        n = int(bad[0])
        violations.append(
            f"gamma leaves [1/{moduli.a}, 1 - 1/{moduli.a}] "
            f"at n={n}: {float(gam[n])!r}")

    bad = np.nonzero(cs < 1.0 / moduli.c - SLACK)[0]
    if bad.size:
        n = int(bad[0])
        violations.append(
            f"c_n below 1/{moduli.c} at n={n}: {float(cs[n])!r}")

    c_runmax = np.maximum.accumulate(cs)
    cmaj = evaluate_prefix(moduli.Cmaj, horizon + 1, budget)
    bad = np.nonzero(_as_floats(cmaj) + SLACK < c_runmax[:len(cmaj)])[0]
    if bad.size:
        n = int(bad[0])
        violations.append(
            f"Cmaj fails at n={n}: {cmaj[n]} "
            f"< running max {float(c_runmax[n])!r}")

    changed = np.nonzero(cs != cs[0])[0]
    if moduli.constant_c and changed.size:
        n = int(changed[0])
        violations.append(
            f"c_n not constant at n={n}: {float(cs[n])!r} != {float(cs[0])!r}")

    for k, gk in enumerate(evaluate_prefix(moduli.Gamma, k_cap + 1, budget)):
        if gk < cdiff_sufmax.size and cdiff_sufmax[gk] > 1.0 / (k + 1) + SLACK:
            violations.append(
                f"c-step rate fails at k={k}: |c_(n+1) - c_n| exceeds 1/{k + 1} "
                f"at some n >= {gk}")
            break

    for k, ek in enumerate(evaluate_prefix(moduli.E, k_cap + 1, budget)):
        if ek >= ecumsum.size:
            break
        tail = float(ecumsum[-1] - ecumsum[ek])
        if tail > 1.0 / (k + 1) + SLACK:
            violations.append(
                f"error tail rate fails at k={k}: sum past index {ek} is {tail!r}")
            break

    return ModuliReport(violations=violations)


def validate_anchors(moduli: Moduli, schedule: Schedule, u, z0, s,
                     budget: Optional[Budget] = None) -> list:
    """The numeric envelopes N1, N2, N3 against the concrete experiment."""
    u, z0, s = (as_point(p).tolist() for p in (u, z0, s))
    problems = []
    past = excess(*sq_dist(u, [0.0] * len(u)), moduli.N1)
    if past is not None:
        problems.append(f"N1={moduli.N1} < |u|={moduli.N1 + past!r}")
    e0 = evaluate(moduli.E, 0, budget)
    if e0.is_exact:
        mass = float(np.sum(schedule.error.norms(e0.value + 1)))
        if moduli.N2 + SLACK < mass + 1.0:
            problems.append(f"N2={moduli.N2} < error mass {mass!r} + 1")
    else:
        problems.append("E(0) exceeded the evaluation budget")
    past = [excess(*sq_dist(p, s), moduli.N3) for p in (u, z0)]
    if past != [None, None]:
        need = moduli.N3 + max(x for x in past if x is not None)
        problems.append(f"N3={moduli.N3} < max(|u-s|, |z0-s|)={need!r}")
    return problems
