"""Monotone counting functions over exact integers, with budgeted evaluation.

Everything in this module is float-free.  Values are arbitrary-precision
Python ints, and the only non-integer arithmetic (deciding where a power of
e falls relative to an integer) runs on directed-rounded rational enclosures
whose precision doubles until the comparison is decided.

Evaluation is metered by a Budget: a magnitude cap (values above
2**magnitude_bits abort) and a call-count cap.  Hitting either limit is a
designed outcome, reported as a BoundValue marker rather than an exception,
so that callers can distinguish "the bound is this number" from "the bound
exists but is astronomically large".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

DEFAULT_MAGNITUDE_BITS = 4096
DEFAULT_MAX_CALLS = 10_000_000

# Stage a marker names when no named formula is active.
_TOP_STAGE = "eval"

_NATURAL_ONLY = "counting functions take natural arguments"


@dataclass(frozen=True)
class Budget:
    """Evaluation limits: values capped at 2**magnitude_bits, plus a call cap."""

    magnitude_bits: int = DEFAULT_MAGNITUDE_BITS
    max_calls: int = DEFAULT_MAX_CALLS


class BudgetExceededError(Exception):
    """Internal signal that an evaluation ran over its budget.

    Carries the name of the innermost named formula that was active when the
    overflow happened.  Public entry points catch this and return a
    BoundValue marker; user code should never see the exception itself.
    """

    def __init__(self, stage: str):
        super().__init__(f"budget exceeded in {stage}")
        self.stage = stage


class EvalState:
    """Mutable per-evaluation budget bookkeeping.  Never shared between
    top-level evaluations; budget soundness depends on that."""

    __slots__ = ("magnitude_bits", "_cap", "max_calls", "calls", "stage")

    def __init__(self, budget: Optional[Budget] = None):
        if budget is None:
            budget = Budget()
        self.magnitude_bits = budget.magnitude_bits
        self._cap = 1 << budget.magnitude_bits
        self.max_calls = budget.max_calls
        self.calls = 0
        self.stage = _TOP_STAGE

    def tick(self, n: int = 1) -> None:
        self.calls += n
        if self.calls > self.max_calls:
            raise BudgetExceededError(self.stage)

    def remaining(self) -> int:
        return self.max_calls - self.calls

    def require(self, n: int) -> None:
        """Abort now if the next n ticks cannot all fit.

        Used before loops whose length is known up front: the literal loop
        would consume at least one tick per step, so running it when n
        exceeds the remaining allowance can only end in the same marker.
        """
        if n > self.remaining():
            raise BudgetExceededError(self.stage)

    def check(self, value: int) -> int:
        if value > self._cap or -value > self._cap:
            raise BudgetExceededError(self.stage)
        return value

    def checked_pow(self, base: int, exp: int) -> int:
        """base**exp under the magnitude cap, refusing to materialize powers
        that are provably over the cap."""
        if exp < 0:
            raise ValueError("negative exponent")
        if base in (0, 1) or exp == 0:
            return base ** exp
        if exp > self.magnitude_bits:
            # base >= 2, so base**exp >= 2**exp > cap
            raise BudgetExceededError(self.stage)
        return self.check(base ** exp)


class _Stage:
    """Set the active formula name for budget markers, restoring on exit."""

    __slots__ = ("state", "name", "saved")

    def __init__(self, state: EvalState, name: str):
        self.state = state
        self.name = name

    def __enter__(self):
        self.saved = self.state.stage
        self.state.stage = self.name
        return self.state

    def __exit__(self, *exc):
        self.state.stage = self.saved
        return False


def _natural(value: int) -> int:
    """The value of a top-level evaluation, checked to be a natural number."""
    if value < 0:
        raise ValueError(f"bound values are natural numbers, got {value}")
    return value


@dataclass(frozen=True)
class BoundValue:
    """Outcome of a budgeted evaluation: an exact natural number, or a
    marker naming the stage where the budget ran out."""

    value: Optional[int] = None
    stage: Optional[str] = None

    def __post_init__(self):
        if (self.value is None) == (self.stage is None):
            raise ValueError("BoundValue is either exact or exceeded, not both")
        if self.value is not None:
            _natural(self.value)

    @classmethod
    def exact(cls, value: int) -> "BoundValue":
        return cls(value=value)

    @classmethod
    def exceeded(cls, stage: str) -> "BoundValue":
        return cls(stage=stage)

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def render(self) -> str:
        """CSV form: the number, or BUDGET_EXCEEDED(stage)."""
        if self.is_exact:
            return str(self.value)
        return f"BUDGET_EXCEEDED({self.stage})"

    def __str__(self) -> str:
        return self.render()


class CountFn:
    """A monotone function from naturals to naturals.

    Monotonicity is enforced by the representations themselves (tables store
    running maxima, affine coefficients are nonnegative, compositions of
    monotone functions are monotone), so majorization is a no-op on any
    value of this type.
    """

    def __call__(self, n: int, state: EvalState) -> int:
        state.tick()
        return state.check(self._eval(n, state))

    def _eval(self, n: int, state: EvalState) -> int:
        raise NotImplementedError

    def affine_form(self) -> Optional[tuple]:
        """(slope, offset, ticks) when the function is n -> slope*n + offset,
        each call charges ticks ticks, every magnitude check on the way is
        at most the value, and no call enters a stage of its own; else
        None."""
        return None


@dataclass(frozen=True)
class Const(CountFn):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("constant must be a natural number")

    def _eval(self, n, state):
        return self.value

    def affine_form(self):
        return 0, self.value, 1


@dataclass(frozen=True)
class Identity(CountFn):
    def _eval(self, n, state):
        return n

    def affine_form(self):
        return 1, 0, 1


@dataclass(frozen=True)
class Affine(CountFn):
    """n -> slope*n + offset with nonnegative integer coefficients."""

    slope: int
    offset: int

    def __post_init__(self):
        if self.slope < 0 or self.offset < 0:
            raise ValueError("affine coefficients must be nonnegative")

    def _eval(self, n, state):
        return self.slope * n + self.offset

    def affine_form(self):
        return self.slope, self.offset, 1


@dataclass(frozen=True)
class Table(CountFn):
    """Finite table extended by its final value.

    The stored values are the running maxima of the constructor argument, so
    every Table is monotone by construction.
    """

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("table must be nonempty")
        normalized = []
        best = 0
        for v in self.values:
            if not isinstance(v, int) or v < 0:
                raise ValueError("table entries must be natural numbers")
            best = max(best, v)
            normalized.append(best)
        object.__setattr__(self, "values", tuple(normalized))

    def _eval(self, n, state):
        if n >= len(self.values):
            return self.values[-1]
        if n < 0:
            raise ValueError(_NATURAL_ONLY)
        return self.values[n]


@dataclass(frozen=True)
class Composed(CountFn):
    outer: CountFn
    inner: CountFn

    def _eval(self, n, state):
        return self.outer(self.inner(n, state), state)


@dataclass(frozen=True)
class ExpCeil(CountFn):
    """n -> ceil(scale * e**n), decided exactly by rational enclosures.

    scale * e**n is irrational for n >= 1, so the enclosure loop always
    terminates; n = 0 is the integer boundary and is handled directly.
    """

    scale: int

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")

    def _eval(self, n, state):
        if n < 0:
            raise ValueError(_NATURAL_ONLY)
        if n == 0:
            return self.scale
        # ln 2 < 0.6932, so e**n > 2**magnitude_bits past this n: refuse
        # values provably over the magnitude cap
        if 10000 * n > 6932 * state.magnitude_bits:
            raise BudgetExceededError(state.stage)
        prec = 256
        while True:
            lo, hi = _exp_enclosure(n, prec)
            lo *= self.scale
            hi *= self.scale
            c_lo = -((-lo) >> prec) if lo % (1 << prec) else lo >> prec
            c_hi = -((-hi) >> prec) if hi % (1 << prec) else hi >> prec
            if c_lo == c_hi:
                return c_lo
            prec *= 2


@dataclass(frozen=True)
class Shift(CountFn):
    """n -> offset + f(max(floor, n)): f raised by a natural offset and
    held at its value at floor below floor."""

    f: CountFn
    offset: int
    floor: int = 0

    def __post_init__(self):
        if self.offset < 0 or self.floor < 0:
            raise ValueError("shift offset and floor must be natural numbers")

    def _eval(self, n, state):
        return self.offset + self.f(max(self.floor, n), state)

    def affine_form(self):
        form = self.f.affine_form()
        if form is None or form[0]:
            return None
        _, value, ticks = form
        return 0, self.offset + value, ticks + 1


@dataclass(frozen=True, eq=False)
class Closure(CountFn):
    """Named formula with captured parameters.  Equality is identity; these
    never round-trip through the config grammar."""

    name: str
    fn: Callable[[int, EvalState], int]

    def _eval(self, n, state):
        return self.fn(n, state)


def evaluate(f: CountFn, n: int, budget: Optional[Budget] = None) -> BoundValue:
    """Evaluate f at n under a fresh budget, reporting overflow as a marker."""
    if n < 0:
        raise ValueError(_NATURAL_ONLY)
    state = EvalState(budget)
    try:
        return BoundValue.exact(f(n, state))
    except BudgetExceededError as exc:
        return BoundValue.exceeded(exc.stage)


def _affine_values(f: CountFn, budget: Budget) -> Optional[Iterable[int]]:
    """The values evaluate_each yields for f before its first marker, when
    f has an affine form: an endless repeat for slope 0, else a range.
    None when f has no affine form."""
    form = f.affine_form()
    if form is None:
        return None
    slope, offset, ticks = form
    cap = 1 << budget.magnitude_bits
    # the call's ticks, then the magnitude check of the value
    if budget.max_calls < ticks or offset > cap:
        return ()
    if slope == 0:
        return itertools.repeat(offset)
    return range(offset, cap + 1, slope)


def evaluate_each(f: CountFn, budget: Optional[Budget] = None) -> Iterator[int]:
    """Yield f(0), f(1), ... as evaluate(f, n, budget) gives them, each
    value under a fresh budget.

    Where that per-n loop first returns a marker, the generator raises
    BudgetExceededError with the marker's stage and ends.  Functions with
    an affine form yield in O(1) per value; every other CountFn runs the
    literal loop one value per request, so a consumer that stops early
    evaluates nothing further.
    """
    if budget is None:
        budget = Budget()
    values = _affine_values(f, budget)
    if values is None:
        for n in itertools.count():
            yield _natural(f(n, EvalState(budget)))
    yield from values
    raise BudgetExceededError(_TOP_STAGE)


def evaluate_prefix(f: CountFn, count: int,
                    budget: Optional[Budget] = None) -> list:
    """f(0), ..., f(count - 1) as evaluate_each gives them, cut before the
    first budget marker.  An affine form is read in bulk, without the
    generator."""
    if budget is None:
        budget = Budget()
    values = _affine_values(f, budget)
    if values is not None:
        return list(itertools.islice(values, count))
    vals = []
    try:
        vals.extend(itertools.islice(evaluate_each(f, budget), count))
    except BudgetExceededError:
        pass
    return vals


def strongly_majorizes(g: CountFn, f: CountFn, upto: int = 50,
                       budget: Optional[Budget] = None) -> bool:
    """Check g <=* f pointwise on [0, upto]: f dominates g and f is
    self-majorizing on that range.  A finite probe, not a proof."""
    gs = evaluate_prefix(g, upto + 1, budget)
    fs = evaluate_prefix(f, upto + 1, budget)
    return len(gs) == len(fs) == upto + 1 \
        and all(gv <= fv for gv, fv in zip(gs, fs)) \
        and all(a <= b for a, b in zip(fs, fs[1:]))


# --- exact comparisons against powers of e ---------------------------------

_FACTORIALS_CACHE: dict = {}


def _e_scaled(prec: int) -> tuple:
    """Integers (lo, hi) with lo/2**prec < e < hi/2**prec."""
    cached = _FACTORIALS_CACHE.get(prec)
    if cached is not None:
        return cached
    # partial sums of sum 1/k!: S_K < e < S_K + 2/(K+1)!
    terms = 2
    while math.factorial(terms + 1) < (1 << (prec + 2)):
        terms += 1
    num = 0
    den = math.factorial(terms)
    for k in range(terms + 1):
        num += den // math.factorial(k)
    lo = (num << prec) // den
    tail_num = num * (terms + 1) + 2
    tail_den = den * (terms + 1)
    hi = -((-(tail_num << prec)) // tail_den)
    _FACTORIALS_CACHE[prec] = (lo, hi)
    return lo, hi


def _exp_enclosure(n: int, prec: int) -> tuple:
    """Integers (lo, hi) with lo/2**prec <= e**n <= hi/2**prec, n >= 1.

    Binary exponentiation with directed rounding: lower bounds round down,
    upper bounds round up, so direction is preserved at every step.
    """
    e_lo, e_hi = _e_scaled(prec)
    lo, hi = 1 << prec, 1 << prec
    base_lo, base_hi = e_lo, e_hi
    k = n
    while k:
        if k & 1:
            lo = (lo * base_lo) >> prec
            hi = -((-(hi * base_hi)) >> prec)
        k >>= 1
        if k:
            base_lo = (base_lo * base_lo) >> prec
            base_hi = -((-(base_hi * base_hi)) >> prec)
    return lo, hi


def ceil_ln(x: int) -> int:
    """Least m >= 0 with e**m >= x, decided exactly.

    Powers of e are irrational for m >= 1, so for x >= 2 the comparison
    e**m >= x is strict one way or the other and the precision-doubling
    loop terminates.
    """
    if x < 1:
        raise ValueError("ceil_ln requires x >= 1")
    if x == 1:
        return 0
    prec = 256
    while True:
        e_lo, e_hi = _e_scaled(prec)
        lo = hi = 1 << prec
        target = x << prec
        undecided = False
        m = 0
        while True:
            m += 1
            lo = (lo * e_lo) >> prec
            hi = -((-(hi * e_hi)) >> prec)
            if lo >= target:
                return m
            if hi < target:
                continue
            undecided = True
            break
        if undecided:
            prec *= 2
