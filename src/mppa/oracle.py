"""Brute-force verification of the combinatorial lemmas behind the bound
calculus, on concrete finite sequences.

Every lemma asserts a witness below an explicit bound.  The oracle searches
exhaustively, checks premises before trusting any instance, and keeps every
rational comparison exact by comparing integer numerators over a common
denominator: `qtXu1_check` puts s, v, r and gamma over one denominator and
lam over its own, and its integer core `_xu_check` cross-multiplies each
cap, transition and tolerance; the xu suite builds its instances as those
integers and calls the core directly.  A `BoundedSeq` keeps its values as
numerators over one common denominator, and the ratap and limsup2 witnesses
take the least cell in closed form from the window's largest numerator;
their suites build each sequence straight from numerators over lcm(1..9).
Every suite draws its integers through `_below`, which is `randrange`'s own
rule on `getrandbits`, so the instances are the ones `randrange` and
`choice` draw.  Doubles appear only in synthetic vector pairs of finite
points: they are read only as arrays of rows, gaps and surpluses, computed
in bulk by `operators.row_norm`, which equals np.linalg.norm row by row, and
every comparison of them is guarded by a 1e-9 slack.  A pair stops stepping
z once z is stationary bit for bit past the explicit prefixes of w and
alpha, and repeats that row.  A counterfunction read over a range of indices
is read through `countfn.evaluate_each`, which gives the per-index values
and first marker of `evaluate`.  Sequences extend beyond their explicit
prefix by repeating the final value, which keeps every window well defined
while staying a legitimate instance of the lemmas.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Optional

from .bounds import chi_tilde, r_const, sigma, theta, varphi_suzuki1
from .countfn import (DEFAULT_MAGNITUDE_BITS, DEFAULT_MAX_CALLS, Affine,
                      BudgetExceededError, Const, CountFn, Identity, ceil_ln,
                      evaluate, evaluate_each)
from .operators import SLACK, as_point, np, row_norm

PREMISE_TOL = Fraction(1, 10 ** 12)
CONCLUSION_TOL = Fraction(1, 10 ** 9)

# Rows a SyntheticPair caches at first use; the cache doubles from there.
_MIN_ROWS = 64

# How far suzuki2_index searches when its bound chi_tilde is not exact.
_SUZUKI2_HORIZON = 4096


def _exact(bound_value) -> int:
    if not bound_value.is_exact:
        raise BudgetExceededError(bound_value.stage)
    return bound_value.value


def _value_at(f: CountFn, n: int) -> int:
    """f(n), as _exact(evaluate(f, n)) gives it.  Within the default caps,
    by the rule of countfn's evaluate_each (the call's ticks, then the
    value's magnitude), an affine form gives it with no EvalState."""
    form = f.affine_form() if n >= 0 else None
    if form is not None:
        slope, offset, ticks = form
        value = slope * n + offset
        if ticks <= DEFAULT_MAX_CALLS and value <= 1 << DEFAULT_MAGNITUDE_BITS:
            return value
    return _exact(evaluate(f, n))


def _bits(row: list) -> bytes:
    """The bits of a row of floats."""
    return np.array(row).tobytes()


def _over(den: int, seq: tuple) -> list:
    """The numerators of seq over den, a multiple of every denominator."""
    return [x.numerator * (den // x.denominator) for x in seq]


def _top(seq, lo: int, hi: int):
    """The largest entry at [lo, hi], 0 <= lo <= hi, of seq extended by
    repeating its last entry."""
    return max(seq[min(lo, len(seq) - 1):hi + 1])


def _padded(seq, size: int) -> list:
    """The first size entries of seq extended by repeating its last one."""
    return list(seq[:size]) + [seq[-1]] * (size - len(seq))


# --- domain types ---------------------------------------------------------------


def _natural(bound) -> int:
    """bound as an int, when it is a natural number."""
    if bound != int(bound) or bound < 0:
        raise ValueError("bound must be a natural number")
    return int(bound)


class BoundedSeq:
    """Finite rational sequence in [0, N], repeating its last value.

    Kept as integer numerators `nums` over one positive common denominator
    `den`, which the witnesses read; `values`, `at` and `window` give the
    values as Fractions.
    """

    __slots__ = ("nums", "den", "bound")

    def __init__(self, values, bound):
        bound = _natural(bound)
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v)
                     for v in values)
        if not vals:
            raise ValueError("at least one value is required")
        for i, v in enumerate(vals):
            if v.numerator < 0 or v.numerator > bound * v.denominator:
                raise ValueError(f"value out of [0, N] at index {i}: {v}")
        den = math.lcm(*(v.denominator for v in vals))
        self._set(tuple(_over(den, vals)), den, bound)

    @classmethod
    def _from_numerators(cls, nums: tuple, den: int,
                         bound: int) -> "BoundedSeq":
        """The sequence nums[i] / den, for numerators the caller has kept
        in [0, bound * den]."""
        seq = object.__new__(cls)
        seq._set(nums, den, bound)
        return seq

    def _set(self, nums: tuple, den: int, bound: int) -> None:
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("BoundedSeq is immutable")

    @property
    def values(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __repr__(self) -> str:
        return f"BoundedSeq(values={self.values!r}, bound={self.bound!r})"

    def __eq__(self, other):
        if not isinstance(other, BoundedSeq):
            return NotImplemented
        return (self.values, self.bound) == (other.values, other.bound)

    def __hash__(self):
        return hash((self.values, self.bound))

    def at(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be a natural number")
        return Fraction(self.nums[min(n, len(self.nums) - 1)], self.den)

    def window(self, lo: int, hi: int) -> tuple:
        """Values on [lo, hi] up to repetition of the tail."""
        if lo < 0:
            raise ValueError("index must be a natural number")
        if hi < lo:
            return ()
        last = len(self.nums) - 1
        nums = self.nums[min(lo, last):min(hi, last) + 1]
        return tuple(Fraction(x, self.den) for x in nums)


class SyntheticPair:
    """Pair (z, w) coupled by z_(n+1) = alpha_n w_n + (1 - alpha_n) z_n.

    w and alpha repeat their final entries; z is generated, never free, so
    the coupling holds exactly in double precision by construction.  z0 and
    the w points must be finite, and alpha must lie in [1/a, 1 - 1/a].  z is
    stepped on a row of Python floats, coordinate by coordinate, as
    alpha * w_i + (1 - alpha) * z_i: the operation order of that expression
    on arrays, so every z_n has the same bits.  The rows of z and w, the
    gaps and the surpluses are cached in arrays of at least _MIN_ROWS rows,
    at least doubled whenever a read passes their end.

    Past the last explicit entry of both w and alpha every step applies the
    same map.  So once a step there returns its input bit for bit (0.0 and
    -0.0 count as different), z is stationary from that index: the rest of
    every cache is that row, and no later doubling steps again.  A pair
    that never settles is stepped to the end of every cache.
    """

    def __init__(self, z0, w, alpha, a: int):
        if a < 1:
            raise ValueError("a must be a positive integer")
        self.a = int(a)
        z0 = as_point(z0)
        self._w_rows = [as_point(p).tolist() for p in w]
        if not self._w_rows:
            raise ValueError("w must contain at least one point")
        if any(len(p) != z0.size for p in self._w_rows):
            raise ValueError("w entries must match the dimension of z0")
        self._w_points = np.array(self._w_rows)
        self.alpha = tuple(float(x) for x in alpha)
        if not self.alpha:
            raise ValueError("alpha must contain at least one value")
        lo, hi = 1.0 / self.a, 1.0 - 1.0 / self.a
        for i, x in enumerate(self.alpha):
            # written so that NaN fails it
            if not lo - 1e-12 <= x <= hi + 1e-12:
                raise ValueError(
                    f"alpha out of [1/a, 1-1/a] at index {i}: {x!r}")
        # the arrays hold indices 0..stop (the surpluses 0..stop-1), and
        # z_stop is kept as Python floats to step on from; z_n = z_fixed
        # for every n >= fixed once the stationary index is known
        self._stop = 0
        self._fixed = None
        self._z = np.empty((0, z0.size))
        self._z_last = z0.tolist()
        self._cover(0)

    def _cover(self, n: int) -> None:
        """Grow the cached arrays until they hold index n."""
        if n < self._stop:
            return
        stop = max(_MIN_ROWS, 2 * self._stop, n + 1)
        last_w, last_a = len(self._w_rows) - 1, len(self.alpha) - 1
        w = self._w_points[np.minimum(np.arange(stop + 1), last_w)]
        rows = [self._z_last]
        if self._fixed is None:
            same_map = max(last_w, last_a)
            for m in range(self._stop, stop):
                al = self.alpha[min(m, last_a)]
                bl = 1.0 - al
                prev = rows[-1]
                row = [al * wi + bl * zi for wi, zi
                       in zip(self._w_rows[min(m, last_w)], prev)]
                # == first: it is cheap, and the bits differ only on a
                # signed zero when the values agree
                if m >= same_map and row == prev and _bits(row) == _bits(prev):
                    self._fixed = m
                    break
                rows.append(row)
        z = np.empty((stop + 1, w.shape[1]))
        z[:self._stop] = self._z[:self._stop]
        z[self._stop:self._stop + len(rows)] = rows
        z[self._stop + len(rows):] = rows[-1]
        self._z, self._w, self._z_last, self._stop = z, w, rows[-1], stop
        self._gaps = row_norm(w - z)
        self._surpluses = row_norm(w[1:] - w[:-1]) - row_norm(z[1:] - z[:-1])

    def alpha_at(self, n: int) -> float:
        return self.alpha[min(n, len(self.alpha) - 1)]

    def gaps(self, stop: int) -> np.ndarray:
        """The gaps |w_n - z_n| at n < stop."""
        self._cover(stop - 1)
        return self._gaps[:stop]

    def surpluses(self, stop: int) -> np.ndarray:
        """The almost-decrease surpluses |w_(n+1) - w_n| - |z_(n+1) - z_n|
        at n < stop."""
        self._cover(stop - 1)
        return self._surpluses[:stop]

    def rows(self, stop: int) -> tuple:
        """z_n and w_n at n < stop, one row each."""
        self._cover(stop - 1)
        return self._z[:stop], self._w[:stop]


# --- rational approximation of the limsup ----------------------------------------


def _least_cell(top: int, den: int, k: int) -> int:
    """Least p >= 0 with top/den <= (p+1)/(k+1), den > 0:
    p = max(0, ceil(top (k+1) / den) - 1).

    Every cell condition of the limsup lemmas reads a window only through
    its maximum top/den: the window stays below the upper edge (p+1)/(k+1)
    exactly when p is at least this, and then p/(k+1) <= top/den as well."""
    return max(0, -(-top * (k + 1) // den) - 1)


def ratap_witness(xs: BoundedSeq, k: int, n: int, f: CountFn) -> Optional[int]:
    """Least p < N(k+1) whose cell [p/(k+1), (p+1)/(k+1)] is entered on the
    window [n, n+f(n)] while no window value exceeds its upper edge."""
    if k < 0:
        raise ValueError("k must be a natural number")
    top = _top(xs.nums, n, n + _value_at(f, n))
    p = _least_cell(top, xs.den, k)
    return p if p < xs.bound * (k + 1) else None


def rationalapprox2_witness(xs: BoundedSeq, k: int, m_start: int, t: int,
                            f: CountFn) -> Optional[tuple]:
    """Least lexicographic (m, p), m in [M, theta], p < N(k+1), with
    x_(m+t) >= p/(k+1) and all of [m, m+f(m)] at most (p+1)/(k+1).
    Returned as (p, m)."""
    if t < 1:
        raise ValueError("t must be at least 1")
    cap = _exact(theta(k, m_start, t, xs.bound, f))
    cells = xs.bound * (k + 1)
    nums, den = xs.nums, xs.den
    last = len(nums) - 1
    fs = islice(evaluate_each(f), m_start, cap + 1)
    for m, fm in zip(range(m_start, cap + 1), fs):
        probe = nums[min(m + t, last)]
        # the least cell above the window; x_(m+t) >= p/(k+1) only gets
        # harder as p grows, so no later cell can pass where it fails
        p = _least_cell(_top(nums, m, m + fm), den, k)
        if p < cells and probe * (k + 1) >= p * den:
            return p, m
    return None


# --- quantitative recurrence lemma ------------------------------------------------


def _fractions(name: str, seq) -> tuple:
    vals = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in seq)
    if not vals:
        raise ValueError(f"{name}: at least one value is required")
    return vals


def qtXu1_check(s, v, r, gamma, lam, ldiv: CountFn, d: int, k: int, n: int,
                p: int) -> Optional[bool]:
    """Check the damped-recurrence conclusion on a finite instance.

    Premises are verified first on the finite region the conclusion
    consumes (transitions and error mass up to index p, the divergence rate
    up to the level sigma uses); any failure returns None (indeterminate)
    so a broken instance can never produce a false positive.  On verified
    premises returns whether s_m <= 1/(k+1) for every m in [sigma(k,n), p].

    The values are read exactly, as Fraction(x) reads them.  s, v, r and
    gamma become numerators over one common denominator, lam over its own,
    and `_xu_check` decides the instance on those integers.
    """
    s, v, r, gamma, lam = (_fractions(name, seq) for name, seq in (
        ("s", s), ("v", v), ("r", r), ("gamma", gamma), ("lam", lam)))
    den = math.lcm(*(x.denominator for seq in (s, v, r, gamma) for x in seq))
    lden = math.lcm(*(x.denominator for x in lam))
    return _xu_check(*(_over(den, seq) for seq in (s, v, r, gamma)), den,
                     _over(lden, lam), lden, ldiv, d, k, n, p)


def _xu_check(sn: list, vn: list, rn: list, gn: list, den: int, lamn: list,
              lden: int, ldiv: CountFn, d: int, k: int, n: int,
              p: int) -> Optional[bool]:
    """qtXu1_check on integers: s_m = sn[m] / den, and likewise v, r and
    gamma; lam_m = lamn[m] / lden.  Both denominators are positive and no
    list is empty.  Every inequality, with its tolerance, is multiplied
    out."""
    if d < 1 or k < 0 or n < 0 or p < 0:
        return None
    if min(sn) < 0 or max(sn) > d * den:
        return None
    if min(lamn) <= 0 or max(lamn) >= lden:
        return None
    if min(gn) < 0:
        return None

    # The quarter-cell caps, with q = 4(k+1) and T = 1/PREMISE_TOL: each
    # v_m at most 1/(q (p+1)) + 1/T, each r_m and the gamma mass at most
    # 1/q + 1/T, multiplied by den q (p+1) T and by den q T.
    q, tol = 4 * (k + 1), PREMISE_TOL.denominator
    r_cap = (tol + q) * den
    if p >= n:
        if _top(vn, n, p) * q * (p + 1) * tol > (tol + q * (p + 1)) * den:
            return None
        if _top(rn, n, p) * q * tol > r_cap:
            return None
    g_sum = sum(gn[n:p + 1]) + max(0, p + 1 - max(n, len(gn))) * gn[-1]
    if g_sum * q * tol > r_cap:
        return None

    # s_(m+1) at most (1 - a/b)(s_m + v_m) + (a/b) r_m + gamma_m + 1/T,
    # with a = lamn[m] and b = lden, multiplied by den b T.  Past every
    # explicit prefix each m repeats the check at the last one, so the
    # loop stops there, on lists padded to its length.
    b = lden
    stop = min(p, max(map(len, (sn, vn, rn, gn, lamn))) - 1) + 1
    sp, vp, rp, gp, lp = (_padded(seq, stop + 1)
                          for seq in (sn, vn, rn, gn, lamn))
    bt, bd = b * tol, b * den
    for s0, s1, vm, rm, gm, a in zip(sp, sp[1:], vp, rp, gp, lp):
        if s1 * bt > ((b - a) * (s0 + vm) + a * rm + b * gm) * tol + bd:
            return None

    # Divergence rate, probed up to the level sigma actually consumes:
    # sums[j] is lam_1 + ... + lam_j over lden; past the end of lam each
    # level adds the last value once more.
    sums = list(accumulate(lamn[1:], initial=0))
    probe_hi = n + ceil_ln(4 * d * (k + 1))
    for kk, lk in zip(range(probe_hi + 1), evaluate_each(ldiv)):
        total = sums[lk] if lk < len(sums) else \
            sums[-1] + (lk - len(sums) + 1) * lamn[-1]
        if total * tol < (kk * tol - 1) * lden:
            return None

    start = _exact(sigma(k, n, ldiv, d))
    if start > p:
        return True
    # s_m at most 1/(k+1) + 1/C, C = 1/CONCLUSION_TOL, times den (k+1) C
    ctol = CONCLUSION_TOL.denominator
    return _top(sn, start, p) * (k + 1) * ctol <= (ctol + k + 1) * den


# --- quantitative Suzuki lemmas ------------------------------------------------------


def _first(bad: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def _check_gap_bound(pair: SyntheticPair, n_gap: int, horizon: int) -> None:
    """The gap bound N at every n in [0, horizon]."""
    n = _first(pair.gaps(horizon + 1) > n_gap + SLACK)
    if n is not None:
        raise ValueError(f"gap exceeds N at n={n}")


def _check_eqnu(pair: SyntheticPair, nu: CountFn, level: int,
                horizon: int) -> None:
    """The almost-decrease premise at one level: for n >= nu(level) the gap
    surplus stays below 1/(level+1), probed at n < horizon."""
    start = _exact(evaluate(nu, level))
    tau = 1.0 / (level + 1)
    m = _first(pair.surpluses(horizon)[start:] > tau + SLACK)
    if m is not None:
        raise ValueError(
            f"nu is not a valid almost-decrease rate: surplus at "
            f"n={start + m} exceeds 1/{level + 1}")


def suzuki1_witness(pair: SyntheticPair, k: int, l: int, t: int,
                    nu: CountFn, n_gap: int, f: CountFn) -> Optional[tuple]:
    """Least (m, p), m in [l, varphi(k, f)], p < R N, realizing the
    three-way sandwich on the companion gap.

    The conclusion depends on the counterfunction f, so f is part of the
    instance here.  Premises (the alpha band, the gap bound N and the
    almost-decrease rate nu at the level the proof consumes) are verified
    up to the search horizon; a fabricated nu raises ValueError.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    cells = _exact(r_const(pair.a, k, t))
    cap = _exact(varphi_suzuki1(k, f, l, t, pair.a, nu, n_gap))
    fs = list(islice(evaluate_each(f), l, cap + 1))
    fmax = max(fs)
    horizon = cap + t + fmax + 2
    _check_gap_bound(pair, n_gap, horizon)
    _check_eqnu(pair, nu, cells - 1, horizon)

    tau = 1.0 / (k + 1)
    gaps = pair.gaps(horizon + 1)
    z, w = pair.rows(horizon + 1)
    probes = row_norm(w[l + t:cap + t + 1] - z[l:cap + 1]).tolist()
    for m, fm in zip(range(l, cap + 1), fs):
        probe = probes[m - l]
        asum = 1.0 + sum(pair.alpha_at(m + i) for i in range(t))
        gap_t = float(gaps[m + t])
        win_max = max(gaps[m:m + t + fm + 1].tolist())
        for p in range(cells * n_gap):
            hi = (p + 1) / cells
            if probe - asum * hi < -tau - SLACK:
                continue
            if gap_t < p / cells - SLACK:
                continue
            if win_max > hi + SLACK:
                continue
            return m, p
    return None


def suzuki2_index(pair: SyntheticPair, k: int, f: CountFn, nu: CountFn,
                  n_ball: int) -> Optional[int]:
    """Least n whose window [n, n+f(n)] keeps the companion gap below
    1/(k+1).

    Searches up to the bound chi_tilde(k, f) when that is exact within
    budget, otherwise up to _SUZUKI2_HORIZON.  Premise checks mirror the
    lemma: norms bounded by N, the alpha band held by construction, and the
    almost-decrease rate probed at the level the proof consumes.
    """
    bound = chi_tilde(k, f, pair.a, nu, n_ball)
    cap = bound.value if bound.is_exact else _SUZUKI2_HORIZON

    t = max(2 * n_ball * pair.a * (k + 1), 1)
    cells = _exact(r_const(pair.a, k, t))
    probe_hi = min(cap, 2000)
    z, w = pair.rows(probe_hi + 1)
    n = _first((row_norm(z) > n_ball + SLACK) | (row_norm(w) > n_ball + SLACK))
    if n is not None:
        raise ValueError(f"iterate norm exceeds N at n={n}")
    _check_eqnu(pair, nu, cells - 1, probe_hi)

    tau = 1.0 / (k + 1)
    for n, fn in zip(range(cap + 1), evaluate_each(f)):
        if (pair.gaps(n + fn + 1)[n:] <= tau + SLACK).all():
            return n
    return None


# --- randomized suites -----------------------------------------------------------


@dataclass
class SuiteResult:
    lemma: str
    trials: int
    passes: int
    first_failure: Optional[str]

    @property
    def failures(self) -> int:
        return self.trials - self.passes

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _below(getrandbits, n: int) -> int:
    """A draw from [0, n), n >= 1, as `random.Random.randrange(n)` makes it:
    k = n.bit_length() bits at a time, drawn again while at least n.

    Python keeps only `random()` and seeding stable across versions, not
    the algorithm of `randrange` or `choice`, so the module applies the
    rule itself: every suite draws the same instances on every version.
    It also skips the argument checks `randrange` makes on every call."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _pick(getrandbits, options: tuple):
    """One of options, as `random.Random.choice` picks it."""
    return options[_below(getrandbits, len(options))]


# lcm(1..9): a numerator over every denominator _random_seq draws
_SEQ_DEN = 2520


def _random_seq(rng: random.Random, n_bound: int) -> BoundedSeq:
    """Up to 12 values m/d in [0, n_bound], d drawn from 1..9, kept as
    numerators over _SEQ_DEN."""
    bits = rng.getrandbits
    nums = []
    for _ in range(1 + _below(bits, 12)):
        den = 1 + _below(bits, 9)
        nums.append(_below(bits, n_bound * den + 1) * (_SEQ_DEN // den))
    return BoundedSeq._from_numerators(tuple(nums), _SEQ_DEN, n_bound)


def _random_counterfn(rng: random.Random, top: int = 3) -> CountFn:
    if rng.random() < 0.25:
        return Identity()
    return Const(_below(rng.getrandbits, top + 1))


# Each _suite_* yields, per trial, None for a pass or the failure text.


def _suite_ratap(rng: random.Random, trials: int):
    bits = rng.getrandbits
    for i in range(trials):
        xs = _random_seq(rng, _pick(bits, (1, 2, 3)))
        k = _below(bits, 5)
        n = _below(bits, 11)
        f = _random_counterfn(rng)
        p = ratap_witness(xs, k, n, f)
        yield None if p is not None and p < xs.bound * (k + 1) else \
            f"trial {i}: no cell for {xs.values} k={k} n={n}"


def _suite_limsup2(rng: random.Random, trials: int):
    bits = rng.getrandbits
    for i in range(trials):
        xs = _random_seq(rng, _pick(bits, (1, 2, 3)))
        k = _below(bits, 4)
        m_start = _below(bits, 6)
        t = 1 + _below(bits, 3)
        f = _random_counterfn(rng, top=2)
        got = rationalapprox2_witness(xs, k, m_start, t, f)
        yield None if got is not None else \
            f"trial {i}: no witness for {xs.values} k={k} M={m_start} t={t}"


def _xu_instance(rng: random.Random, corrupt: bool):
    """A random instance in `_xu_check`'s form: s, v, r and gamma as
    integers over den, and lam = 1/L as numerators over L."""
    bits = rng.getrandbits
    big_l = _pick(bits, (2, 3, 4))
    ldiv = Affine(slope=big_l, offset=0)
    k = _below(bits, 3)
    n = _below(bits, 6)
    p = n + _below(bits, 31)
    length = p + 2 + _below(bits, 6)

    # Integers over den: v_m is i/10 of the cap 1/(q (p+1)), r_m is i/10 of
    # 1/q, each gamma_m takes j/12 of the rest of the budget 1/q (length - 1
    # times), and each step of the s recurrence divides by L once, with
    # lam = 1/L.  den holds every one of those factors, so each division is
    # exact.  v_m and r_m are drawn in turn, v_m first.
    q = 4 * (k + 1)
    den = 20 * q * (p + 1) * 12 ** (length - 1) * big_l ** length
    v_unit, r_unit = den // (10 * q * (p + 1)), den // (10 * q)
    tenths = [_below(bits, 10) for _ in range(2 * length)]
    v = [v_unit * i for i in tenths[::2]]
    r = [r_unit * i for i in tenths[1::2]]
    budget_g = den // q
    gamma = []
    for _ in range(length - 1):
        take = budget_g * _below(bits, 4) // 12
        gamma.append(take)
        budget_g -= take
    gamma.append(0)

    s = [den // 2 * _below(bits, 4)]
    for m in range(length):
        s.append(((big_l - 1) * (s[m] + v[m]) + r[m]) // big_l + gamma[m])
    d = max(1, -(-max(s) // den))
    if corrupt:
        # Land the broken transition inside [0, p] so the probe sees it.
        bump = 1 + _below(bits, p + 1)
        s[bump] += (d + 1) * den
        d = d * 2 + 2
    return s, v, r, gamma, den, [1] * length, big_l, ldiv, d, k, n, p


def _suite_xu(rng: random.Random, trials: int):
    for i in range(trials):
        corrupt = i % 5 == 4
        inst = _xu_instance(rng, corrupt)
        got = _xu_check(*inst)
        k, n, p = inst[-3:]
        want_ok = got is None if corrupt else got is True
        yield None if want_ok else \
            f"trial {i}: got {got!r} corrupt={corrupt} k={k} n={n} p={p}"


def _unit(rng: random.Random, dim: int) -> np.ndarray:
    vec = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
    nrm = float(np.linalg.norm(vec))
    if nrm < 1e-12:
        vec = np.zeros(dim)
        vec[0] = 1.0
        return vec
    return vec / nrm


def _walk_pair(rng: random.Random):
    """A pair whose w drifts by sigma/(n+1)^2 steps; nu = Affine(s, s) with
    s = ceil(sigma) is then a valid almost-decrease rate."""
    dim = 2
    bits = rng.getrandbits
    a = _pick(bits, (3, 4))
    sig = 1.0 + rng.random()
    direction = _unit(rng, dim)
    w0 = np.array([rng.uniform(-0.5, 0.5) for _ in range(dim)])
    w = [w0]
    steps = 6 + _below(bits, 7)
    for n in range(steps):
        w.append(w[-1] + (sig / (n + 1) ** 2) * direction)
    lo, hi = 1.0 / a, 1.0 - 1.0 / a
    alpha = [rng.uniform(lo, hi) for _ in range(steps)]
    z0 = np.array([rng.uniform(-0.5, 0.5) for _ in range(dim)])
    pair = SyntheticPair(z0=z0, w=w, alpha=alpha, a=a)
    nu = Affine(slope=int(-(-sig // 1)), offset=int(-(-sig // 1)))
    gap_max = float(pair.gaps(len(w) + 2).max())
    n_gap = max(1, int(-(-gap_max // 1)))
    return pair, nu, n_gap


def _suite_suzuki1(rng: random.Random, trials: int):
    bits = rng.getrandbits
    for i in range(trials):
        k = _below(bits, 3)
        l = _below(bits, 4)
        t = 1 + _below(bits, 2)
        f = Const(_below(bits, 3))
        if i % 10 == 9:
            # Fabricated rate: a large jump in w must be rejected up front.
            w = [np.zeros(2)] * 4 + [np.array([2.5, 0.0])] * 4
            pair = SyntheticPair(z0=np.zeros(2), w=w, alpha=[0.5] * 8, a=2)
            try:
                suzuki1_witness(pair, k, l, 1, Const(0), 4, f)
            except ValueError:
                yield None
            else:
                yield f"trial {i}: fabricated nu accepted"
            continue
        if i % 2 == 0:
            a = _pick(bits, (2, 3))
            point = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            lo, hi = 1.0 / a, 1.0 - 1.0 / a
            alpha = [rng.uniform(lo, hi) for _ in range(5)]
            pair = SyntheticPair(z0=point, w=[point], alpha=alpha, a=a)
            nu, n_gap = Const(0), 1
        else:
            pair, nu, n_gap = _walk_pair(rng)
        got = suzuki1_witness(pair, k, l, t, nu, n_gap, f)
        yield None if got is not None else \
            f"trial {i}: no witness k={k} l={l} t={t}"


def _suite_suzuki2(rng: random.Random, trials: int):
    bits = rng.getrandbits
    for i in range(trials):
        f = Const(_below(bits, 3))
        if i % 2 == 0:
            n_ball = _pick(bits, (1, 2, 3))
            k = _below(bits, 2)
            point = _unit(rng, 2) * rng.uniform(0.0, n_ball)
            alpha = [0.5] * 4
            pair = SyntheticPair(z0=point, w=[point], alpha=alpha, a=2)
            got = suzuki2_index(pair, k, f, Const(0), n_ball)
            ok = got == 0
            label = "constant"
        else:
            n_ball = _pick(bits, (1, 2))
            k = _below(bits, 2) if n_ball == 1 else 0
            pair = SyntheticPair(z0=np.zeros(1), w=[np.array([float(n_ball)])],
                                 alpha=[0.5], a=2)
            got = suzuki2_index(pair, k, f, Const(0), n_ball)
            want = max(0, (n_ball * (k + 1) - 1).bit_length())
            bound = chi_tilde(k, f, 2, Const(0), n_ball)
            ok = got == want and (not bound.is_exact or got <= bound.value)
            label = "geometric"
        yield None if ok else f"trial {i}: {label} got {got!r}"


# lemma -> (default trial count, suite)
SUITES = {
    "ratap": (1000, _suite_ratap),
    "limsup2": (1000, _suite_limsup2),
    "xu": (100, _suite_xu),
    "suzuki1": (50, _suite_suzuki1),
    "suzuki2": (100, _suite_suzuki2),
}


def run_suite(lemma: str, seed: int = 7,
              trials: Optional[int] = None) -> SuiteResult:
    """Run one lemma's randomized suite with a fixed seed."""
    if lemma not in SUITES:
        raise ValueError(f"unknown lemma suite: {lemma!r}")
    default, suite = SUITES[lemma]
    count = default if trials is None else trials
    if count < 1:
        raise ValueError("trials must be positive")
    failed = [text for text in suite(random.Random(seed), count)
              if text is not None]
    return SuiteResult(lemma=lemma, trials=count, passes=count - len(failed),
                       first_failure=failed[0] if failed else None)
