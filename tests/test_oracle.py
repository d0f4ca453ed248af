"""Brute-force lemma oracles: deterministic pins plus seeded suite counts."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppa import oracle
from mppa.countfn import (DEFAULT_MAGNITUDE_BITS, Affine, BoundValue,
                          BudgetExceededError, Closure, Const, ExpCeil,
                          Identity, Table, ceil_ln, evaluate, evaluate_each)
from mppa.bounds import chi_tilde, sigma, theta, varphi_suzuki1
from mppa.operators import row_norm
from mppa.oracle import (PREMISE_TOL, CONCLUSION_TOL, BoundedSeq,
                         SyntheticPair, qtXu1_check, ratap_witness,
                         rationalapprox2_witness, run_suite, suzuki1_witness,
                         suzuki2_index)


# --- domain types -----------------------------------------------------------------


def test_bounded_seq():
    xs = BoundedSeq(values=(1, 2), bound=2)
    assert xs.at(0) == 1
    assert xs.at(7) == 2                       # repeats the tail
    assert xs.window(0, 5) == (Fraction(1), Fraction(2))
    assert xs.window(5, 9) == (Fraction(2),)
    assert xs.window(3, 2) == ()
    with pytest.raises(ValueError):
        BoundedSeq(values=(3,), bound=2)
    with pytest.raises(ValueError):
        BoundedSeq(values=(), bound=2)
    with pytest.raises(ValueError):
        xs.at(-1)


def test_bounded_seq_window_refuses_a_negative_start():
    xs = BoundedSeq((0, 1, "1/2"), 1)
    for lo, hi in ((-2, 1), (-1, -1), (-1, -3)):
        with pytest.raises(ValueError, match="natural number"):
            xs.window(lo, hi)
    assert xs.window(0, 1) == (0, 1)


@pytest.mark.parametrize("bound", (1.5, -1, Fraction(5, 2), "2"))
def test_bounded_seq_refuses_a_bound_that_is_not_natural(bound):
    with pytest.raises(ValueError, match="bound must be a natural number"):
        BoundedSeq(values=(1,), bound=bound)


def test_bounded_seq_keeps_one_denominator():
    xs = BoundedSeq(values=("1/2", "2/3", 1), bound=2.0)
    assert (xs.nums, xs.den, xs.bound) == ((3, 4, 6), 6, 2)
    assert type(xs.bound) is int
    assert xs.values == (Fraction(1, 2), Fraction(2, 3), Fraction(1))
    # the suites' sequences keep their numerators over lcm(1..9)
    ys = BoundedSeq._from_numerators((1260, 1680, 2520), 2520, 2)
    assert ys == xs and hash(ys) == hash(xs) and repr(ys) == repr(xs)
    assert repr(xs) == ("BoundedSeq(values=(Fraction(1, 2), Fraction(2, 3), "
                        "Fraction(1, 1)), bound=2)")
    assert ys.at(1) == Fraction(2, 3) and ys.window(1, 9) == xs.window(1, 9)
    with pytest.raises(AttributeError):
        xs.bound = 3


def test_synthetic_pair():
    pair = SyntheticPair(z0=(0.0,), w=[(1.0,)], alpha=[0.5], a=2)
    z, w = pair.rows(3)
    assert z[1:, 0].tolist() == pytest.approx([0.5, 0.75])
    assert w[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert pair.gaps(3)[2] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        SyntheticPair(z0=(0.0,), w=[(1.0,)], alpha=[0.9], a=2)
    with pytest.raises(ValueError):
        SyntheticPair(z0=(0.0,), w=[(1.0, 2.0)], alpha=[0.5], a=2)


def test_synthetic_pair_rejects_non_finite_input():
    nan = float("nan")
    # a NaN gap would pass every premise check, which compares with >
    with pytest.raises(ValueError, match="non-finite"):
        SyntheticPair(z0=(0.0,), w=[(nan,)], alpha=[0.5], a=2)
    with pytest.raises(ValueError, match="non-finite"):
        SyntheticPair(z0=(nan,), w=[(1.0,)], alpha=[0.5], a=2)
    with pytest.raises(ValueError, match="non-finite"):
        SyntheticPair(z0=(0.0,), w=[(0.0,), (float("inf"),)], alpha=[0.5],
                      a=2)
    with pytest.raises(ValueError, match=r"alpha out of .* index 0: nan"):
        SyntheticPair(z0=(0.0,), w=[(1.0,)], alpha=[nan], a=2)


class RefPair:
    """The per-point pair: z stepped on numpy arrays, one norm per read."""

    def __init__(self, z0, w, alpha):
        self.z0 = np.asarray(z0, dtype=float).reshape(-1)
        self.w_list = [np.asarray(p, dtype=float).reshape(-1) for p in w]
        self.alpha = tuple(float(x) for x in alpha)
        self._z = [self.z0]

    def alpha_at(self, n):
        return self.alpha[min(n, len(self.alpha) - 1)]

    def w_at(self, n):
        return self.w_list[min(n, len(self.w_list) - 1)]

    def z_at(self, n):
        while len(self._z) <= n:
            m = len(self._z) - 1
            al = self.alpha_at(m)
            self._z.append(al * self.w_at(m) + (1.0 - al) * self._z[m])
        return self._z[n]

    def gap(self, n):
        return float(np.linalg.norm(self.w_at(n) - self.z_at(n)))

    def wdiff(self, n):
        dw = float(np.linalg.norm(self.w_at(n + 1) - self.w_at(n)))
        dz = float(np.linalg.norm(self.z_at(n + 1) - self.z_at(n)))
        return dw - dz


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _ref_arrays(ref, stop):
    """z and w rows, gaps, surpluses and the norms of the z and w rows of
    the per-point pair at n < stop."""
    idx = range(stop)
    z, w = [ref.z_at(n) for n in idx], [ref.w_at(n) for n in idx]
    return (z, w, [ref.gap(n) for n in idx], [ref.wdiff(n) for n in idx],
            [np.linalg.norm(x) for x in z], [np.linalg.norm(x) for x in w])


@st.composite
def pair_args(draw):
    """z0, w, alpha and a for a SyntheticPair.  Half the draws take their
    coordinates from a few values, signed zeros among them, so z often
    reaches a fixed point, at times while w still holds one value before
    it moves on; w and alpha may end past the cache's first doubling."""
    dim = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.integers(min_value=2, max_value=6))
    if draw(st.booleans()):
        coord = st.sampled_from((0.0, -0.0, 0.1, 1.0 / 3.0, 3.0))
        band = st.sampled_from((1.0 / a, 0.5, 1.0 - 1.0 / a))
    else:
        coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
        band = st.floats(min_value=1.0 / a, max_value=1.0 - 1.0 / a)
    point = st.lists(coord, min_size=dim, max_size=dim)
    z0 = draw(point)
    size = st.sampled_from((1, 13, 80))
    w = draw(st.lists(point, min_size=1, max_size=draw(size)))
    alpha = draw(st.lists(band, min_size=1, max_size=draw(size)))
    return z0, w, alpha, a


# past the explicit prefix, and across one or several doublings of the cache
_STOPS = (1, 14, 63, 64, 65, 129, 150, 300, 1025, 4097)


@settings(max_examples=150, deadline=None)
@given(pair_args(), st.lists(st.sampled_from(_STOPS), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=300))
def test_pair_arrays_match_the_per_point_pair(args, stops, n):
    z0, w, alpha, a = args
    pair = SyntheticPair(z0=z0, w=w, alpha=alpha, a=a)
    ref = RefPair(z0, w, alpha)
    want = _ref_arrays(ref, max(stops))
    for stop in stops:
        z_rows, w_rows = pair.rows(stop)
        # the last two are suzuki2's norm probe
        got = (z_rows, w_rows, pair.gaps(stop), pair.surpluses(stop),
               row_norm(z_rows), row_norm(w_rows))
        for x, y in zip(got, want):
            assert _bits(x) == _bits(y[:stop])
    # a read far past the cache, on the pair as built and after the above
    fresh = SyntheticPair(z0=z0, w=w, alpha=alpha, a=a)
    for got in (fresh, pair):
        assert _bits(got.surpluses(n + 1)[n]) == _bits(ref.wdiff(n))
        assert _bits(got.gaps(n + 1)[n]) == _bits(ref.gap(n))
        assert _bits(got.rows(n + 1)[0][n]) == _bits(ref.z_at(n))


@pytest.mark.parametrize("w,alpha,a", [
    # z_1 = z_0 under a map that changes when w moves on at n = 2
    ([(1 / 3,), (1 / 3,), (3.0,)], [0.5], 2),
    # 0.5 keeps 1/3 in place and 1/3 moves it: alpha ends after w
    ([(1 / 3,)], [0.5, 0.5, 1 / 3], 3),
])
def test_pair_settles_only_past_both_explicit_prefixes(w, alpha, a):
    pair = SyntheticPair(z0=(1 / 3,), w=w, alpha=alpha, a=a)
    ref = RefPair((1 / 3,), w, alpha)
    assert _bits(pair.rows(100)[0]) \
        == _bits([ref.z_at(n) for n in range(100)])


def test_pair_tells_signed_zeros_apart():
    # z_1 = 0.5 * 0.0 + 0.5 * -0.0 = 0.0 equals z_0 = -0.0 in value only:
    # z is stationary from n = 1, not from n = 0
    pair = SyntheticPair(z0=(-0.0,), w=[(0.0,)], alpha=[0.5], a=2)
    assert _bits(pair.rows(3)[0]) == _bits([[-0.0], [0.0], [0.0]])
    assert _bits(pair.rows(200)[0][1:]) == _bits([[0.0]] * 199)


def _pair(w):
    """A 1-d pair with alpha = 1/2 over the given values of w."""
    return SyntheticPair(z0=(0.0,), w=[(x,) for x in w], alpha=[0.5], a=2)


def _spikes(where, height):
    """w = height at the given indices and 0 elsewhere: the gap and |w_n|
    are height exactly there, and z_(n+1) is height/2 just after."""
    return [height if n in where else 0.0 for n in range(max(where) + 4)]


def _steps(where):
    """w rises by 5 at each given index: the surplus is about 5 at the index
    before, and at most 0 elsewhere."""
    return [5.0 * sum(n >= j for j in where) for n in range(max(where) + 4)]


def test_gap_bound_names_the_first_violation_in_its_range():
    with pytest.raises(ValueError, match=r"gap exceeds N at n=6$"):
        oracle._check_gap_bound(_pair(_spikes({6, 11}, 5.0)), 1, 20)
    # the range is 0..horizon inclusive
    with pytest.raises(ValueError, match=r"at n=20$"):
        oracle._check_gap_bound(_pair(_spikes({20}, 5.0)), 1, 20)
    oracle._check_gap_bound(_pair(_spikes({21}, 5.0)), 1, 20)


def test_eqnu_names_the_first_violation_in_its_range():
    # level 1 gives tau = 1/2; nu = Const(3) starts the probe at n = 3
    with pytest.raises(ValueError, match=r"surplus at n=5 exceeds 1/2$"):
        oracle._check_eqnu(_pair(_steps({6, 12})), Const(3), 1, 20)
    # the range is nu(level)..horizon-1: a step at j shows at n = j - 1
    with pytest.raises(ValueError, match=r"surplus at n=3 "):
        oracle._check_eqnu(_pair(_steps({4})), Const(3), 1, 20)
    with pytest.raises(ValueError, match=r"surplus at n=19 "):
        oracle._check_eqnu(_pair(_steps({20})), Const(3), 1, 20)
    oracle._check_eqnu(_pair(_steps({3})), Const(3), 1, 20)
    oracle._check_eqnu(_pair(_steps({21})), Const(3), 1, 20)


def test_suzuki2_norm_probe_names_the_first_violation_in_its_range():
    bound = chi_tilde(0, Const(0), 2, Const(0), 1)
    probe_hi = min(bound.value, 2000)
    assert probe_hi == 2000

    def index(where):
        return suzuki2_index(_pair(_spikes(where, 1.5)), 0, Const(0),
                             Const(0), 1)
    with pytest.raises(ValueError, match=r"iterate norm exceeds N at n=7$"):
        index({7, 9})
    # the range is 0..probe_hi inclusive
    with pytest.raises(ValueError, match=rf"at n={probe_hi}$"):
        index({probe_hi})
    assert index({probe_hi + 1}) == 0


# --- witness searches ----------------------------------------------------------------


def test_ratap_witness_pins():
    xs = BoundedSeq(values=("0.9", "0.1", "0.5"), bound=1)
    assert ratap_witness(xs, 1, 0, Const(2)) == 1
    # a constant sequence at the ceiling lands in the top cell
    assert ratap_witness(BoundedSeq(values=(2,), bound=2), 1, 0, Const(0)) == 3
    got = ratap_witness(xs, 4, 0, Identity())
    assert got is not None and got < 1 * 5


def test_ratap_witness_refuses_a_negative_k():
    xs = BoundedSeq(values=(0,), bound=1)
    with pytest.raises(ValueError, match="k must be a natural number"):
        ratap_witness(xs, -1, 0, Const(0))
    # as rationalapprox2_witness does
    with pytest.raises(ValueError):
        rationalapprox2_witness(xs, -1, 0, 1, Const(0))


CAP = 1 << DEFAULT_MAGNITUDE_BITS


@pytest.mark.parametrize("f, n", [
    (Const(0), 0), (Const(3), 7), (Identity(), 5), (Affine(2, 1), 4),
    (Const(CAP), 0), (Affine(1, CAP - 3), 3),        # at the magnitude cap
    (Const(CAP + 1), 0), (Affine(1, CAP - 3), 4),    # past it
    (Table((0, 2, 1)), 2), (ExpCeil(1), 3), (ExpCeil(1), 5000),
    (Const(0), -1), (Identity(), -2)])
def test_ratap_reads_f_as_evaluate_does(f, n, monkeypatch):
    """ratap_witness reads f(n) as evaluate(f, n) gives it: it refuses a
    negative n, and past the caps raises the marker; an affine f within
    them is read from its form, with no evaluate call."""
    xs = BoundedSeq(values=(0, 1), bound=1)
    if n < 0:
        with pytest.raises(ValueError, match="natural arguments"):
            ratap_witness(xs, 0, n, f)
        return
    want = evaluate(f, n)
    if not want.is_exact:
        with pytest.raises(BudgetExceededError) as exc:
            ratap_witness(xs, 0, n, f)
        assert exc.value.stage == want.stage == "eval"
        return
    if f.affine_form() is not None:
        def refused(*args):
            raise AssertionError("evaluate called on an affine f")
        monkeypatch.setattr(oracle, "evaluate", refused)
    assert oracle._value_at(f, n) == want.value
    assert ratap_witness(xs, 0, n, f) == 0


def test_rationalapprox2_pins():
    assert rationalapprox2_witness(BoundedSeq((0,), 1), 2, 0, 1, Const(1)) \
        == (0, 0)
    assert rationalapprox2_witness(BoundedSeq((1, 0), 1), 1, 0, 1, Const(0)) \
        == (0, 1)
    with pytest.raises(ValueError):
        rationalapprox2_witness(BoundedSeq((0,), 1), 0, 0, 0, Const(0))


def test_rationalapprox2_witness_below_theta():
    xs = BoundedSeq(values=("0.5", "0.25", 1, 0), bound=1)
    k, m_start, t, f = 1, 0, 1, Const(1)
    got = rationalapprox2_witness(xs, k, m_start, t, f)
    assert got is not None
    p, m = got
    cap = theta(k, m_start, t, xs.bound, f).value
    assert m_start <= m <= cap
    assert p < xs.bound * (k + 1)


def ref_ratap_witness(xs, k, n, f):
    """ratap_witness as a scan over every cell and every window value."""
    win = xs.window(n, n + oracle._exact(evaluate(f, n)))
    for p in range(xs.bound * (k + 1)):
        lower = Fraction(p, k + 1)
        upper = Fraction(p + 1, k + 1)
        if any(x >= lower for x in win) and all(x <= upper for x in win):
            return p
    return None


def ref_rationalapprox2_witness(xs, k, m_start, t, f):
    """rationalapprox2_witness as a scan over every cell at every m."""
    if t < 1:
        raise ValueError("t must be at least 1")
    cap = oracle._exact(theta(k, m_start, t, xs.bound, f))
    cells = xs.bound * (k + 1)
    fs = islice(evaluate_each(f), m_start, cap + 1)
    for m, fm in zip(range(m_start, cap + 1), fs):
        probe = xs.at(m + t)
        win = xs.window(m, m + fm)
        for p in range(cells):
            if probe >= Fraction(p, k + 1) and \
                    all(x <= Fraction(p + 1, k + 1) for x in win):
                return p, m
    return None


# (numerator, denominator choice) pairs; choice 0 is k+1, a cell edge
_raw_values = st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                                 st.integers(min_value=0, max_value=12)),
                       min_size=1, max_size=12)


@st.composite
def cell_seqs(draw):
    """A BoundedSeq of bound 0..3 and a k in 0..5, with values on the cell
    edges p/(k+1) of that k as well as off them.  Half the draws keep the
    numerators over a multiple of the least common denominator, as the
    suites' sequences do."""
    bound = draw(st.integers(min_value=0, max_value=3))
    k = draw(st.integers(min_value=0, max_value=5))
    values = []
    for num, choice in draw(_raw_values):
        den = choice or k + 1
        values.append(Fraction(num % (bound * den + 1), den))
    if draw(st.booleans()):
        den = draw(st.sampled_from((1, 7, 2520))) * math.lcm(
            *(x.denominator for x in values))
        nums = tuple(x.numerator * (den // x.denominator) for x in values)
        return BoundedSeq._from_numerators(nums, den, bound), k
    return BoundedSeq(values=tuple(values), bound=bound), k


count_fns = st.one_of(
    st.integers(min_value=0, max_value=4).map(Const),
    st.just(Identity()),
    st.builds(Affine, st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3)),
    # raises a marker at one index (_spike is defined further down)
    st.builds(lambda slope, at: _spike(slope, at),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=14)))


@settings(max_examples=400, deadline=None)
@given(cell_seqs(), st.integers(min_value=0, max_value=12), count_fns)
def test_ratap_witness_matches_the_cell_scan(seq_k, n, f):
    xs, k = seq_k
    assert _outcome(ratap_witness, xs, k, n, f) \
        == _outcome(ref_ratap_witness, xs, k, n, f)


@settings(max_examples=400, deadline=None)
@given(cell_seqs(), st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=3), count_fns)
def test_rationalapprox2_witness_matches_the_cell_scan(seq_k, m_start, t, f):
    xs, k = seq_k
    assert _outcome(rationalapprox2_witness, xs, k, m_start, t, f) \
        == _outcome(ref_rationalapprox2_witness, xs, k, m_start, t, f)


def test_qtxu_positive_and_corrupt():
    lam = Fraction(1, 2)
    s = [Fraction(1)]
    for m in range(12):
        s.append((1 - lam) * s[m])
    zeros = [0] * 12
    assert qtXu1_check(s, zeros, zeros, zeros, [lam] * 12,
                       Affine(2, 0), 1, 0, 0, 10) is True
    bad = list(s)
    bad[1] += 3
    assert qtXu1_check(bad, zeros, zeros, zeros, [lam] * 12,
                       Affine(2, 0), 3, 0, 0, 10) is None


def _ext(seq, i):
    return seq[i] if i < len(seq) else seq[-1]


def ref_qtxu1_check(s, v, r, gamma, lam, ldiv, d, k, n, p):
    """qtXu1_check with its tolerances rebuilt at every step and the
    divergence probe summing lam_1..lam_L(kk) afresh for each level kk."""
    s, v, r, gamma, lam = (tuple(Fraction(x) for x in seq)
                           for seq in (s, v, r, gamma, lam))
    if d < 1 or k < 0 or n < 0 or p < 0:
        return None
    if any(x < 0 or x > d for x in s):
        return None
    if any(x <= 0 or x >= 1 for x in lam):
        return None
    if any(x < 0 for x in gamma):
        return None
    quarter = Fraction(1, 4 * (k + 1))
    for m in range(n, p + 1):
        if _ext(v, m) > quarter / (p + 1) + PREMISE_TOL:
            return None
        if _ext(r, m) > quarter + PREMISE_TOL:
            return None
    if sum((_ext(gamma, i) for i in range(n, p + 1)),
           Fraction(0)) > quarter + PREMISE_TOL:
        return None
    for m in range(p + 1):
        rhs = (1 - _ext(lam, m)) * (_ext(s, m) + _ext(v, m)) \
            + _ext(lam, m) * _ext(r, m) + _ext(gamma, m)
        if _ext(s, m + 1) > rhs + PREMISE_TOL:
            return None
    for kk in range(n + ceil_ln(4 * d * (k + 1)) + 1):
        value = evaluate(ldiv, kk)
        if not value.is_exact:
            raise BudgetExceededError(value.stage)
        total = Fraction(0)
        for i in range(1, value.value + 1):
            total += _ext(lam, i)
        if total < kk - PREMISE_TOL:
            return None
    start = sigma(k, n, ldiv, d).value
    return all(_ext(s, m) <= Fraction(1, k + 1) + CONCLUSION_TOL
               for m in range(start, p + 1))


def _xu_fractions(inst):
    """An integer xu instance as the Fractions qtXu1_check reads."""
    s, v, r, gamma, den, lam, lden, *rest = inst
    return (*([Fraction(x, den) for x in seq] for seq in (s, v, r, gamma)),
            [Fraction(x, lden) for x in lam], *rest)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_qtxu_matches_the_quadratic_probe(data):
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
    corrupt = data.draw(st.booleans())
    s, v, r, gamma, lam, ldiv, d, k, n, p = _xu_fractions(
        oracle._xu_instance(random.Random(seed), corrupt))
    # other divergence rates, some too slow for the lambda sums
    ldiv = data.draw(st.sampled_from(
        (ldiv, Const(0), Const(3), Identity(), Affine(2, 1), Affine(5, 0))))
    if data.draw(st.booleans()):
        frac = st.fractions(min_value=Fraction(1, 50),
                            max_value=Fraction(49, 50), max_denominator=50)
        lam = data.draw(st.lists(frac, min_size=1, max_size=len(s)))
    seqs = [s, v, r, gamma, lam]
    # one value replaced, possibly out of its domain or past a cap
    if data.draw(st.booleans()):
        which = data.draw(st.integers(min_value=0, max_value=4))
        at = data.draw(st.integers(min_value=0,
                                   max_value=len(seqs[which]) - 1))
        seqs[which] = list(seqs[which])
        seqs[which][at] = data.draw(st.fractions(
            min_value=-1, max_value=3, max_denominator=60))
    # ints and floats are read exactly, as Fraction(x) reads them
    if data.draw(st.booleans()):
        which = data.draw(st.integers(min_value=0, max_value=4))
        seqs[which] = [int(x) if x.denominator == 1 else float(x)
                       for x in seqs[which]]
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=0, max_value=8))
        p = data.draw(st.integers(min_value=0, max_value=50))
    args = (*seqs, ldiv, d, k, n, p)
    assert qtXu1_check(*args) == ref_qtxu1_check(*args)


def _near_powers_of_two(top_bits):
    """2^j and 2^j +- 1 for j <= top_bits, and so 1."""
    return st.integers(min_value=0, max_value=top_bits).flatmap(
        lambda j: st.sampled_from(
            (1 << j, (1 << j) + 1, max(1, (1 << j) - 1))))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64),
       st.lists(st.one_of(st.integers(min_value=1, max_value=2 ** 70),
                          st.integers(min_value=1, max_value=40),
                          _near_powers_of_two(70)),
                min_size=1, max_size=20))
def test_below_is_randrange_stream_for_stream(seed, ns):
    # the suites' instances are those randrange and choice draw on this
    # Python; a version whose randrange draws differently fails here, while
    # the suites still draw what the instance pins record
    rng, ref = random.Random(seed), random.Random(seed)
    for n in ns:
        assert oracle._below(rng.getrandbits, n) == ref.randrange(n)
        options = tuple(range(n % 7 + 1))
        assert oracle._pick(rng.getrandbits, options) == ref.choice(options)
        assert rng.getstate() == ref.getstate()
    # random() and gauss() read the same state after the draws
    assert (rng.random(), rng.gauss(0.0, 1.0)) \
        == (ref.random(), ref.gauss(0.0, 1.0))


def ref_xu_instance(rng, corrupt):
    """oracle._xu_instance built on Fractions, one operation at a time."""
    lam_val = Fraction(1, rng.choice((2, 3, 4)))
    ldiv = Affine(slope=lam_val.denominator, offset=0)
    k = rng.randrange(0, 3)
    n = rng.randrange(0, 6)
    p = n + rng.randrange(0, 31)
    length = p + rng.randrange(2, 8)

    quarter = Fraction(1, 4 * (k + 1))
    v = []
    r = []
    vcap = quarter / (p + 1)
    for m in range(length):
        v.append(vcap * Fraction(rng.randrange(0, 10), 10))
        r.append(quarter * Fraction(rng.randrange(0, 10), 10))
    budget_g = quarter
    gamma = []
    for _ in range(length - 1):
        take = budget_g * Fraction(rng.randrange(0, 4), 12)
        gamma.append(take)
        budget_g -= take
    gamma.append(Fraction(0))

    s = [Fraction(rng.randrange(0, 4), 2)]
    for m in range(length):
        s.append((1 - lam_val) * (s[m] + v[m]) + lam_val * r[m] + gamma[m])
    d = max(1, int(-(-max(s) // 1)))
    if corrupt:
        bump = rng.randrange(1, p + 2)
        s[bump] += d + 1
        d = d * 2 + 2
    lam = [lam_val] * length
    return s, v, r, gamma, lam, ldiv, d, k, n, p


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
def test_xu_instance_matches_the_fraction_build(seed, corrupt):
    rng, ref = random.Random(seed), random.Random(seed)
    got = oracle._xu_instance(rng, corrupt)
    s, v, r, gamma, den, lam, lden = got[:7]
    assert all(type(x) is int
               for x in (*s, *v, *r, *gamma, den, *lam, lden))
    assert _xu_fractions(got) == ref_xu_instance(ref, corrupt)
    # the same draws, in the same order
    assert rng.getstate() == ref.getstate()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_qtxu_is_its_integer_core(data):
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
    inst = list(oracle._xu_instance(random.Random(seed), data.draw(
        st.booleans())))
    # one numerator of s, v, r, gamma (over inst[4]) or lam (over inst[6])
    # replaced, possibly out of its domain or past a cap
    if data.draw(st.booleans()):
        which = data.draw(st.sampled_from((0, 1, 2, 3, 5)))
        scale = inst[6] if which == 5 else inst[4]
        at = data.draw(st.integers(min_value=0,
                                   max_value=len(inst[which]) - 1))
        inst[which] = list(inst[which])
        inst[which][at] = data.draw(st.integers(min_value=-scale,
                                                max_value=3 * scale))
    # d, k, n and p, each possibly out of its domain
    if data.draw(st.booleans()):
        inst[-4:] = data.draw(st.tuples(*(st.integers(min_value=-1,
                                                      max_value=top)
                                          for top in (8, 3, 8, 50))))
    assert oracle._xu_check(*inst) == qtXu1_check(*_xu_fractions(inst))


def test_qtxu_probe_reads_levels_out_of_order():
    # a rate that drops back: each level still reads its own prefix sum
    lam = [Fraction(1, 2)] * 8
    s = [Fraction(1, 2 ** m) for m in range(9)]
    zeros = [0] * 8
    zigzag = Closure("zigzag", lambda n, state: (9, 2, 12, 0, 14)[n % 5])
    for ldiv in (zigzag, ExpCeil(2), Affine(3, 0)):
        args = (s, zeros, zeros, zeros, lam, ldiv, 1, 0, 2, 6)
        assert qtXu1_check(*args) == ref_qtxu1_check(*args)
    assert qtXu1_check(s, zeros, zeros, zeros, lam, zigzag, 1, 0, 2, 6) \
        is None


def test_qtxu_rejects_broken_premises():
    lam = Fraction(1, 2)
    s = [Fraction(1)] * 8
    zeros = [0] * 8
    # v too large for the quarter-cell premise
    assert qtXu1_check(s, [Fraction(1)] * 8, zeros, zeros, [lam] * 8,
                       Affine(2, 0), 1, 0, 0, 5) is None
    # divergence rate that lies about the lambda sums
    assert qtXu1_check(s, zeros, zeros, zeros, [lam] * 8,
                       Const(0), 1, 0, 0, 5) is None


def test_qtxu_probe_is_linear_past_the_end_of_lam():
    # 12 lambda terms, so every level of these rates reads past the end;
    # sigma's value of the first passes the magnitude cap
    with pytest.raises(BudgetExceededError):
        qtXu1_check(*_halving(12), Affine(1, 2 ** 4096), 1, 0, 0, 10)
    assert qtXu1_check(*_halving(12), Affine(1, 2 ** 4095), 1, 0, 0, 10) \
        is True
    args = (*_halving(12), Affine(1, 10 ** 4), 1, 0, 0, 10)
    assert qtXu1_check(*args) is ref_qtxu1_check(*args) is True


@pytest.mark.parametrize("which,name", enumerate(("s", "v", "r", "gamma",
                                                  "lam")))
def test_qtxu_rejects_an_empty_sequence(which, name):
    seqs = list(_halving(12))
    seqs[which] = []
    with pytest.raises(ValueError,
                       match=rf"^{name}: at least one value is required$"):
        qtXu1_check(*seqs, Affine(2, 0), 1, 0, 0, 10)


def _at(seq, i, value):
    seq = list(seq)
    seq[i] = value
    return seq


# premise -> the halving instance edited to sit exactly at the premise's
# tolerance, given the amount by which it passes the tolerance: with
# k = 0, n = 0 and p = 10 the v cap is 1/44, the r cap and the gamma mass
# 1/4, and the divergence probe reads lam_1 + lam_2 >= 1 at level 1
TOL_EDGES = {
    "v": lambda e: (1, _at([0] * 12, 3, Fraction(1, 44) + e)),
    "r": lambda e: (2, _at([0] * 12, 3, Fraction(1, 4) + e)),
    "gamma": lambda e: (3, _at(_at([0] * 12, 2, Fraction(1, 8)), 7,
                               Fraction(1, 8) + e)),
    "transition": lambda e: (0, _at(_halving(12)[0], 4,
                                    Fraction(1, 16) + e)),
    "divergence": lambda e: (4, _at([Fraction(1, 2)] * 12, 1,
                                    Fraction(1, 2) - e)),
}


@pytest.mark.parametrize("premise", TOL_EDGES)
def test_qtxu_premise_tolerance_is_exact(premise):
    tiny = Fraction(1, 10 ** 15)
    for excess, want in ((PREMISE_TOL, True), (PREMISE_TOL + tiny, None)):
        which, seq = TOL_EDGES[premise](excess)
        seqs = list(_halving(12))
        seqs[which] = seq
        args = (*seqs, Affine(2, 0), 1, 0, 0, 10)
        assert qtXu1_check(*args) is ref_qtxu1_check(*args) is want


def test_qtxu_gamma_mass_counts_the_repeated_tail():
    # gamma_11 = 1/40 repeats past the end: p - 10 terms of it in [0, p]
    s, v, r, gamma, lam = _halving(12)
    gamma = _at(gamma, 11, Fraction(1, 40))
    for p, want in ((20, True), (21, None)):
        args = (s, v, r, gamma, lam, Affine(2, 0), 1, 0, 0, p)
        assert qtXu1_check(*args) is ref_qtxu1_check(*args) is want


def test_suzuki1_constant_pair():
    point = np.array([0.25, -0.5])
    pair = SyntheticPair(z0=point, w=[point], alpha=[0.4, 0.5, 0.6], a=3)
    got = suzuki1_witness(pair, 1, 2, 1, Const(0), 1, Const(1))
    assert got == (2, 0)
    cap = varphi_suzuki1(1, Const(1), 2, 1, 3, Const(0), 1).value
    assert got[0] <= cap


def test_suzuki1_rejects_fabricated_rate():
    w = [np.zeros(2)] * 4 + [np.array([2.5, 0.0])] * 4
    pair = SyntheticPair(z0=np.zeros(2), w=w, alpha=[0.5] * 8, a=2)
    with pytest.raises(ValueError):
        suzuki1_witness(pair, 0, 0, 1, Const(0), 4, Const(0))
    with pytest.raises(ValueError):
        suzuki1_witness(pair, 0, 0, 0, Const(0), 4, Const(0))  # t < 1


def test_suzuki2_geometric_pins():
    for n_ball, k in ((2, 1), (1, 1), (3, 0)):
        pair = SyntheticPair(z0=np.zeros(1), w=[np.array([float(n_ball)])],
                             alpha=[0.5], a=2)
        got = suzuki2_index(pair, k, Const(0), Const(0), n_ball)
        assert got == max(0, (n_ball * (k + 1) - 1).bit_length())
        bound = chi_tilde(k, Const(0), 2, Const(0), n_ball)
        if bound.is_exact:
            assert got <= bound.value


def test_suzuki2_rejects_norm_violation():
    pair = SyntheticPair(z0=np.zeros(1), w=[np.array([3.0])],
                         alpha=[0.5], a=2)
    with pytest.raises(ValueError):
        suzuki2_index(pair, 0, Const(0), Const(0), 1)


def _spike(slope, at):
    """n -> slope * n, except at one index, where it passes the magnitude
    cap under a stage of its own.  Not monotone: a monotone counterfunction
    whose bound is exact stays below the cap on the bound's search range."""

    def fn(n, state):
        if n != at:
            return slope * n
        prev, state.stage = state.stage, "spike"
        try:
            return state.check(1 << 5000)
        finally:
            state.stage = prev

    return Closure(name="spike", fn=fn)


def _halving(length):
    """s_m = 2**-m with lambda = 1/2 and no error terms."""
    s = [Fraction(1, 2 ** m) for m in range(length + 1)]
    zeros = [0] * length
    return s, zeros, zeros, zeros, [Fraction(1, 2)] * length


# lemma -> (search of a counterfunction, slope such that the search gives
# the result on n -> slope * n, spike indices inside the search range,
# spike indices past the last index the search and its bound read)
SEARCHES = {
    # w steps from 0 to 1 at n = 5, inside the window [m, 2m + 1] of every
    # m >= 2 the search reads; varphi is 772 with each spike below
    "suzuki1": (lambda f: suzuki1_witness(
        SyntheticPair(z0=(0.0,), w=[(0.0,)] * 5 + [(1.0,)], alpha=[0.5], a=2),
        0, 2, 1, Const(5), 1, f), 1, (4, 5), (2, 4, 772), (773,)),
    # the search starts at m = 2 and stops at the witness m = 3
    "limsup2": (lambda f: rationalapprox2_witness(
        BoundedSeq(values=("0.5", "0.25", 1, 0), bound=1), 1, 2, 1, f),
        0, (0, 3), (2, 3), (5,)),
    # z = 0, 1, 1.5, ... towards w = 2: the index is 1
    "suzuki2": (lambda f: suzuki2_index(
        SyntheticPair(z0=(0.0,), w=[(2.0,)], alpha=[0.5], a=2), 0, f,
        Const(0), 2), 0, 1, (0, 1), (2,)),
    # the divergence probe reads levels 0..2
    "xu": (lambda f: qtXu1_check(*_halving(12), f, 1, 0, 0, 10),
           2, True, (0, 1, 2), (3,)),
}


@pytest.mark.parametrize("lemma", SEARCHES)
def test_a_marker_in_a_search_range_ends_the_search(lemma):
    search, slope, want, inside, past = SEARCHES[lemma]
    assert search(Affine(slope, 0)) == want
    for at in past:
        assert search(_spike(slope, at)) == want
    for at in inside:
        with pytest.raises(BudgetExceededError) as exc:
            search(_spike(slope, at))
        assert exc.value.stage == "spike"


# --- seeded suites ---------------------------------------------------------------------


SMOKE = (("ratap", 10), ("limsup2", 10), ("xu", 10), ("suzuki1", 12),
         ("suzuki2", 4))


@pytest.mark.parametrize("lemma,trials", SMOKE, ids=[s[0] for s in SMOKE])
def test_suite_smoke(lemma, trials):
    res = run_suite(lemma, seed=7, trials=trials)
    assert res.ok
    assert res.passes == trials
    assert res.first_failure is None


def test_suite_is_deterministic():
    a = run_suite("ratap", seed=123, trials=25)
    b = run_suite("ratap", seed=123, trials=25)
    assert (a.passes, a.failures) == (b.passes, b.failures)


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite("nope")
    with pytest.raises(ValueError):
        run_suite("ratap", trials=0)


# --- pins recorded from the per-point pair and the quadratic probe ----------------------


# sha256 of the reprs of run_suite(lemma, seed=s, trials=t), s = 0..59
SUITE_DIGESTS = {
    ("ratap", 30):
        "a60e1e5fb07306408a908f2c9507fbf00be8b13993d8f18df3cfab91e5bb0669",
    ("limsup2", 30):
        "54f1b95e6ecc361f891a740c0b7b731422038302f3955e04f0d29423ecbdac58",
    ("xu", 10):
        "a2d23bc4c6cc71c031309328dec77a9de9e67884e789aeb9663d426d2d2b4abc",
    ("suzuki1", 10):
        "61abde27f2168cbf84b0ff94d00b95872e5a5a3ccdf8b4c2cb62cda0663dec9d",
    ("suzuki2", 4):
        "f2e9b22874da2686ad8d7f9042d298eeb76754c032976efdb7bfe624d31d7665",
}


@pytest.mark.parametrize("lemma,trials", SUITE_DIGESTS,
                         ids=[lemma for lemma, _ in SUITE_DIGESTS])
def test_suite_results_are_pinned(lemma, trials):
    text = "\n".join(repr(run_suite(lemma, seed=s, trials=trials))
                     for s in range(60))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == SUITE_DIGESTS[lemma, trials]


def _drawn(arg) -> str:
    """An argument a suite passes to its decision, as text that does not
    depend on how the oracle stores it."""
    if isinstance(arg, BoundedSeq):
        return repr(("seq", [str(Fraction(x)) for x in arg.values],
                     int(arg.bound)))
    if isinstance(arg, SyntheticPair):
        z, w = arg.rows(16)
        return repr(("pair", arg.a, arg.alpha, z.tolist(), w.tolist()))
    if isinstance(arg, (list, tuple)):
        return repr([_drawn(x) for x in arg])
    return repr(arg)


# the decision each suite hands its drawn instances to
DECISIONS = {"ratap": "ratap_witness", "limsup2": "rationalapprox2_witness",
             "xu": "_xu_check", "suzuki1": "suzuki1_witness",
             "suzuki2": "suzuki2_index"}

# sha256 of every instance a suite draws over trials as in SUITE_DIGESTS,
# seeds 0..59, each seed followed by the generator's state after its suite
INSTANCE_DIGESTS = {
    "ratap":
        "8072c031180463d551abb543c99fe8c07a8e071dcc3c39fdc7a999289ac5773f",
    "limsup2":
        "c4b06def679a21360c54c002bef6a58605a1582b4554f4a778dd215dd93a81fc",
    "xu":
        "33e76f051bc143e44149d53d31ce8d83fdfd5265fcfd1b43f823b4eea96decaf",
    "suzuki1":
        "a6872225d5351b56c8e84468276898e1130b50342190cba3afb624e2c41c07b3",
    "suzuki2":
        "55ad14445037df7920251dee90197f43050ab025de56bfc259e0216401d5ec77",
}


@pytest.mark.parametrize("lemma", INSTANCE_DIGESTS)
def test_suite_instances_are_pinned(lemma, monkeypatch):
    # SUITE_DIGESTS holds only the verdicts: a passing suite shows nothing
    # of what it drew.  The decision is replaced by a recorder, so this
    # pins the draws alone.
    lines = []
    monkeypatch.setattr(oracle, DECISIONS[lemma],
                        lambda *args: lines.append(_drawn(args)))
    trials = next(t for (name, t) in SUITE_DIGESTS if name == lemma)
    for seed in range(60):
        rng = random.Random(seed)
        for _ in oracle.SUITES[lemma][1](rng, trials):
            pass
        lines.append(repr(rng.getstate()))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == INSTANCE_DIGESTS[lemma]


# bound in oracle's namespace -> (its start value from the arguments, the
# suite that reads it, passes at seed 7 with the default trials).  ratap is
# missing: its witness reads no bound, and BoundedSeq keeps every value in
# [0, N], so a cell below N(k+1) exists for every input.
MUTANTS = {
    "theta": (lambda k, m_start, t, n_cells, f: m_start, "limsup2", 703),
    "sigma": (lambda k, n, ldiv, d: n, "xu", 83),
    "varphi_suzuki1": (lambda k, f, l, *rest: l, "suzuki1", 29),
    "r_const": (lambda a, k, t: 1, "suzuki1", 11),
    "chi_tilde": (lambda *args: 0, "suzuki2", 63),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_bound_cut_to_its_start_value_fails_its_suite(name, monkeypatch):
    start, lemma, passes = MUTANTS[name]
    monkeypatch.setattr(oracle, name, lambda *args: BoundValue.exact(
        start(*args)))
    got = run_suite(lemma, seed=7)
    assert not got.ok
    assert (got.trials, got.passes) == (oracle.SUITES[lemma][0], passes)


def _outcome(search, *args):
    try:
        return repr(search(*args))
    except (ValueError, BudgetExceededError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _walk_pair_lines(seed):
    """Pair values, suzuki1 witnesses and suzuki2 indices (or the premise
    error) on the suite's drifting pair drawn at one seed."""
    pair, nu, n_gap = oracle._walk_pair(random.Random(seed))
    gaps, surpluses, (z, _) = pair.gaps(40), pair.surpluses(40), pair.rows(40)
    lines = [repr((float(gaps[n]), float(surpluses[n]), z[n].tolist()))
             for n in range(0, 40, 3)]
    for k, l, t, c in ((0, 0, 1, 0), (1, 2, 2, 2), (2, 1, 1, 1)):
        lines.append(_outcome(suzuki1_witness, pair, k, l, t, nu, n_gap,
                              Const(c)))
    for k, c, n_ball in ((0, 0, n_gap), (1, 1, 5), (0, 2, 6)):
        lines.append(_outcome(suzuki2_index, pair, k, Const(c), nu, n_ball))
    return lines


def test_walk_pair_witnesses_are_pinned():
    text = "\n".join(line for s in range(60) for line in _walk_pair_lines(s))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "32bf2917672a04f6a255d2673730a7862c5d544ee51268c5341c159a3ec16668"
