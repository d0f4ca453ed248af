"""Brute-force lemma oracles: deterministic pins plus seeded suite counts."""

from fractions import Fraction

import numpy as np
import pytest

from mppa.countfn import Affine, Const, Identity
from mppa.bounds import chi_tilde, theta, varphi_suzuki1
from mppa.oracle import (BoundedSeq, SyntheticPair, qtXu1_check, ratap_witness,
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


def test_synthetic_pair():
    pair = SyntheticPair(z0=(0.0,), w=[(1.0,)], alpha=[0.5], a=2)
    assert pair.z_at(1) == pytest.approx(0.5)
    assert pair.z_at(2) == pytest.approx(0.75)
    assert pair.gap(2) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        SyntheticPair(z0=(0.0,), w=[(1.0,)], alpha=[0.9], a=2)
    with pytest.raises(ValueError):
        SyntheticPair(z0=(0.0,), w=[(1.0, 2.0)], alpha=[0.5], a=2)


# --- witness searches ----------------------------------------------------------------


def test_ratap_witness_pins():
    xs = BoundedSeq(values=("0.9", "0.1", "0.5"), bound=1)
    assert ratap_witness(xs, 1, 0, Const(2)) == 1
    # a constant sequence at the ceiling lands in the top cell
    assert ratap_witness(BoundedSeq(values=(2,), bound=2), 1, 0, Const(0)) == 3
    got = ratap_witness(xs, 4, 0, Identity())
    assert got is not None and got < 1 * 5


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
