"""Schedules, moduli, derived constants and the rate validators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppa.countfn import Affine, Budget, Const, ExpCeil, Identity, evaluate
from mppa.schedules import (ConstantSeq, GeometricError, HarmonicSeq, Moduli,
                            Schedule, ZeroError, _ends_inside,
                            _schedule_problems, derive_constants,
                            validate_anchors, validate_moduli,
                            validate_schedule)


def make_schedule(lam=None, gamma=None, c=None, error=None, dim=2) -> Schedule:
    return Schedule(lam=lam or HarmonicSeq(shift=3.0),
                    gamma=gamma or ConstantSeq(value=0.5),
                    c=c or ConstantSeq(value=1.0),
                    error=error or ZeroError(dim=dim))


MODULI_A = Moduli(a=2, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=ExpCeil(4),
                  Gamma=Const(0), E=Const(0), N1=4, N2=1, N3=4)


# --- families ------------------------------------------------------------------


def test_families_pointwise_matches_vectorized():
    assert np.all(ConstantSeq(0.25).values(7) == 0.25)
    assert np.allclose(HarmonicSeq(shift=3.0).values(7),
                       [1.0 / (n + 3) for n in range(7)])
    err = GeometricError(ratio=0.5, base=(1.0, 0.0))
    assert np.allclose(err.values(4), [(0.5 ** n, 0.0) for n in range(4)])
    assert np.allclose(err.norms(4), [1.0, 0.5, 0.25, 0.125])
    zero = ZeroError(dim=2)
    assert np.all(zero.values(3) == 0.0)
    assert np.all(zero.norms(3) == 0.0)


def test_family_validation():
    with pytest.raises(ValueError):
        HarmonicSeq(shift=0.0)
    with pytest.raises(ValueError):
        GeometricError(ratio=1.0, base=(1.0,))
    with pytest.raises(ValueError):
        GeometricError(ratio=0.0, base=(1.0,))


def test_schedule_snapshot():
    lams, gams, deltas, cs, errs = make_schedule().snapshot(5)
    assert lams.shape == (6,)
    assert lams[0] == pytest.approx(1.0 / 3.0)
    assert np.all(gams == 0.5)
    assert np.all(cs == 1.0)
    assert errs.shape == (5, 2)
    assert np.all(errs == 0.0)
    assert np.allclose(deltas, 1.0 - lams - gams)


def test_validate_schedule():
    assert validate_schedule(make_schedule(), 100) == []
    bad = validate_schedule(make_schedule(lam=ConstantSeq(1.2)), 10)
    assert any("lambda" in msg for msg in bad)
    # harmonic shift 2 with gamma 1/2 makes delta_0 exactly zero
    bad = validate_schedule(make_schedule(lam=HarmonicSeq(shift=2.0)), 10)
    assert any("delta" in msg and "n=0" in msg for msg in bad)


# const and harmonic families, with values on both sides of 0 and 1 and
# shifts that put 1/shift there too
families = st.one_of(
    st.builds(ConstantSeq,
              st.sampled_from((0.0, 0.5, 1.0, 1.5, -0.25, 1e-300, np.inf,
                               1e308)) | st.floats(-0.5, 1.5)),
    st.builds(HarmonicSeq,
              st.sampled_from((0.5, 1.0, 2.0, 3.0, 1e-300))
              | st.floats(0.01, 1e4)))


@given(families, families, families, st.integers(0, 10 ** 4))
@example(HarmonicSeq(2.0), ConstantSeq(0.5), ConstantSeq(1.0), 10)
@example(HarmonicSeq(3.0), ConstantSeq(1.5), ConstantSeq(1.0), 10)
@example(HarmonicSeq(3.0), ConstantSeq(0.5), HarmonicSeq(1.0), 10 ** 4)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_schedule_ends_accept_what_the_scan_accepts(lam, gamma, c, horizon):
    # the two ends decide acceptance for monotone families; the scan of
    # every n is the reference, messages included
    schedule = make_schedule(lam=lam, gamma=gamma, c=c)
    assert validate_schedule(schedule, horizon) \
        == _schedule_problems(*schedule.scalars(horizon))


def test_the_last_index_is_an_end_too():
    # 1 - 1/(n+3) - 1/(n+3) rounds to 1 once 2/(n+3) < 2**-54, so delta
    # leaves (0, 1) at a horizon no array scan reaches
    schedule = make_schedule(lam=HarmonicSeq(3.0), gamma=HarmonicSeq(3.0))
    assert _ends_inside(schedule, 10 ** 16)
    assert not _ends_inside(schedule, 4 * 10 ** 16)


@dataclasses.dataclass(frozen=True)
class Listed:
    """A parameter family given by its first values."""

    vals: tuple

    def values(self, count):
        return np.array(self.vals[:count], dtype=float)


def test_validate_schedule_refuses_a_non_finite_c():
    # the rule run uses: NaN and infinity are refused with the first bad n
    assert validate_schedule(make_schedule(c=ConstantSeq(np.inf)), 2) \
        == ["c not positive and finite at n=0: inf"]
    c = Listed((1.0, np.nan, np.inf))
    assert validate_schedule(make_schedule(c=c), 2) \
        == ["c not positive and finite at n=1: nan"]
    assert validate_schedule(make_schedule(c=Listed((1.0, 0.0))), 1) \
        == ["c not positive and finite at n=1: 0.0"]
    assert validate_schedule(make_schedule(c=Listed((1.0, 1e308))), 1) == []


# --- moduli and derived constants --------------------------------------------------


def test_moduli_validation():
    with pytest.raises(ValueError):
        Moduli(a=0, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=Identity(),
               Gamma=Identity(), E=Identity(), N1=1, N2=1, N3=1)
    with pytest.raises(ValueError):
        Moduli(a=1, c=0, Cmaj=Const(1), ell=Identity(), Ldiv=Identity(),
               Gamma=Identity(), E=Identity(), N1=1, N2=1, N3=1)
    with pytest.raises(ValueError):
        Moduli(a=1, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=Identity(),
               Gamma=Identity(), E=Identity(), N1=1, N2=0, N3=1)


def test_derive_constants_pins():
    ctx = derive_constants(MODULI_A)
    assert (ctx.N0, ctx.N, ctx.M1, ctx.M2, ctx.D) == (5, 8, 35, 59, 256)
    b = Moduli(a=2, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=ExpCeil(4),
               Gamma=Const(0), E=Const(0), N1=2, N2=1, N3=2)
    ctx = derive_constants(b)
    assert (ctx.N0, ctx.N, ctx.M1, ctx.M2, ctx.D) == (3, 4, 19, 31, 64)


def test_g_rate_composition():
    ctx = derive_constants(MODULI_A)
    # G = E(M2 n + M2); with E = const 0 it is identically zero.
    assert evaluate(ctx.G, 0).value == 0
    assert evaluate(ctx.G, 11).value == 0


# --- hypothesis validators ------------------------------------------------------------


def test_validate_moduli_accepts_experiment_a():
    report = validate_moduli(make_schedule(), MODULI_A, horizon=2000, k_cap=12)
    assert report.ok, report.violations


def test_validate_moduli_catches_bad_lambda_rate():
    bad = Moduli(a=2, c=1, Cmaj=Const(1), ell=Const(0), Ldiv=ExpCeil(4),
                 Gamma=Const(0), E=Const(0), N1=4, N2=1, N3=4)
    report = validate_moduli(make_schedule(), bad, horizon=500, k_cap=12)
    assert not report.ok
    assert any("lambda rate" in v for v in report.violations)


def test_validate_moduli_catches_bad_divergence_rate():
    bad = Moduli(a=2, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=Identity(),
                 Gamma=Const(0), E=Const(0), N1=4, N2=1, N3=4)
    report = validate_moduli(make_schedule(), bad, horizon=2000, k_cap=12)
    assert not report.ok
    assert any("divergence rate" in v for v in report.violations)


def test_validate_moduli_catches_gamma_band():
    bad = Moduli(a=5, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=ExpCeil(4),
                 Gamma=Const(0), E=Const(0), N1=4, N2=1, N3=4)
    sched = make_schedule(gamma=ConstantSeq(0.1))    # below 1/a = 0.2
    report = validate_moduli(sched, bad, horizon=100, k_cap=4)
    assert any("gamma leaves" in v for v in report.violations)


def test_validate_moduli_catches_cmaj_and_floor():
    sched = make_schedule(c=ConstantSeq(3.0))
    report = validate_moduli(sched, MODULI_A, horizon=100, k_cap=4)
    assert any("Cmaj fails" in v for v in report.violations)
    sched = make_schedule(c=ConstantSeq(0.25))       # below 1/c = 1
    report = validate_moduli(sched, MODULI_A, horizon=100, k_cap=4)
    assert any("c_n below" in v for v in report.violations)


@dataclasses.dataclass(frozen=True)
class Listed:
    """A parameter family given by its first values."""

    vals: tuple

    def values(self, count):
        return np.array(self.vals[:count], dtype=float)


def test_validate_moduli_names_first_cmaj_failure():
    # Cmaj(n) = n + 1 falls below the running max of c_n at n = 4 and n = 6
    sched = make_schedule(c=Listed((1.0, 1.0, 2.0, 2.0, 6.0, 1.0, 9.0)))
    moduli = dataclasses.replace(MODULI_A, Cmaj=Affine(1, 1), c=2)
    report = validate_moduli(sched, moduli, horizon=6, k_cap=0)
    cmaj = [v for v in report.violations if v.startswith("Cmaj")]
    assert cmaj == ["Cmaj fails at n=4: 5 < running max 6.0"]


def test_violation_messages_print_plain_floats():
    # numpy 2 prints the repr of a numpy scalar as np.float64(...); the
    # messages print the float, whatever the numpy version
    def violations(moduli=MODULI_A, **families):
        return validate_moduli(make_schedule(**families), moduli,
                               horizon=100, k_cap=12).violations

    assert violations(dataclasses.replace(MODULI_A, ell=Const(0))) \
        == ["lambda rate fails at k=3: lambda_0=0.3333333333333333 > 1/4"]
    assert violations(dataclasses.replace(MODULI_A, a=5),
                      gamma=ConstantSeq(0.1)) \
        == ["gamma leaves [1/5, 1 - 1/5] at n=0: 0.1"]
    assert violations(c=ConstantSeq(0.25)) == ["c_n below 1/1 at n=0: 0.25"]
    assert validate_schedule(make_schedule(gamma=ConstantSeq(1.5)), 10) \
        == ["gamma out of (0, 1) at n=0: 1.5",
            "delta out of (0, 1) at n=0: -0.8333333333333333"]


def test_validate_moduli_cmaj_check_stops_at_marker():
    sched = make_schedule(c=ConstantSeq(3.0))
    report = validate_moduli(sched, MODULI_A, horizon=100, k_cap=4,
                             budget=Budget(max_calls=0))
    assert not any("Cmaj" in v for v in report.violations)


@pytest.mark.parametrize("cmaj", [ExpCeil(1), Const(2 ** 2000)])
def test_validate_moduli_cmaj_past_float_range(cmaj):
    # e**710 and 2**2000 lie past the largest float; they still majorize c_n
    moduli = dataclasses.replace(MODULI_A, Cmaj=cmaj)
    report = validate_moduli(make_schedule(), moduli, horizon=800, k_cap=4)
    assert report.ok, report.violations
    report = validate_moduli(make_schedule(c=Listed((1.0, np.inf))), moduli,
                             horizon=1, k_cap=0)
    assert any("Cmaj fails at n=1" in v for v in report.violations)


def test_validate_moduli_catches_error_tail():
    sched = make_schedule(error=GeometricError(ratio=0.5, base=(4.0, 0.0)))
    report = validate_moduli(sched, MODULI_A, horizon=100, k_cap=8)
    assert any("error tail" in v for v in report.violations)


def test_validate_moduli_checks_constant_c():
    # c_n = 1/(n+1) first leaves c_0 at n = 1; every other hypothesis holds
    moduli = Moduli(a=2, c=200, Cmaj=Const(1), ell=Identity(),
                    Ldiv=ExpCeil(4), Gamma=Identity(), E=Const(0),
                    N1=4, N2=1, N3=4, constant_c=True)
    sched = make_schedule(c=HarmonicSeq(shift=1.0))
    report = validate_moduli(sched, moduli, horizon=100, k_cap=12)
    assert report.violations == ["c_n not constant at n=1: 0.5 != 1.0"]
    unstated = dataclasses.replace(moduli, constant_c=False)
    assert validate_moduli(sched, unstated, horizon=100, k_cap=12).ok
    stated = dataclasses.replace(MODULI_A, constant_c=True)
    assert validate_moduli(make_schedule(), stated, horizon=100, k_cap=12).ok


def test_validate_moduli_requires_horizon():
    with pytest.raises(ValueError):
        validate_moduli(make_schedule(), MODULI_A, horizon=0)


def test_validate_anchors():
    sched = make_schedule()
    ok = validate_anchors(MODULI_A, sched, u=(3.0, 2.0), z0=(0.0, 0.0),
                          s=(1.0, -1.0))
    assert ok == []
    bad = validate_anchors(MODULI_A, sched, u=(9.0, 0.0), z0=(0.0, 0.0),
                           s=(1.0, -1.0))
    assert any(msg.startswith("N1=") for msg in bad)
    assert any(msg.startswith("N3=") for msg in bad)


def test_validate_anchors_error_mass():
    sched = make_schedule(error=GeometricError(ratio=0.5, base=(3.0, 0.0)))
    small_n2 = Moduli(a=2, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=ExpCeil(4),
                      Gamma=Const(0), E=Const(7), N1=4, N2=1, N3=4)
    bad = validate_anchors(small_n2, sched, u=(3.0, 2.0), z0=(0.0, 0.0),
                           s=(1.0, -1.0))
    assert any(msg.startswith("N2=") for msg in bad)
