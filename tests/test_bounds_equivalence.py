"""Two independently written evaluators against one frozen outcome table.

Every battery instance is pinned to its expected rendering (exact value or
budget marker), and both evaluators must reproduce it.  The tick-parity
block goes further: on shared instances the two implementations must spend
exactly the same number of budget ticks, which is what makes marker
placement deterministic rather than accidental.
"""

import itertools
from unittest import mock

import pytest

from mppa import bounds, countfn, refeval
from mppa.acceptance import (_F_FAMILIES, _K_FAMILIES, BATTERY, HAND_PINS,
                             production_bound)
from mppa.bounds import BOUNDS, _chi0, _sigma, _theta, _varphi_suzuki1, _xi
from mppa.countfn import Affine, Budget, Const, EvalState, ExpCeil
from mppa.acceptance import moduli_from, _T1

# index -> expected rendering, frozen from the shipped battery
FROZEN = (
    "0",
    "15",
    "3",
    "11",
    "2",
    "1096",
    "16",
    "6",
    "8748",
    "BUDGET_EXCEEDED(R)",
    "1",
    "8",
    "135239930216522",
    "1729",
    "139188",
    "BUDGET_EXCEEDED(theta)",
    "320",
    "72",
    "90459540",
    "11605212",
    "BUDGET_EXCEEDED(theta)",
    "BUDGET_EXCEEDED(theta)",
    "BUDGET_EXCEEDED(theta)",
)


# Test ids number the battery in order.  The number of a removed instance is
# retired rather than reused, so that an id always names the same instance.
RETIRED = (12, 13)


def ids():
    numbers = (n for n in itertools.count() if n not in RETIRED)
    return [f"{n:02d}-{inst['name']}" for n, inst in zip(numbers, BATTERY)]


def test_battery_shape():
    assert len(BATTERY) == len(FROZEN) == 23
    markers = sum(1 for text in FROZEN if text.startswith("BUDGET_EXCEEDED"))
    assert markers == 5


def test_every_battery_name_is_registered():
    names = {inst["name"] for inst in BATTERY}
    names |= {name for name, _ in _K_FAMILIES + _F_FAMILIES}
    names |= {inst["name"] for _, inst, _ in HAND_PINS}
    assert names <= set(BOUNDS)


@pytest.mark.parametrize("index", range(len(BATTERY)), ids=ids())
def test_production_matches_frozen(index):
    assert production_bound(BATTERY[index]).render() == FROZEN[index]


@pytest.mark.parametrize("index", range(len(BATTERY)), ids=ids())
def test_reference_matches_frozen(index):
    assert refeval.ref_bound(**BATTERY[index]).render() == FROZEN[index]


# --- tick parity -----------------------------------------------------------------


def _ref_mod(mod):
    built = dict(mod)
    for key in ("Cmaj", "ell", "L", "Gamma", "E"):
        built[key] = refeval.make_fn(mod[key])
    return built


# (label, production closure, reference closure, value, ticks)
PARITY = (
    ("sigma(1,2,expceil4,2)",
     lambda st: _sigma(st, 1, 2, ExpCeil(4), 2),
     lambda st: refeval.ref_sigma(st, 1, 2, refeval.make_fn(("expceil", 4)), 2),
     595, 2),
    ("theta(2,3,2,2,affine12)",
     lambda st: _theta(st, 2, 3, 2, 2, Affine(1, 2)),
     lambda st: refeval.ref_theta(st, 2, 3, 2, 2,
                                  refeval.make_fn(("affine", 1, 2))),
     1096, 13),
    ("varphi(0,affine12,1,2,2,affine10,1)",
     lambda st: _varphi_suzuki1(st, 0, Affine(1, 2), 1, 2, 2, Affine(1, 0), 1),
     lambda st: refeval.ref_varphi_suzuki1(
         st, 0, refeval.make_fn(("affine", 1, 2)), 1, 2, 2,
         refeval.make_fn(("affine", 1, 0)), 1),
     135239930216522, 124),
    ("chi0(0,const0,T1,cc)",
     lambda st: _chi0(st, 0, Const(0), moduli_from(_T1, True)),
     lambda st: refeval.ref_chi0(st, 0, refeval.make_fn(("const", 0)),
                                 _ref_mod(_T1), True),
     139188, 10808),
    ("xi(0,const1,T1,cc)",
     lambda st: _xi(st, 0, Const(1), moduli_from(_T1, True)),
     lambda st: refeval.ref_xi(st, 0, refeval.make_fn(("const", 1)),
                               _ref_mod(_T1), True),
     90459540, 1742412),
)


@pytest.mark.parametrize("case", PARITY, ids=[c[0] for c in PARITY])
def test_tick_parity(case):
    _, prod_fn, ref_fn, value, ticks = case

    state = EvalState()
    assert prod_fn(state) == value
    assert state.calls == ticks

    st = refeval.RefState(4096, 10 ** 7)
    assert ref_fn(st) == value
    assert st.used == ticks


def test_marker_parity_includes_tick_budget():
    # A tightened call budget must strand both evaluators at the same stage.
    tight = 5000
    inst = next(inst for inst in BATTERY if inst["name"] == "chi0")
    bv = production_bound(dict(inst),
                          budget=Budget(magnitude_bits=4096, max_calls=tight))
    rv = refeval.ref_bound(calls=tight, **inst)
    assert not bv.is_exact and not rv.is_exact
    assert bv.stage == rv.stage


SWEEP_BITS = (16, 64, 4096)
SWEEP_CALLS = tuple(range(0, 400, 3)) + (10 ** 3, 5 * 10 ** 3, 2 * 10 ** 4,
                                         10 ** 5, 10 ** 7)


@pytest.mark.parametrize("index", range(len(BATTERY)), ids=ids())
def test_evaluators_agree_at_every_budget(index):
    # Under every swept budget both evaluators render the same value or
    # marker and spend the same ticks; most budgets end in a marker.
    prod_log, ref_log = [], []

    class LoggedState(EvalState):
        __slots__ = ()

        def __init__(self, budget=None):
            super().__init__(budget)
            prod_log.append(self)

    class LoggedRefState(refeval.RefState):
        def __init__(self, bits, calls):
            super().__init__(bits, calls)
            ref_log.append(self)

    inst = BATTERY[index]
    mismatches = []
    # nu and mu evaluate through countfn.evaluate, the rest through bounds
    with mock.patch.object(bounds, "EvalState", LoggedState), \
            mock.patch.object(countfn, "EvalState", LoggedState), \
            mock.patch.object(refeval, "RefState", LoggedRefState):
        for bits in SWEEP_BITS:
            for calls in SWEEP_CALLS:
                prod_log.clear()
                ref_log.clear()
                got = production_bound(inst, Budget(bits, calls)).render()
                want = refeval.ref_bound(bits=bits, calls=calls,
                                         **inst).render()
                if (got, prod_log[-1].calls) != (want, ref_log[-1].used):
                    mismatches.append(
                        f"bits={bits} calls={calls}: {got} after "
                        f"{prod_log[-1].calls} ticks, reference {want} after "
                        f"{ref_log[-1].used}")
    assert not mismatches, mismatches[:5]


def test_ref_ceil_ln_matches_production():
    from mppa.countfn import ceil_ln
    for x in (1, 2, 3, 4, 8, 20, 21, 1000, 10 ** 12):
        assert refeval.ref_ceil_ln(x) == ceil_ln(x)
