"""The bound calculus: hand pins, closed-form oracles, marker stages."""

import ast
import dataclasses
import inspect
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppa import bounds, countfn, refeval
from mppa.acceptance import _T1, moduli_from
from mppa.config import count_fn
from mppa.countfn import (Affine, BoundValue, Budget, Const, EvalState,
                          ExpCeil, Identity, Shift, Table, ceil_ln, evaluate)
from mppa.schedules import Moduli, derive_constants

BIG = Budget(magnitude_bits=4096, max_calls=10 ** 7)

MODULI_A = Moduli(a=2, c=1, Cmaj=Const(1), ell=Identity(), Ldiv=ExpCeil(4),
                  Gamma=Const(0), E=Const(0), N1=4, N2=1, N3=4)


def constant_c(moduli: Moduli) -> Moduli:
    return dataclasses.replace(moduli, constant_c=True)


@pytest.fixture(scope="module")
def toy_cc(toy_moduli) -> Moduli:
    """The toy moduli with c_n stated constant."""
    return constant_c(toy_moduli)


def exact(bv):
    assert bv.is_exact, f"unexpected marker {bv.render()}"
    return bv.value


# --- hand pins -------------------------------------------------------------------


def test_zeta_pins():
    assert exact(bounds.zeta(0, 0, 1, Const(1))) == 0
    assert exact(bounds.zeta(1, 3, 2, Affine(1, 1))) == 15
    assert exact(bounds.zeta(4, 0, 1, Const(2))) == 9


def test_zeta_validation():
    with pytest.raises(ValueError):
        bounds.zeta(0, 0, 0, Const(1))
    with pytest.raises(ValueError):
        bounds.zeta(0, 0, 1, Const(0))     # Cmaj below 1


def test_sigma_pins():
    assert exact(bounds.sigma(0, 0, Identity(), 1)) == 3
    assert exact(bounds.sigma(1, 2, Identity(), 1)) == 6
    assert exact(bounds.sigma(1, 2, ExpCeil(4), 2)) == 595
    with pytest.raises(ValueError):
        bounds.sigma(0, 0, Identity(), 0)


def test_theta_pins():
    assert exact(bounds.theta(0, 0, 1, 1, Identity())) == 2
    assert exact(bounds.theta(1, 0, 1, 1, Const(0))) == 3
    assert exact(bounds.theta(0, 0, 1, 8, Identity())) == 2055
    with pytest.raises(ValueError):
        bounds.theta(0, 0, 0, 1, Identity())
    with pytest.raises(ValueError):
        bounds.theta(0, 0, 1, 0, Identity())


def test_theta_rejects_a_negative_k():
    # a loop of N (k + 1) <= 0 steps: once a value for a meaningless input
    # (3 at k = -2), once a BoundValue error (-1 at k = -1)
    for call in (lambda: bounds.theta(-2, 5, 1, 1, Const(0)),
                 lambda: bounds.theta(-1, 0, 1, 1, Const(0)),
                 lambda: bounds.bound("theta", k=-1, f=Const(0))):
        with pytest.raises(ValueError, match="theta requires k >= 0"):
            call()


def test_theta_rejects_a_negative_start():
    # once a value for a meaningless input (4 at M = -3), once a BoundValue
    # error (-99 at M = -100)
    for m_start in (-3, -100):
        with pytest.raises(ValueError, match="theta requires .*M >= 0"):
            bounds.theta(0, m_start, 1, 4, Const(0))
    assert exact(bounds.theta(0, 0, 1, 4, Const(0))) == 7


def test_r_const_pins():
    assert exact(bounds.r_const(2, 0, 1)) == 6
    assert exact(bounds.r_const(3, 2, 4)) == 8748
    with pytest.raises(ValueError):
        bounds.r_const(0, 0, 1)
    with pytest.raises(ValueError):
        bounds.r_const(1, 0, 0)


def test_proj_pins():
    assert exact(bounds.proj_bound(0, Affine(1, 1), 1)) == 1
    assert exact(bounds.proj_bound(1, Affine(1, 1), 2)) == 8
    with pytest.raises(ValueError):
        bounds.proj_bound(0, Identity(), 0)
    # a loop of N^2 (k + 1) < 0 steps, which the skip-ahead would count
    # backwards
    with pytest.raises(ValueError, match="proj requires k >= 0"):
        bounds.proj_bound(-3, Const(5), 2)


def test_varphi_chi_validation():
    with pytest.raises(ValueError):
        bounds.varphi_suzuki1(0, Const(0), -1, 1, 1, Const(0), 1)
    with pytest.raises(ValueError):
        bounds.chi_tilde(0, Const(0), 1, Const(0), 0)


def test_res_bounds_triple(toy_cc):
    dz, jn, j = bounds.res_bounds(0, Const(0), toy_cc, budget=BIG)
    assert exact(dz) == 139188
    assert exact(jn) == 11605212
    assert exact(j) == 90023940
    # the fixed-residual slot is just xi
    assert exact(bounds.xi(0, Const(0), toy_cc, budget=BIG)) == 90023940


# --- marker stages -----------------------------------------------------------------


def test_marker_stages(toy_cc):
    assert bounds.r_const(2, 0, 5000).stage == "R"
    assert bounds.theta(10 ** 7, 0, 1, 2, Const(0)).stage == "theta"
    assert bounds.proj_bound(10 ** 7, Identity(), 2).stage == "proj"
    for fn in (bounds.psi, bounds.psi_cap, bounds.phi):
        bv = fn(0, Const(0), toy_cc)
        assert not bv.is_exact
        assert bv.stage == "theta"


def test_phi_marker_stages_on_experiment_moduli():
    moduli = constant_c(MODULI_A)
    assert bounds.phi(0, Const(0), moduli).stage == "R"
    assert bounds.phi(1, Const(0), moduli).stage == "psi"


def test_theta_cap_wiring(toy_cc):
    bv = bounds.theta_cap(0, Const(0), toy_cc)
    assert bv.stage == "theta"
    assert bounds.bound("Theta", k=0, f=Const(0), moduli=toy_cc) == bv


# --- threshold rates -----------------------------------------------------------------


def test_nu_mu_pins(toy_moduli, toy_moduli2):
    def nus(moduli):
        return [bounds.nu(k, moduli).value for k in range(3)]

    def mus(moduli):
        return [bounds.mu(k, moduli).value for k in range(3)]

    assert nus(constant_c(toy_moduli)) == [32, 64, 96]
    assert nus(toy_moduli) == [40, 80, 120]
    assert mus(toy_moduli) == [12, 24, 36]
    assert bounds.mu(5, toy_moduli).value == 72
    assert nus(constant_c(toy_moduli2)) == [64, 128, 192]
    assert nus(toy_moduli2) == [80, 160, 240]
    assert mus(toy_moduli2) == [24, 48, 72]
    assert nus(constant_c(MODULI_A)) == [208, 416, 624]
    assert nus(MODULI_A) == [260, 520, 780]
    assert mus(MODULI_A) == [72, 144, 216]


def test_nu_mu_respect_budget(toy_moduli):
    bv = bounds.nu(10 ** 500, toy_moduli, budget=Budget(magnitude_bits=64))
    assert not bv.is_exact
    assert bv.stage == "nu"
    bv = bounds.mu(10 ** 500, toy_moduli, budget=Budget(magnitude_bits=64))
    assert bv.stage == "mu"


# --- closed-form oracles -------------------------------------------------------------


def brute_theta(k, m_start, t, n_cells, f):
    """The recursion written independently, without budgets."""
    def fv(n):
        return exact(evaluate(f, n, BIG))

    p = n_cells * (k + 1)
    r = 0
    for i in range(p - 1, -1, -1):
        r = t + r + fv(m_start + (i + 1) * t + r)
    return m_start + (p - 1) * t + r


small_f = st.one_of(
    st.builds(Const, st.integers(min_value=0, max_value=3)),
    st.just(Identity()),
    st.builds(Affine, st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=3)),
    st.builds(lambda vs: Table(tuple(vs)),
              st.lists(st.integers(min_value=0, max_value=4),
                       min_size=1, max_size=4)),
)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       small_f)
@settings(max_examples=80, deadline=None)
def test_theta_matches_brute_force(k, m_start, t, n_cells, f):
    got = bounds.theta(k, m_start, t, n_cells, f, budget=BIG)
    if got.is_exact:
        assert got.value == brute_theta(k, m_start, t, n_cells, f)


# --- theta's closed form for a constant counterfunction ----------------------


def both_ways(formula, *args, budget):
    """formula with the functions' affine forms, then with every form
    hidden (the same nodes and ticks, so the literal loop runs): each
    render and final EvalState.calls."""
    patch, log = logged_states()
    with patch:
        fast = formula(*args, budget=budget)
        with mock.patch.object(Const, "affine_form", lambda self: None), \
                mock.patch.object(Identity, "affine_form", lambda self: None), \
                mock.patch.object(Affine, "affine_form", lambda self: None), \
                mock.patch.object(Shift, "affine_form", lambda self: None):
            literal = formula(*args, budget=budget)
    return (fast.render(), log[0].calls), (literal.render(), log[1].calls)


@st.composite
def constant_fns(draw):
    """Const or Affine(0, o) under 0 to 2 Shift levels."""
    value = draw(st.integers(0, 40) | st.integers(0, 2 ** 14))
    g = draw(st.sampled_from((Const(value), Affine(0, value))))
    for _ in range(draw(st.integers(0, 2))):
        g = Shift(g, draw(st.integers(0, 40) | st.integers(0, 2 ** 12)),
                  floor=draw(st.integers(0, 3)))
    return g


@given(st.integers(0, 3), st.integers(0, 40) | st.integers(0, 2 ** 15),
       st.integers(1, 4), st.integers(1, 6), constant_fns(),
       st.builds(Budget, st.integers(4, 14), st.integers(0, 150)))
@settings(max_examples=400, deadline=None)
def test_theta_closed_form_is_the_literal_loop(k, m_start, t, n_cells, g,
                                               budget):
    fast, literal = both_ways(bounds.theta, k, m_start, t, n_cells, g,
                              budget=budget)
    assert fast == literal


# One case per way the loop can end: (g, k, M, t, N, budget, render, calls).
@pytest.mark.parametrize("g,k,m_start,t,n_cells,budget,render,calls", [
    (Const(0), 0, 0, 1, 3, Budget(4, 100), "5", 7),
    (Shift(Affine(0, 1), 2, floor=3), 1, 0, 2, 2, Budget(8, 100), "26", 13),
    (Const(0), 0, 0, 1, 3, Budget(4, 5), "BUDGET_EXCEEDED(theta)", 6),
    (Const(0), 0, 0, 1, 3, Budget(4, 4), "BUDGET_EXCEEDED(theta)", 5),
    (Shift(Shift(Const(1), 2), 1), 1, 0, 2, 2, Budget(8, 11),
     "BUDGET_EXCEEDED(theta)", 12),
    (Const(2), 0, 8, 1, 4, Budget(4, 100), "BUDGET_EXCEEDED(theta)", 8),
    (Const(0), 0, 20, 1, 3, Budget(4, 100), "BUDGET_EXCEEDED(theta)", 2),
    (Const(5), 0, 0, 1, 4, Budget(4, 100), "BUDGET_EXCEEDED(theta)", 7),
    (Const(0), 0, 0, 1, 3, Budget(4, 3), "BUDGET_EXCEEDED(theta)", 1),
], ids=["exact", "exact-shifted", "cap-at-loop-tick", "cap-in-g",
        "cap-in-nested-g", "arg-check", "arg-check-at-step-0", "r-check",
        "refused-up-front"])
def test_theta_closed_form_events(g, k, m_start, t, n_cells, budget, render,
                                  calls):
    fast, literal = both_ways(bounds.theta, k, m_start, t, n_cells, g,
                              budget=budget)
    assert fast == literal == (render, calls)


# --- proj's closed form for an f of slope 0 or 1 ---------------------------


@st.composite
def slope_fns(draw):
    """A constant function as constant_fns draws it, id, or affine 1 b;
    now and then affine 2 b, which proj runs literally."""
    offset = draw(st.integers(0, 40) | st.integers(0, 2 ** 14))
    return draw(constant_fns() | st.sampled_from(
        (Identity(), Affine(1, offset), Affine(2, offset))))


@given(st.integers(0, 5), st.integers(1, 5), slope_fns(),
       st.builds(Budget, st.integers(2, 14),
                 st.integers(0, 300) | st.integers(0, 10 ** 4)))
@settings(max_examples=400, deadline=None)
def test_proj_closed_form_is_the_literal_loop(k, n, f, budget):
    fast, literal = both_ways(bounds.proj_bound, k, f, n, budget=budget)
    assert fast == literal


# One case per way the loop can end: (f, k, N, budget, render, calls).
@pytest.mark.parametrize("f,k,n,budget,render,calls", [
    (Const(3), 0, 2, Budget(8, 100), "3", 9),
    (Affine(1, 3), 1, 2, Budget(8, 100), "24", 17),
    (Affine(1, 1), 0, 2, Budget(8, 5), "BUDGET_EXCEEDED(proj)", 6),
    (Affine(1, 1), 0, 2, Budget(8, 6), "BUDGET_EXCEEDED(proj)", 7),
    (Shift(Shift(Const(1), 2), 1), 0, 2, Budget(8, 8),
     "BUDGET_EXCEEDED(proj)", 9),
    (Affine(1, 3), 0, 2, Budget(3, 100), "BUDGET_EXCEEDED(proj)", 7),
    (Affine(1, 1), 0, 2, Budget(8, 4), "BUDGET_EXCEEDED(proj)", 1),
    (Const(20), 0, 1, Budget(4, 100), "BUDGET_EXCEEDED(proj)", 3),
], ids=["exact", "exact-slope-1", "cap-at-loop-tick", "cap-in-f",
        "cap-in-nested-f", "slope-1-passes-magnitude", "refused-up-front",
        "one-step-const-over-cap"])
def test_proj_closed_form_events(f, k, n, budget, render, calls):
    fast, literal = both_ways(bounds.proj_bound, k, f, n, budget=budget)
    assert fast == literal == (render, calls)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_r_const_closed_form(a, k, t):
    assert exact(bounds.r_const(a, k, t)) == t * (2 * t + 1) * a ** t * (k + 1)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_zeta_closed_form(k, n, c, cval):
    assert exact(bounds.zeta(k, n, c, Const(cval))) == cval * c * (k + 1) - 1


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_sigma_closed_form(k, n, d):
    ldiv = Affine(3, 1)
    want = 3 * (n + ceil_ln(4 * d * (k + 1))) + 1 + 1
    assert exact(bounds.sigma(k, n, ldiv, d)) == want


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=2),
       small_f)
@settings(max_examples=60, deadline=None)
def test_proj_is_iterated_f(k, n, f):
    def fv(m):
        return exact(evaluate(f, m, BIG))

    v = 0
    for _ in range(n * n * (k + 1)):
        v = fv(v)
    assert exact(bounds.proj_bound(k, f, n, budget=BIG)) == v


def test_proj_bounds_a_window_of_every_nonincreasing_sequence():
    # proj's lemma on every nonincreasing a_0..a_3 in [0, N^2] on the grid
    # 1/3 and every monotone f with values below 4, so that every window
    # lies inside the sequence: some n <= proj(k, f, N) has
    # a_n - a_max(n, f(n)) <= 1/(k+1).  Half the steps of proj leave a
    # counterexample at N = 2, k = 0.
    length = 4
    tables = [Table(values) for values in
              itertools.combinations_with_replacement(range(length), length)]
    for n in (1, 2):
        grid = [Fraction(j, 3) for j in range(3 * n * n + 1)]
        seqs = [seq[::-1] for seq in
                itertools.combinations_with_replacement(grid, length)]
        for k in (0, 1):
            tol = Fraction(1, k + 1)
            for f in tables:
                top = exact(bounds.proj_bound(k, f, n))
                windows = [(m, max(m, f.values[m])) for m in range(top + 1)]
                for a in seqs:
                    assert any(a[m] - a[w] <= tol for m, w in windows), \
                        (n, k, f, a)


@given(st.sampled_from(((2, 0), (1, 1), (1, 2))), small_f)
@settings(max_examples=30, deadline=None)
def test_psi_is_the_squaring_iteration(nk, f):
    # xi replaced by a cheap monotone stand-in and the ball radius N set, so
    # that the loop's values stay small enough to check: R = N^4 (k+1)^2
    # steps of b = 24 N (v+1)^2, v = max(f(xi(b, f+1)), b), then
    # xi(24 N (v+1)^2, f+1)
    n, k = nk
    moduli = moduli_from(_T1)
    ctx = dataclasses.replace(derive_constants(moduli), N=n)
    wide = Budget(magnitude_bits=1 << 22)

    def fv(m):
        return exact(evaluate(f, m, wide))

    def xi(m):                  # the stand-in at f + 1
        return m + fv(m) + 1

    v = 0
    for _ in range(n ** 4 * (k + 1) ** 2):
        b = 24 * n * (v + 1) ** 2
        v = max(fv(xi(b)), b)
    with mock.patch.object(bounds, "_xi",
                           lambda st, m, g, _: st.check(m + g(m, st))), \
            mock.patch.object(bounds, "derive_constants", lambda _: ctx):
        got = exact(bounds.psi(k, f, moduli, budget=wide))
    assert got == xi(24 * n * (v + 1) ** 2)


# --- structural properties ------------------------------------------------------------


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=30, deadline=None)
def test_zeta_monotone_in_k(k):
    lo = exact(bounds.zeta(k, 2, 2, Affine(1, 1)))
    hi = exact(bounds.zeta(k + 1, 2, 2, Affine(1, 1)))
    assert lo <= hi


def test_bounds_never_share_state(toy_cc):
    # Two consecutive top-level evaluations must agree: budgets are per call.
    first = bounds.chi0(0, Const(0), toy_cc, budget=BIG)
    second = bounds.chi0(0, Const(0), toy_cc, budget=BIG)
    assert first == second
    assert exact(first) == 139188


@pytest.mark.parametrize("module, calculus", [(bounds, True),
                                              (countfn, True),
                                              (refeval, False)],
                         ids=["bounds", "countfn", "refeval"])
def test_no_float_enters_a_bound(module, calculus):
    """No numpy import in the exact evaluators; and in the calculus, no
    float literal, float() call or true division.  (refeval, the cross-check,
    cuts its expceil loop off with a float estimate.)"""
    def is_float(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            return getattr(node.func, "id", None) == "float"
        return isinstance(getattr(node, "op", None), ast.Div)

    def imports_numpy(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            return False
        return any(name.split(".")[0] == "numpy" for name in names)

    tree = ast.parse(inspect.getsource(module))
    assert [node.lineno for node in ast.walk(tree)
            if imports_numpy(node) or calculus and is_float(node)] == []


# --- the running residual ---------------------------------------------------------


rate_specs = st.sampled_from((("id",), ("const", 0), ("const", 1),
                              ("affine", 1, 1), ("affine", 2, 0)))
toy_mods = st.fixed_dictionaries({
    "a": st.integers(1, 2), "c": st.integers(1, 2), "N1": st.integers(1, 2),
    "N2": st.integers(1, 2), "N3": st.integers(1, 2),
    "Cmaj": st.sampled_from((("const", 1), ("affine", 1, 1))),
    "ell": rate_specs, "L": rate_specs, "Gamma": rate_specs, "E": rate_specs})


def logged_states():
    """A patch of the bound calculus's EvalState that records every state
    an evaluation creates, so its ticks can be read afterwards."""
    log = []

    class Logged(EvalState):
        __slots__ = ()

        def __init__(self, budget=None):
            super().__init__(budget)
            log.append(self)

    return mock.patch.object(bounds, "EvalState", Logged), log


# The drawn cases all end in markers; an exact value needs a constant f and
# about 378k ticks, so the T1 battery moduli pin one (k = 0, f = const 0),
# one call short of it, and one under a magnitude cap it passes.
@given(toy_mods, st.integers(0, 2), rate_specs, st.booleans(),
       st.builds(Budget, st.integers(16, 4096), st.integers(0, 50_000)))
@example(_T1, 0, ("const", 0), True, Budget(4096, 400_000))
@example(_T1, 0, ("const", 0), True, Budget(4096, 378_443))
@example(_T1, 0, ("const", 1), False, Budget(20, 400_000))
@settings(max_examples=40, deadline=None)
def test_res_jn_is_the_middle_of_res_bounds(mod, k, f_spec, constant_c,
                                            budget):
    moduli, f = moduli_from(mod, constant_c), count_fn(f_spec)
    patch, log = logged_states()
    with patch:
        alone = bounds.res_jn(k, f, moduli, budget=budget)
        ticks = log[-1].calls
        triple = bounds.res_bounds(k, f, moduli, budget)
    assert len(log) == 4
    assert alone == triple[1]
    assert ticks == log[2].calls
    # and both are the reference evaluator's running residual, tick for tick
    ref_mod = {key: refeval.make_fn(v) if isinstance(v, tuple) else v
               for key, v in mod.items()}
    st_ref = refeval.RefState(budget.magnitude_bits, budget.max_calls)
    try:
        want = BoundValue.exact(refeval.ref_res_jn(
            st_ref, k, refeval.make_fn(f_spec), ref_mod, constant_c))
    except refeval._Abort as exc:
        want = BoundValue.exceeded(exc.stage)
    assert alone == want
    assert ticks == st_ref.used
