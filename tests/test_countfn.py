"""Counting-function nodes, budgets and the exact exponential comparisons."""

import itertools
import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppa.bounds import sigma
from mppa.countfn import (DEFAULT_MAGNITUDE_BITS, DEFAULT_MAX_CALLS, Affine,
                          BoundValue, Budget, BudgetExceededError, Closure,
                          Composed, Const, CountFn, EvalState, ExpCeil,
                          Identity, Shift, Table, ceil_ln, evaluate,
                          evaluate_each, evaluate_prefix,
                          strongly_majorizes)


def val(f: CountFn, n: int, budget=None) -> int:
    bv = evaluate(f, n, budget)
    assert bv.is_exact, f"unexpected marker {bv.render()}"
    return bv.value


# --- node semantics ----------------------------------------------------------


def test_basic_nodes():
    assert val(Const(7), 100) == 7
    assert val(Identity(), 42) == 42
    assert val(Affine(3, 2), 5) == 17
    assert val(Composed(Affine(2, 0), Affine(1, 1)), 4) == 10


def test_table_running_max_hull():
    t = Table((3, 1, 2))
    assert t.values == (3, 3, 3)
    t = Table((0, 2, 1, 5))
    assert t.values == (0, 2, 2, 5)
    assert val(t, 0) == 0
    assert val(t, 2) == 2
    assert val(t, 50) == 5  # extends by the final value


def test_node_validation():
    with pytest.raises(ValueError):
        Const(-1)
    with pytest.raises(ValueError):
        Affine(-1, 0)
    with pytest.raises(ValueError):
        Affine(0, -2)
    with pytest.raises(ValueError):
        Table(())
    with pytest.raises(ValueError):
        Table((1, -2))
    with pytest.raises(ValueError):
        Table((1, 2.5))
    with pytest.raises(ValueError):
        ExpCeil(0)
    with pytest.raises(ValueError):
        evaluate(Identity(), -1)


def test_expceil_pins():
    assert val(ExpCeil(1), 0) == 1
    assert val(ExpCeil(1), 1) == 3      # ceil(e)
    assert val(ExpCeil(4), 0) == 4
    assert val(ExpCeil(4), 1) == 11     # ceil(4e) = ceil(10.87...)
    assert val(ExpCeil(4), 2) == 30     # ceil(4e^2) = ceil(29.55...)
    assert val(ExpCeil(4), 3) == 81


def test_expceil_exponent_guard():
    # e**n needs about 1.44 n bits, so n far past the cap aborts up front.
    bv = evaluate(ExpCeil(1), 2000, Budget(magnitude_bits=64))
    assert not bv.is_exact
    assert bv.stage == "eval"


@pytest.fixture
def alarm():
    """Fail a test that runs past 5 s instead of hanging the suite: a
    negative exponent once looped for ever in the exp enclosure."""
    def expired(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: ExpCeil(1)(-1, EvalState()),
    lambda: ExpCeil(4)(-3, EvalState()),
    lambda: Table((0, 5))(-1, EvalState()),
    lambda: sigma(0, -50, ExpCeil(4), 1),
], ids=["expceil", "expceil_scaled", "table", "sigma"])
def test_negative_argument_is_rejected(alarm, call):
    with pytest.raises(ValueError, match="natural arguments"):
        call()


def test_strongly_majorizes():
    assert strongly_majorizes(Identity(), Affine(2, 1))
    assert strongly_majorizes(Const(0), Const(0))
    assert strongly_majorizes(Table((1, 0, 2)), Affine(1, 2))
    assert not strongly_majorizes(Affine(2, 1), Identity())
    assert not strongly_majorizes(Const(3), Const(0))


# --- BoundValue ---------------------------------------------------------------


def test_bound_value_invariants():
    assert BoundValue.exact(3).value == 3
    assert BoundValue.exact(0).is_exact
    marker = BoundValue.exceeded("theta")
    assert not marker.is_exact
    assert marker.stage == "theta"
    with pytest.raises(ValueError):
        BoundValue(value=None, stage=None)
    with pytest.raises(ValueError):
        BoundValue(value=3, stage="theta")
    with pytest.raises(ValueError):
        BoundValue.exact(-1)


def test_bound_value_render():
    assert BoundValue.exact(17).render() == "17"
    assert str(BoundValue.exact(17)) == "17"
    assert BoundValue.exceeded("psi").render() == "BUDGET_EXCEEDED(psi)"


# --- budgets -------------------------------------------------------------------


def test_budget_defaults_and_env():
    b = Budget()
    assert b.magnitude_bits == DEFAULT_MAGNITUDE_BITS
    assert b.max_calls == DEFAULT_MAX_CALLS


def test_eval_state_tick_and_check():
    state = EvalState(Budget(magnitude_bits=8, max_calls=3))
    state.tick(3)
    assert state.remaining() == 0
    with pytest.raises(BudgetExceededError):
        state.tick()

    state = EvalState(Budget(magnitude_bits=8, max_calls=100))
    assert state.check(256) == 256          # cap is 2**bits itself
    assert state.check(-256) == -256
    with pytest.raises(BudgetExceededError):
        state.check(257)
    with pytest.raises(BudgetExceededError):
        state.check(-257)


def test_eval_state_require():
    state = EvalState(Budget(max_calls=10))
    state.require(10)
    state.tick(5)
    with pytest.raises(BudgetExceededError):
        state.require(6)


def test_checked_pow():
    state = EvalState(Budget(magnitude_bits=16))
    assert state.checked_pow(2, 10) == 1024
    assert state.checked_pow(0, 10 ** 9) == 0   # trivial bases skip the guard
    assert state.checked_pow(1, 10 ** 9) == 1
    assert state.checked_pow(5, 0) == 1
    with pytest.raises(ValueError):
        state.checked_pow(2, -1)
    with pytest.raises(BudgetExceededError):
        state.checked_pow(2, 17)        # exponent above the bit cap
    with pytest.raises(BudgetExceededError):
        state.checked_pow(3, 16)        # materialized but over 2**16


def test_marker_carries_stage():
    state = EvalState(Budget(magnitude_bits=8, max_calls=100))
    state.stage = "theta"
    with pytest.raises(BudgetExceededError) as info:
        state.check(10 ** 9)
    assert info.value.stage == "theta"


def test_call_discipline_one_tick_per_call():
    state = EvalState()
    f = Composed(Identity(), Identity())
    assert f(5, state) == 5
    assert state.calls == 3  # outer entry + inner call + outer call


def test_magnitude_cap_on_results():
    bv = evaluate(Affine(1, 0), 10 ** 400, Budget(magnitude_bits=16))
    assert not bv.is_exact


# --- exact exponential comparisons ------------------------------------------------


def test_ceil_ln_pins():
    assert [ceil_ln(x) for x in (1, 2, 3, 4, 7, 8, 20, 21)] == \
        [0, 1, 2, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_ln(0)


@given(st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_ceil_ln_against_float_log(x):
    m = ceil_ln(x)
    # Least m with e**m >= x; verified against the float log with a band
    # wide enough that double rounding cannot flip the comparison.
    ln = math.log(x)
    assert m - 1 < ln + 1e-9
    assert m >= ln - 1e-9


def test_ceil_ln_huge_argument():
    x = 10 ** 100
    m = ceil_ln(x)
    assert m == 231  # ceil(100 ln 10) = ceil(230.25...)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_expceil_brackets_float(n, scale):
    got = val(ExpCeil(scale), n)
    approx = scale * math.exp(n)
    slack = approx * 1e-12  # float exp is only relatively accurate
    assert approx - slack <= got <= approx + 1.0 + slack


# --- monotonicity property ---------------------------------------------------------


def _fn_strategy():
    leaf = st.one_of(
        st.builds(Const, st.integers(min_value=0, max_value=9)),
        st.just(Identity()),
        st.builds(Affine, st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=9)),
        st.builds(lambda vs: Table(tuple(vs)),
                  st.lists(st.integers(min_value=0, max_value=9),
                           min_size=1, max_size=5)),
    )
    return st.recursive(
        leaf,
        lambda sub: st.builds(Composed, sub, sub),
        max_leaves=4,
    )


@given(_fn_strategy(), st.integers(min_value=0, max_value=50))
@settings(max_examples=150, deadline=None)
def test_every_node_is_monotone(f, n):
    assert val(f, n) <= val(f, n + 1)


@given(_fn_strategy(), st.integers(min_value=0, max_value=30))
@settings(max_examples=100, deadline=None)
def test_evaluation_is_reproducible(f, n):
    assert evaluate(f, n) == evaluate(f, n)


# --- bulk evaluation ---------------------------------------------------------


def per_n_prefix(f: CountFn, budget, count: int) -> tuple:
    """The per-n evaluate loop over n < count, cut at its first marker:
    (values, marker stage or None)."""
    vals = []
    for n in range(count):
        bv = evaluate(f, n, budget)
        if not bv.is_exact:
            return vals, bv.stage
        vals.append(bv.value)
    return vals, None


def bulk_prefix(f: CountFn, budget, count: int) -> tuple:
    vals = []
    try:
        for v in itertools.islice(evaluate_each(f, budget), count):
            vals.append(v)
    except BudgetExceededError as exc:
        return vals, exc.stage
    return vals, None


def staged(inner: CountFn) -> CountFn:
    """A Closure that names its own stage, as the bound formulas do."""

    def fn(n, state):
        prev = state.stage
        state.stage = "probe"
        try:
            return 2 * inner(n, state) + 1
        finally:
            state.stage = prev

    return Closure(name="probe", fn=fn)


KINDS = ("const", "identity", "affine", "table", "expceil", "composed",
         "closure", "shift")


@st.composite
def count_fns(draw, depth=2):
    """Every CountFn kind, with sizes that reach a 2**8..2**16 cap."""
    kinds = KINDS if depth else KINDS[:5]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(draw(st.integers(0, 2 ** 17)))
    if kind == "identity":
        return Identity()
    if kind == "affine":
        return Affine(draw(st.integers(0, 2 ** 12)),
                      draw(st.integers(0, 2 ** 17)))
    if kind == "table":
        return Table(tuple(draw(st.lists(st.integers(0, 2 ** 17),
                                         min_size=1, max_size=40))))
    if kind == "expceil":
        return ExpCeil(draw(st.integers(1, 50)))
    sub = count_fns(depth - 1)
    if kind == "composed":
        return Composed(draw(sub), draw(sub))
    if kind == "shift":
        return Shift(draw(sub), draw(st.integers(0, 2 ** 17)),
                     floor=draw(st.integers(0, 3)))
    return staged(draw(sub))


budgets = st.one_of(
    st.none(),
    st.builds(Budget, st.integers(8, 16),
              st.sampled_from((0, 1, 2, DEFAULT_MAX_CALLS))))


@given(count_fns(), budgets)
@settings(max_examples=300, deadline=None)
def test_evaluate_each_matches_per_n_loop(f, budget):
    assert bulk_prefix(f, budget, 300) == per_n_prefix(f, budget, 300)


@given(st.data(), budgets, st.integers(0, 300))
@settings(max_examples=300, deadline=None)
def test_strongly_majorizes_matches_per_n_loop(data, budget, upto):
    values = st.lists(st.integers(0, 2 ** 9), min_size=1, max_size=5)
    zigzag = values.map(lambda vs: Closure(
        name="zigzag", fn=lambda n, state: vs[n % len(vs)]))
    f = data.draw(st.one_of(count_fns(), zigzag))
    g = data.draw(st.one_of(count_fns(), st.just(f)))
    gs, g_stage = per_n_prefix(g, budget, upto + 1)
    fs, f_stage = per_n_prefix(f, budget, upto + 1)
    want = g_stage is None and f_stage is None \
        and all(gv <= fv for gv, fv in zip(gs, fs)) \
        and all(a <= b for a, b in zip(fs, fs[1:]))
    assert strongly_majorizes(g, f, upto, budget) == want


# Affine forms under a 2**8 or 2**9 cap: slope 0 and slope >= 1, offsets
# below, at and past the cap, and Shift's two ticks against a call cap of one.
affine_offsets = st.one_of(
    st.integers(0, 300),
    st.sampled_from((255, 256, 257, 511, 512, 513, 2 ** 17)))
affine_fns = st.one_of(
    st.builds(Const, affine_offsets),
    st.just(Identity()),
    st.builds(Affine, st.integers(0, 80), affine_offsets),
    st.builds(lambda c, o: Shift(Const(c), o), affine_offsets,
              st.integers(0, 3)),
)


@given(st.one_of(affine_fns, count_fns()),
       st.builds(Budget, st.sampled_from((8, 9)),
                 st.sampled_from((0, 1, 2, DEFAULT_MAX_CALLS))),
       st.one_of(st.just(0), st.integers(0, 300)))
@settings(max_examples=500, deadline=None)
def test_evaluate_prefix_is_evaluate_each_cut_at_the_marker(f, budget, count):
    want, _ = bulk_prefix(f, budget, count)
    assert evaluate_prefix(f, count, budget) == want


@pytest.mark.parametrize("f", [Const(3), Affine(2, 1), Shift(Const(1), 1),
                               Table((1, 2)), staged(Identity())])
def test_evaluate_prefix_refuses_a_negative_count(f):
    assert evaluate_prefix(f, 0) == []
    with pytest.raises(ValueError):
        evaluate_prefix(f, -1)


@pytest.mark.parametrize("f,budget,stage_at", [
    (Const(256), Budget(8), None),
    (Const(257), Budget(8), 0),
    (Identity(), Budget(8), 257),
    (Affine(3, 10), Budget(8), 83),
    (Affine(0, 5), Budget(8, max_calls=0), 0),
    (Table((1, 300)), Budget(8), 1),
    (staged(Identity()), Budget(8, max_calls=1), 0),
])
def test_evaluate_each_ends_at_the_first_marker(f, budget, stage_at):
    vals, stage = bulk_prefix(f, budget, 300)
    assert (vals, stage) == per_n_prefix(f, budget, 300)
    if stage_at is None:
        assert stage is None and len(vals) == 300
    else:
        assert len(vals) == stage_at and stage is not None


def test_affine_forms():
    assert Const(4).affine_form() == (0, 4, 1)
    assert Identity().affine_form() == (1, 0, 1)
    assert Affine(3, 2).affine_form() == (3, 2, 1)
    for f in (Table((1, 2)), ExpCeil(1),
              Composed(Identity(), Identity()), staged(Const(0))):
        assert f.affine_form() is None


def test_shift_node():
    assert val(Shift(Identity(), 3), 4) == 7
    assert val(Shift(Identity(), 3, floor=5), 2) == 8
    assert val(Shift(Identity(), 3, floor=5), 7) == 10
    state = EvalState()
    assert Shift(Shift(Const(1), 2), 0)(9, state) == 3
    assert state.calls == 3        # one tick per node, like a Closure
    for offset, floor in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            Shift(Const(0), offset, floor)


def test_constant_forms():
    assert Const(4).affine_form() == (0, 4, 1)
    assert Affine(0, 3).affine_form() == (0, 3, 1)
    assert Shift(Const(2), 3).affine_form() == (0, 5, 2)
    assert Shift(Shift(Affine(0, 1), 1, floor=4), 2).affine_form() == (0, 4, 3)
    for f in (Table((2, 2)), ExpCeil(1), Composed(Const(1), Const(2)),
              staged(Const(0)), Shift(Identity(), 1), Shift(Affine(2, 3), 1),
              Shift(staged(Const(0)), 1)):
        assert f.affine_form() is None


def test_evaluate_each_is_lazy():
    seen = []

    def fn(n, state):
        seen.append(n)
        return n

    values = evaluate_each(Closure(name="spy", fn=fn))
    assert list(itertools.islice(values, 3)) == [0, 1, 2]
    assert seen == [0, 1, 2]


NEGATIVE = Closure(name="neg", fn=lambda n, state: n - 1)


def test_evaluate_refuses_a_negative_value():
    assert val(NEGATIVE, 1) == 0
    with pytest.raises(ValueError, match="natural numbers, got -1"):
        evaluate(NEGATIVE, 0)


def test_evaluate_each_refuses_a_negative_value():
    # the same check as evaluate's, at the same n
    with pytest.raises(ValueError, match="natural numbers, got -1"):
        next(evaluate_each(NEGATIVE))
    values = evaluate_each(Closure(name="dip", fn=lambda n, state: 1 - n))
    assert next(values) == 1 and next(values) == 0
    with pytest.raises(ValueError, match="natural numbers, got -1"):
        next(values)
