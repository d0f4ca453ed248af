"""The quantitative bound calculus: rates of metastability and of
asymptotic regularity for the anchored multi-parameter proximal iteration.

All formulas are evaluated literally over exact integers under a shared
per-call budget (see countfn).  Two conventions keep evaluation
deterministic and let an independently written evaluator reproduce results
bit for bit, including which stage a budget marker names:

* every defined symbol inside a formula (a product R, a threshold mu(k), a
  starting index M) is computed exactly once, in definition order, and the
  value is reused;
* every loop ticks the call counter once per step and aborts to the marker
  up front when the remaining allowance is provably smaller than the loop
  length, which is the same outcome the literal loop would reach;
* theta and proj skip steps in closed form whenever their function has an
  affine form (slope s, offset b): the loop variable after j steps is a
  geometric sum, so each skips to the first step that can trip a cap,
  charges the ticks of the skipped steps (`_skip`) and runs the literal
  loop from there, so it raises where the literal loop raises.

Each formula is written once, as a body `_name(state, ...)` that bodies of
later formulas call with the state they share.  Its public entry point
`name = _entry(_name)` takes the same arguments without the state, plus a
keyword-only budget.  The threshold rates nu and mu enter other formulas
as counting functions of k (`_rate`), and their entry points evaluate them.

Deep compositions (psi and above) overflow any realistic budget by design;
the marker is the documented answer there, not a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .countfn import (BoundValue, Budget, BudgetExceededError, Closure,
                      CountFn, EvalState, Shift, _Stage, ceil_ln, evaluate)
from .schedules import Moduli, derive_constants


def _entry(body):
    """The public entry point of a formula body: evaluate it under a fresh
    EvalState(budget) and report the value, or the marker naming the stage
    where the budget ran out."""

    def entry(*args, budget: Optional[Budget] = None, **kwargs) -> BoundValue:
        state = EvalState(budget)
        try:
            return BoundValue.exact(body(state, *args, **kwargs))
        except BudgetExceededError as exc:
            return BoundValue.exceeded(exc.stage)

    entry.__name__ = entry.__qualname__ = body.__name__.lstrip("_")
    entry.__doc__ = body.__doc__
    return entry


def _skip(state: EvalState, steps: int, ticks: int, limit: int) -> int:
    """Charge the calls of the steps a loop can skip, and return their
    count: at most `steps`, no more than the calls left pay for at 1 + ticks
    calls a step, and no more than `limit`, the first step that can trip a
    magnitude check."""
    skip = min(steps, state.remaining() // (1 + ticks), limit)
    state.calls += skip * (1 + ticks)
    return skip


def _geometric(q: int, j: int) -> int:
    """1 + q + ... + q**(j-1), the sum a loop v -> q v + b from v = 0
    multiplies b by after j steps."""
    return j if q == 1 else (q ** j - 1) // (q - 1)


def _last_within(state: EvalState, steps: int, q: int,
                 value: Callable[[int], int]) -> int:
    """The largest j <= steps with value(j) at most the magnitude cap, for
    value nondecreasing in j, value(0) = 0 and value(j) >= q**(j-1) with
    q >= 2: a binary search over the j with q**(j-1) <= cap, at most
    magnitude_bits + 1 of them."""
    cap = 1 << state.magnitude_bits
    lo = 0
    hi = min(steps, state.magnitude_bits // (q.bit_length() - 1) + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if value(mid) <= cap:
            lo = mid
        else:
            hi = mid - 1
    return lo


# --- fixed points of nearby resolvents --------------------------------------

def _zeta(state: EvalState, k: int, n: int, c: int, cmaj: CountFn) -> int:
    """How far out a point may move a resolvent's fixed-point test: if x is
    1/zeta-close to fixed under J_(c_n), it is 1/(k+1)-close under J_(1/c)."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    with _Stage(state, "zeta"):
        state.tick()
        cn = cmaj(n, state)
        if cn < 1:
            raise ValueError("Cmaj must be >= 1 everywhere")
        return state.check(cn * c * (k + 1) - 1)


# --- threshold rates -----------------------------------------------------------

def _nu(state: EvalState, k: int, moduli: Moduli) -> int:
    """Threshold rate: past nu(k), consecutive averaged points w_n separate
    from consecutive iterates by at most 1/(k+1).

    The general form needs the c-step rate Gamma; when the moduli state a
    constant resolvent parameter, the Gamma term drops and the remaining
    coefficients shrink."""
    a = moduli.a
    n0 = moduli.N2 + moduli.N3
    nsum = n0 + moduli.N1 + moduli.N3
    with _Stage(state, "nu"):
        if moduli.constant_c:
            lv = moduli.ell(state.check(8 * a * nsum * (k + 1)), state)
            ev = moduli.E(state.check(4 * a * (k + 1)), state) + 1
            return max(lv, ev)
        gv = moduli.Gamma(state.check(10 * a * moduli.c * n0 * (k + 1)), state)
        lv = moduli.ell(state.check(10 * a * nsum * (k + 1)), state)
        ev = moduli.E(state.check(5 * a * (k + 1)), state) + 1
        return max(gv, lv, ev)


def _mu(state: EvalState, k: int, moduli: Moduli) -> int:
    """Threshold rate past which the two resolvent residuals (running
    parameter versus fixed parameter 1/c) stay within 1/(k+1) of each other."""
    a = moduli.a
    n0 = moduli.N2 + moduli.N3
    with _Stage(state, "mu"):
        lv = moduli.ell(state.check(4 * a * (k + 1) * (n0 + moduli.N3)), state)
        ev = moduli.E(state.check(4 * a * (k + 1)), state) + 1
        return max(lv, ev)


def _rate(body, moduli: Moduli) -> CountFn:
    """The threshold rate k -> body(k) of the moduli, as a counting function."""
    return Closure(name=body.__name__.lstrip("_"),
                   fn=lambda k, state: body(state, k, moduli))


# --- metastable convergence of monotone-ish quantities -----------------------

def _sigma(state: EvalState, k: int, n: int, ldiv: CountFn, d: int) -> int:
    """Index past which the damped recurrence has decayed its initial mass:
    sigma(k, n) = Ldiv(n + ceil_ln(4 D (k+1))) + 1."""
    if d < 1:
        raise ValueError("D must be a positive integer")
    with _Stage(state, "sigma"):
        state.tick()
        log_term = ceil_ln(state.check(4 * d * (k + 1)))
        return ldiv(state.check(n + log_term), state) + 1


# --- finite pigeonhole recursion ---------------------------------------------

def _theta(state: EvalState, k: int, m_start: int, t: int, n_cells: int,
           f: CountFn) -> int:
    """theta(k, M, t, N, f) = M + (P-1) t + r_0 where P = N (k+1), r_P = 0
    and r_i = t + r_(i+1) + f(M + (i+1) t + r_(i+1))."""
    if k < 0 or m_start < 0 or t < 1 or n_cells < 1:
        raise ValueError("theta requires k >= 0, M >= 0, t >= 1 and N >= 1")
    with _Stage(state, "theta"):
        state.tick()
        p_steps = state.check(n_cells * (k + 1))
        state.require(p_steps)
        cap = 1 << state.magnitude_bits
        skip = r = 0
        form = f.affine_form()
        if form is not None:
            # f is m -> s m + b.  Step j charges 1 + ticks calls, checks
            # M + (P-j) t + r_j, f's value and r_(j+1), and leaves
            # r_(j+1) = q r_j + base + t - s j t with q = 1 + s and
            # base = b + s (M + P t), so r_j = base (1 + q + ... + q^(j-1))
            # + j t.  Skip the steps before the first that can trip a cap and
            # run the literal loop from there.
            s, b, ticks = form
            q = 1 + s
            first_arg = m_start + p_steps * t
            base = b + s * first_arg
            if s == 0:
                # r_j = j (t + b), and the arg M + P t + j b need not stay
                # below r: the first step whose arg or r passes the cap
                limit = min(cap // (t + b), 0 if first_arg > cap
                            else (cap - first_arg) // b + 1 if b else p_steps)
            else:
                # every check of step j is at most r_(j+1), so the safe
                # steps are those before the first j with r_j over the cap,
                # and r_j >= q^(j-1) since base >= 1
                limit = _last_within(state, p_steps, q,
                                     lambda j: base * _geometric(q, j) + j * t)
            skip = _skip(state, p_steps, ticks, limit)
            r = base * _geometric(q, skip) + skip * t
        for i in range(p_steps - skip - 1, -1, -1):
            state.tick()
            arg = state.check(m_start + (i + 1) * t + r)
            r = state.check(t + r + f(arg, state))
        return state.check(m_start + (p_steps - 1) * t + r)


def _r_const(state: EvalState, a: int, k: int, t: int) -> int:
    """Cell count R(a, k, t) = t (2t+1) a**t (k+1) for the averaged-gap
    pigeonhole argument."""
    if a < 1 or t < 1:
        raise ValueError("R requires a >= 1 and t >= 1")
    with _Stage(state, "R"):
        state.tick()
        power = state.checked_pow(a, t)
        return state.check(state.check(t * (2 * t + 1)) * power * (k + 1))


# --- projection-style rates ---------------------------------------------------

def _proj_bound(state: EvalState, k: int, f: CountFn, n: int) -> int:
    """Metastability rate f**(N^2 (k+1)) (0) for the projection argument
    under exact monotone-functional interpretation of inner convexity: for
    every nonincreasing sequence (a_n) in [0, N^2] and monotone f, some
    n <= f**(N^2 (k+1)) (0) has a window [n, max(n, f(n))] on which a
    varies by at most 1/(k+1)."""
    if k < 0 or n < 1:
        raise ValueError("proj requires k >= 0 and N >= 1")
    with _Stage(state, "proj"):
        state.tick()
        r = state.check(n * n * (k + 1))
        state.require(r)
        cap = 1 << state.magnitude_bits
        skip = v = 0
        form = f.affine_form()
        if form is not None and form[1] <= cap:
            # f is v -> s v + b, so step j (from v = 0) charges 1 + ticks
            # calls and checks only the value it leaves, v_(j+1), where
            # v_j = b (1 + s + ... + s^(j-1)): b for s = 0 and j b for
            # s = 1.  Skip the steps before the first with v_(j+1) over the
            # cap (none for b = 0 or s = 0); v_j >= s^(j-1) for b >= 1.
            s, b, ticks = form
            if not b or not s:
                limit = r
            elif s == 1:
                limit = cap // b
            else:
                limit = _last_within(state, r, s,
                                     lambda j: b * _geometric(s, j))
            skip = _skip(state, r, ticks, limit)
            v = b * _geometric(s, skip) if b else 0
        for _ in range(r - skip):
            state.tick()
            v = f(v, state)
        return v


# --- averaged-gap metastability (Suzuki-style lemmas) -------------------------

def _varphi_suzuki1(state: EvalState, k: int, f: CountFn, l: int, t: int,
                    a: int, nu: CountFn, n_bound: int) -> int:
    """Witness bound for the three-way averaged-gap approximation: some
    m in [l, varphi] and cell p < R(a,k,t) N satisfy the gap sandwich."""
    if l < 0:
        raise ValueError("l must be a natural number")
    with _Stage(state, "varphi_suzuki1"):
        state.tick()
        r_cells = _r_const(state, a, k, t)
        m_start = max(a, l, nu(r_cells - 1, state))
        return _theta(state, r_cells - 1, m_start, t, n_bound, Shift(f, t))


def _chi_tilde(state: EvalState, k: int, f: CountFn, a: int, nu: CountFn,
               n_bound: int) -> int:
    """Rate of metastability for the gap |w_n - z_n| between iterates and
    their averaged companions, given a rate nu for the gap differences."""
    if n_bound < 1:
        raise ValueError("chi_tilde requires N >= 1")
    with _Stage(state, "chi_tilde"):
        state.tick()
        t = max(state.check(2 * n_bound * a * (k + 1)), 1)
        return _varphi_suzuki1(state, k, f, a, t, a, nu, 2 * n_bound)


def _chi0(state: EvalState, k: int, f: CountFn, moduli: Moduli) -> int:
    """chi_tilde instantiated with the iteration's own envelopes: the gap
    |w_n - z_n| is metastable with ball radius 2 a N0 + N1 + N3."""
    with _Stage(state, "chi0"):
        state.tick()
        n0 = moduli.N2 + moduli.N3
        n_bound = 2 * moduli.a * n0 + moduli.N1 + moduli.N3
        return _chi_tilde(state, k, f, moduli.a, _rate(_nu, moduli), n_bound)


# --- residual rates ------------------------------------------------------------

def _residual(state: EvalState, mu_level: int, chi_level: int, f: CountFn,
              moduli: Moduli) -> int:
    """max(mu(mu_level), chi0(chi_level, f~)) with f~(m) = mu + f(max(mu, m)):
    the two resolvent residual rates differ only in their two levels."""
    with _Stage(state, "xi"):
        state.tick()
        mu_val = _rate(_mu, moduli)(mu_level, state)
        chi_val = _chi0(state, state.check(chi_level),
                        Shift(f, mu_val, floor=mu_val), moduli)
        return max(mu_val, chi_val)


def _xi(state: EvalState, k: int, f: CountFn, moduli: Moduli) -> int:
    """Rate of metastability for the fixed-parameter residual
    |J_(1/c)(z_n) - z_n|: max(mu(2k+1), chi0(4a(k+1), f~_(2k+1)))."""
    return _residual(state, 2 * k + 1, 4 * moduli.a * (k + 1), f, moduli)


def _res_jn(state: EvalState, k: int, f: CountFn, moduli: Moduli) -> int:
    """Rate of metastability for the running residual |J_(c_n)(z_n) - z_n|:
    max(mu(k), chi0(2a(k+1), f~_k))."""
    return _residual(state, k, 2 * moduli.a * (k + 1), f, moduli)


# --- removal of the sequential weak compactness argument ----------------------

def _psi(state: EvalState, k: int, f: CountFn, moduli: Moduli) -> int:
    """Rate of metastability for the distance to the pinned resolvent value
    |z_n - J_(1/c)(z_n)| relative to inner products against ball points:
    psi(k, f) = xi(24 N (g_hat**R (0) + 1)^2, f + 1) with R = N^4 (k+1)^2
    and g_hat(m) = max(f(xi(24N(m+1)^2, f+1)), 24N(m+1)^2).  This squaring
    iteration of v = g_hat(v), R steps from v = 0, is what removes the weak
    compactness argument; its markers name psi's stage."""
    n_ball = derive_constants(moduli).N
    with _Stage(state, "psi"):
        state.tick()
        f1 = Shift(f, 1)
        r = state.check(state.checked_pow(n_ball, 4) * (k + 1) * (k + 1))
        state.require(r)
        v = 0
        for _ in range(r):
            state.tick()
            blown = state.check(24 * n_ball * (v + 1) * (v + 1))
            v = max(f(_xi(state, blown, f1, moduli), state), blown)
        k_top = state.check(24 * n_ball * (v + 1) * (v + 1))
        return _xi(state, k_top, f1, moduli)


def _psi_cap(state: EvalState, k: int, f: CountFn, moduli: Moduli) -> int:
    """Psi(k, f) = psi(2k+1, h) where h folds the fixed-point transfer:
    h(m) = zeta((1 + 4N)(f(m) + 1) - 1, f(m))."""
    n_ball = derive_constants(moduli).N
    with _Stage(state, "Psi"):
        state.tick()

        def h(m, st):
            fm = f(m, st)
            return _zeta(st, state.check((1 + 4 * n_ball) * (fm + 1) - 1), fm,
                         moduli.c, moduli.Cmaj)

        return _psi(state, 2 * k + 1, Closure(name="Psi.h", fn=h), moduli)


# --- the main recursion ---------------------------------------------------------

def _theta_cap(state: EvalState, k: int, f: CountFn, moduli: Moduli) -> int:
    """The outer recursion assembling the full metastability rate from Psi,
    the divergence rate Ldiv, the error-tail rate G and the squared-radius
    constant D of the moduli: Theta(k, f) = Ldiv(h(Psi(4k+3, g))) + 1 with
    h(m) = max(m, G(4k+3) + 1) + ceil_ln(4 D (k+1)) and
    g(m) = 4 (k+1) (f(Ldiv(h(m)) + 1) + 1)."""
    ctx = derive_constants(moduli)
    ldiv = moduli.Ldiv
    with _Stage(state, "Theta"):
        state.tick()
        g_val = ctx.G(state.check(4 * k + 3), state)
        log_term = ceil_ln(state.check(4 * ctx.D * (k + 1)))

        def h(m, st):
            return st.check(max(m, g_val + 1) + log_term)

        def g(m, st):
            hm = h(m, st)
            inner = ldiv(hm, st) + 1
            return st.check(4 * (k + 1) * (f(inner, st) + 1))

        witness = _psi_cap(state, state.check(4 * k + 3),
                           Closure(name="Theta.g", fn=g), moduli)
        return state.check(ldiv(h(witness, state), state) + 1)


def _phi(state: EvalState, k: int, f: CountFn, moduli: Moduli) -> int:
    """Headline rate of metastability of the iteration itself, assembled
    from the gap rate chi0 through Psi and the outer recursion Theta:
    phi(k, f) = Theta(4(k+1)^2 - 1, m -> m + f^maj(m)).  Counting functions
    are monotone by representation, so f^maj = f."""
    with _Stage(state, "phi"):
        state.tick()
        level = state.check(4 * (k + 1) * (k + 1) - 1)

        def bumped(m, st):
            return st.check(m + f(m, st))

        return _theta_cap(state, level, Closure(name="phi.bumped", fn=bumped),
                          moduli)


# --- the budgeted entry points ------------------------------------------------

zeta = _entry(_zeta)
sigma = _entry(_sigma)
theta = _entry(_theta)
r_const = _entry(_r_const)
proj_bound = _entry(_proj_bound)
varphi_suzuki1 = _entry(_varphi_suzuki1)
chi_tilde = _entry(_chi_tilde)
chi0 = _entry(_chi0)
xi = _entry(_xi)
res_jn = _entry(_res_jn)
psi = _entry(_psi)
psi_cap = _entry(_psi_cap)
theta_cap = _entry(_theta_cap)
phi = _entry(_phi)


def nu(k: int, moduli: Moduli, *, budget: Optional[Budget] = None) -> BoundValue:
    """The threshold rate nu of the moduli at k."""
    return evaluate(_rate(_nu, moduli), k, budget)


def mu(k: int, moduli: Moduli, *, budget: Optional[Budget] = None) -> BoundValue:
    """The threshold rate mu of the moduli at k."""
    return evaluate(_rate(_mu, moduli), k, budget)


def res_bounds(k: int, f: CountFn, moduli: Moduli,
               budget: Optional[Budget] = None) -> tuple:
    """Rates for the three asymptotic-regularity residuals at level k:
    step size |z_(n+1) - z_n|, running residual |J_(c_n)(z_n) - z_n|, and
    fixed residual |J_(1/c)(z_n) - z_n|."""
    return (chi0(k, f, moduli, budget=budget),
            res_jn(k, f, moduli, budget=budget),
            xi(k, f, moduli, budget=budget))


# --- the registry of named bounds --------------------------------------------

@dataclass(frozen=True)
class NamedBound:
    """One entry of BOUNDS: the inputs a config cannot supply, and the
    formula, which takes every argument of `bound` by keyword."""

    needs: tuple
    formula: Callable[..., BoundValue]


# Every formula calls the functions above by their module-global names when
# it runs, so a wrapper installed on one of them sees the call.
BOUNDS = {
    "zeta": NamedBound((), lambda k, n, moduli, budget, **_:
                       zeta(k, n, moduli.c, moduli.Cmaj, budget=budget)),
    "sigma": NamedBound((), lambda k, n, d, moduli, budget, **_:
                        sigma(k, n, moduli.Ldiv, d, budget=budget)),
    "theta": NamedBound(("f",), lambda k, n, t, n_arg, f, budget, **_:
                        theta(k, n, t, n_arg, f, budget=budget)),
    "R": NamedBound((), lambda k, t, a, budget, **_:
                    r_const(a, k, t, budget=budget)),
    "proj": NamedBound(("f",), lambda k, n_arg, f, budget, **_:
                       proj_bound(k, f, n_arg, budget=budget)),
    "varphi_suzuki1": NamedBound(
        ("f", "nu", "l"), lambda k, l, t, a, n_arg, f, nu, budget, **_:
        varphi_suzuki1(k, f, l, t, a, nu, n_arg, budget=budget)),
    "chi_tilde": NamedBound(
        ("f", "nu"), lambda k, a, n_arg, f, nu, budget, **_:
        chi_tilde(k, f, a, nu, n_arg, budget=budget)),
    "chi0": NamedBound(("f",), lambda k, f, moduli, budget, **_:
                       chi0(k, f, moduli, budget=budget)),
    "nu": NamedBound((), lambda k, moduli, budget, **_:
                     nu(k, moduli, budget=budget)),
    "mu": NamedBound((), lambda k, moduli, budget, **_:
                     mu(k, moduli, budget=budget)),
    "xi": NamedBound(("f",), lambda k, f, moduli, budget, **_:
                     xi(k, f, moduli, budget=budget)),
    "res_Jn": NamedBound(("f",), lambda k, f, moduli, budget, **_:
                         res_jn(k, f, moduli, budget=budget)),
    "psi": NamedBound(("f",), lambda k, f, moduli, budget, **_:
                      psi(k, f, moduli, budget=budget)),
    "Psi": NamedBound(("f",), lambda k, f, moduli, budget, **_:
                      psi_cap(k, f, moduli, budget=budget)),
    "Theta": NamedBound(("f",), lambda k, f, moduli, budget, **_:
                        theta_cap(k, f, moduli, budget=budget)),
    "phi": NamedBound(("f",), lambda k, f, moduli, budget, **_:
                      phi(k, f, moduli, budget=budget)),
}


def bound(name: str, *, k: int, n: int = 0, t: int = 1, l: int = 0,
          a: int = 1, d: int = 1, n_arg: int = 1, f: Optional[CountFn] = None,
          nu: Optional[CountFn] = None, moduli: Optional[Moduli] = None,
          budget: Optional[Budget] = None) -> BoundValue:
    """Evaluate the bound BOUNDS names.  The arguments and their defaults
    are those of refeval.ref_bound, with counting functions and Moduli in
    place of specs and a Budget in place of bits and calls; each formula
    reads the ones it needs."""
    if name not in BOUNDS:
        raise ValueError(f"unknown bound name: {name!r}")
    return BOUNDS[name].formula(k=k, n=n, t=t, l=l, a=a, d=d, n_arg=n_arg,
                                f=f, nu=nu, moduli=moduli, budget=budget)
