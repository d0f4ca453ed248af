"""A second, independently structured evaluator for the bound calculus.

The production calculus builds counting-function objects and threads one
evaluation state through them.  This module re-derives every formula with
plain recursive functions over plain callables, its own budget bookkeeping
and its own rational enclosures for the exponential comparisons.  The two
implementations share only the published evaluation contract:

* one budget tick at each named formula entry, one per loop step, one per
  counting-function call;
* every produced value is bounded by 2**magnitude_bits;
* powers with exponent above magnitude_bits (base >= 2) and loops longer
  than the remaining allowance abort to the marker without running;
* markers carry the innermost named formula active at abort time.

Agreement between the two evaluators, value for value and marker for
marker, is what the equivalence battery certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

RefFn = Callable[["RefState", int], int]


@dataclass(frozen=True)
class RefResult:
    value: Optional[int]
    stage: Optional[str]

    @property
    def is_exact(self) -> bool:
        return self.stage is None

    def render(self) -> str:
        if self.is_exact:
            return str(self.value)
        return f"BUDGET_EXCEEDED({self.stage})"


class _Abort(Exception):
    def __init__(self, stage: str):
        self.stage = stage
        super().__init__(stage)


class RefState:
    def __init__(self, bits: int, calls: int):
        self.bits = bits
        self.cap = 1 << bits
        self.limit = calls
        self.used = 0
        self.stage = "eval"

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _Abort(self.stage)

    def require(self, count: int) -> None:
        if count > self.limit - self.used:
            raise _Abort(self.stage)

    def chk(self, value: int) -> int:
        if value > self.cap or -value > self.cap:
            raise _Abort(self.stage)
        return value

    def pow(self, base: int, exp: int) -> int:
        if exp < 0:
            raise ValueError("negative exponent")
        if base in (0, 1) or exp == 0:
            return base ** exp
        if exp > self.bits:
            raise _Abort(self.stage)
        return self.chk(base ** exp)

    def invoke(self, fn: RefFn, n: int) -> int:
        """Counting-function call discipline: tick, evaluate, bound-check."""
        self.tick()
        return self.chk(fn(self, n))


def _enter(st: RefState, name: str) -> str:
    prev = st.stage
    st.stage = name
    st.tick()
    return prev


# --- rational enclosures for e**m --------------------------------------------


def _e_bracket(terms: int) -> tuple:
    lo = sum(Fraction(1, factorial(i)) for i in range(terms + 1))
    return lo, lo + Fraction(2, factorial(terms + 1))


def ref_ceil_ln(x: int) -> int:
    """Least m with e**m >= x, via exact fraction brackets."""
    if x < 1:
        raise ValueError("ceil_ln requires x >= 1")
    if x == 1:
        return 0
    terms = 12
    while True:
        e_lo, e_hi = _e_bracket(terms)
        p_lo, p_hi = Fraction(1), Fraction(1)
        m = 0
        stuck = False
        while True:
            m += 1
            p_lo *= e_lo
            p_hi *= e_hi
            if p_lo >= x:
                return m
            if p_hi < x:
                continue
            stuck = True
            break
        if stuck:
            terms += 8


def _ref_expceil(scale: int) -> RefFn:
    def fn(st: RefState, n: int) -> int:
        if n == 0:
            return scale
        if n > int(1.4427 * st.bits) + 2:
            raise _Abort(st.stage)
        terms = 12
        while True:
            e_lo, e_hi = _e_bracket(terms)
            v_lo = scale * e_lo ** n
            v_hi = scale * e_hi ** n
            c_lo = -((-v_lo.numerator) // v_lo.denominator)
            c_hi = -((-v_hi.numerator) // v_hi.denominator)
            if c_lo == c_hi:
                return c_lo
            terms += 8
    return fn


# --- plain-callable forms of the grammar nodes --------------------------------


def make_fn(spec) -> RefFn:
    """Build a RefFn from a portable description shared with the battery:
    ("const", k) | ("id",) | ("affine", a, b) | ("table", (...,)) |
    ("expceil", a).  Call sites go through RefState.invoke."""
    kind = spec[0]
    if kind == "const":
        value = spec[1]
        return lambda st, n: value
    if kind == "id":
        return lambda st, n: n
    if kind == "affine":
        slope, offset = spec[1], spec[2]
        return lambda st, n: slope * n + offset
    if kind == "table":
        hull = []
        top = 0
        for v in spec[1]:
            top = max(top, v)
            hull.append(top)
        values = tuple(hull)
        return lambda st, n: values[min(n, len(values) - 1)]
    if kind == "expceil":
        return _ref_expceil(spec[1])
    raise ValueError(f"unknown function spec: {spec!r}")


# --- the formulas, re-derived ---------------------------------------------------


def ref_zeta(st: RefState, k: int, n: int, c: int, cmaj: RefFn) -> int:
    prev = _enter(st, "zeta")
    try:
        cn = st.invoke(cmaj, n)
        return st.chk(cn * c * (k + 1) - 1)
    finally:
        st.stage = prev


def ref_sigma(st: RefState, k: int, n: int, ldiv: RefFn, d: int) -> int:
    prev = _enter(st, "sigma")
    try:
        shift = ref_ceil_ln(st.chk(4 * d * (k + 1)))
        return st.invoke(ldiv, st.chk(n + shift)) + 1
    finally:
        st.stage = prev


def ref_theta(st: RefState, k: int, m_start: int, t: int, n_cells: int,
              f: RefFn) -> int:
    prev = _enter(st, "theta")
    try:
        p_steps = st.chk(n_cells * (k + 1))
        st.require(p_steps)
        rest = 0
        for i in range(p_steps - 1, -1, -1):
            st.tick()
            arg = st.chk(m_start + (i + 1) * t + rest)
            rest = st.chk(t + rest + st.invoke(f, arg))
        return st.chk(m_start + (p_steps - 1) * t + rest)
    finally:
        st.stage = prev


def ref_r_const(st: RefState, a: int, k: int, t: int) -> int:
    prev = _enter(st, "R")
    try:
        power = st.pow(a, t)
        return st.chk(st.chk(t * (2 * t + 1)) * power * (k + 1))
    finally:
        st.stage = prev


def ref_proj(st: RefState, k: int, f: RefFn, n: int) -> int:
    prev = _enter(st, "proj")
    try:
        rounds = st.chk(n * n * (k + 1))
        st.require(rounds)
        v = 0
        for _ in range(rounds):
            st.tick()
            v = st.invoke(f, v)
        return v
    finally:
        st.stage = prev


def ref_varphi_suzuki1(st: RefState, k: int, f: RefFn, l: int, t: int,
                       a: int, nu: RefFn, n_bound: int) -> int:
    prev = _enter(st, "varphi_suzuki1")
    try:
        cells = ref_r_const(st, a, k, t)
        m_start = max(a, l, st.invoke(nu, cells - 1))

        def widened(s2: RefState, m: int) -> int:
            return s2.chk(t + s2.invoke(f, m))

        return ref_theta(st, cells - 1, m_start, t, n_bound, widened)
    finally:
        st.stage = prev


def ref_chi_tilde(st: RefState, k: int, f: RefFn, a: int, nu: RefFn,
                  n_bound: int) -> int:
    prev = _enter(st, "chi_tilde")
    try:
        t = max(st.chk(2 * n_bound * a * (k + 1)), 1)
        return ref_varphi_suzuki1(st, k, f, a, t, a, nu, 2 * n_bound)
    finally:
        st.stage = prev


def _ref_nu(mod: dict, constant_c: bool) -> RefFn:
    a = mod["a"]
    n0 = mod["N2"] + mod["N3"]
    nsum = n0 + mod["N1"] + mod["N3"]

    if constant_c:
        def fn(st: RefState, k: int) -> int:
            prev = st.stage
            st.stage = "nu"
            try:
                lv = st.invoke(mod["ell"], st.chk(8 * a * nsum * (k + 1)))
                ev = st.invoke(mod["E"], st.chk(4 * a * (k + 1))) + 1
                return max(lv, ev)
            finally:
                st.stage = prev
    else:
        def fn(st: RefState, k: int) -> int:
            prev = st.stage
            st.stage = "nu"
            try:
                gv = st.invoke(mod["Gamma"],
                               st.chk(10 * a * mod["c"] * n0 * (k + 1)))
                lv = st.invoke(mod["ell"], st.chk(10 * a * nsum * (k + 1)))
                ev = st.invoke(mod["E"], st.chk(5 * a * (k + 1))) + 1
                return max(gv, lv, ev)
            finally:
                st.stage = prev
    return fn


def _ref_mu(mod: dict) -> RefFn:
    a = mod["a"]
    n0 = mod["N2"] + mod["N3"]

    def fn(st: RefState, k: int) -> int:
        prev = st.stage
        st.stage = "mu"
        try:
            lv = st.invoke(mod["ell"],
                           st.chk(4 * a * (k + 1) * (n0 + mod["N3"])))
            ev = st.invoke(mod["E"], st.chk(4 * a * (k + 1))) + 1
            return max(lv, ev)
        finally:
            st.stage = prev
    return fn


def ref_chi0(st: RefState, k: int, f: RefFn, mod: dict,
             constant_c: bool) -> int:
    prev = _enter(st, "chi0")
    try:
        n0 = mod["N2"] + mod["N3"]
        ball = 2 * mod["a"] * n0 + mod["N1"] + mod["N3"]
        return ref_chi_tilde(st, k, f, mod["a"], _ref_nu(mod, constant_c),
                             ball)
    finally:
        st.stage = prev


def _shifted(mu_val: int, f: RefFn) -> RefFn:
    def fn(st: RefState, m: int) -> int:
        return st.chk(mu_val + st.invoke(f, max(mu_val, m)))
    return fn


def ref_xi(st: RefState, k: int, f: RefFn, mod: dict,
           constant_c: bool) -> int:
    prev = _enter(st, "xi")
    try:
        mu_val = st.invoke(_ref_mu(mod), 2 * k + 1)
        chi_val = ref_chi0(st, st.chk(4 * mod["a"] * (k + 1)),
                           _shifted(mu_val, f), mod, constant_c)
        return max(mu_val, chi_val)
    finally:
        st.stage = prev


def ref_res_jn(st: RefState, k: int, f: RefFn, mod: dict,
               constant_c: bool) -> int:
    prev = _enter(st, "xi")
    try:
        mu_val = st.invoke(_ref_mu(mod), k)
        chi_val = ref_chi0(st, st.chk(2 * mod["a"] * (k + 1)),
                           _shifted(mu_val, f), mod, constant_c)
        return max(mu_val, chi_val)
    finally:
        st.stage = prev


def _derived(mod: dict) -> dict:
    n0 = mod["N2"] + mod["N3"]
    n = max(2 * mod["N3"], n0)
    m1 = 3 * mod["N2"] + 4 * n
    m2 = m1 + 2 * (mod["N3"] + n)
    return {"N0": n0, "N": n, "M1": m1, "M2": m2, "D": 4 * n * n}


def ref_psi(st: RefState, k: int, f: RefFn, mod: dict,
            constant_c: bool) -> int:
    n_ball = _derived(mod)["N"]
    prev = _enter(st, "psi")
    try:
        def bumped(s2: RefState, m: int) -> int:
            return s2.invoke(f, m) + 1

        rounds = st.chk(st.pow(n_ball, 4) * (k + 1) * (k + 1))
        st.require(rounds)
        v = 0
        for _ in range(rounds):
            st.tick()
            blown = st.chk(24 * n_ball * (v + 1) * (v + 1))
            inner = ref_xi(st, blown, bumped, mod, constant_c)
            v = max(st.invoke(f, inner), blown)
        top = st.chk(24 * n_ball * (v + 1) * (v + 1))
        return ref_xi(st, top, bumped, mod, constant_c)
    finally:
        st.stage = prev


def ref_psi_cap(st: RefState, k: int, f: RefFn, mod: dict,
                constant_c: bool) -> int:
    n_ball = _derived(mod)["N"]
    prev = _enter(st, "Psi")
    try:
        def folded(s2: RefState, m: int) -> int:
            fm = s2.invoke(f, m)
            return ref_zeta(s2, s2.chk((1 + 4 * n_ball) * (fm + 1) - 1),
                            fm, mod["c"], mod["Cmaj"])

        return ref_psi(st, 2 * k + 1, folded, mod, constant_c)
    finally:
        st.stage = prev


def _ref_g_rate(mod: dict) -> RefFn:
    m2 = _derived(mod)["M2"]

    def scale(st: RefState, n: int) -> int:
        return m2 * n + m2

    def fn(st: RefState, n: int) -> int:
        return st.invoke(mod["E"], st.invoke(scale, n))
    return fn


def ref_theta_cap(st: RefState, k: int, f: RefFn, ldiv: RefFn,
                  psi_fn, g_rate: RefFn, d: int) -> int:
    prev = _enter(st, "Theta")
    try:
        g_val = st.invoke(g_rate, st.chk(4 * k + 3))
        shift = ref_ceil_ln(st.chk(4 * d * (k + 1)))

        def clamp(m: int) -> int:
            return st.chk(max(m, g_val + 1) + shift)

        def probe(s2: RefState, m: int) -> int:
            inner = s2.invoke(ldiv, clamp(m)) + 1
            return s2.chk(4 * (k + 1) * (s2.invoke(f, inner) + 1))

        witness = psi_fn(st, st.chk(4 * k + 3), probe)
        return st.chk(st.invoke(ldiv, clamp(witness)) + 1)
    finally:
        st.stage = prev


def ref_phi(st: RefState, k: int, f: RefFn, mod: dict,
            constant_c: bool) -> int:
    der = _derived(mod)
    prev = _enter(st, "phi")
    try:
        level = st.chk(4 * (k + 1) * (k + 1) - 1)

        def bumped(s2: RefState, m: int) -> int:
            return s2.chk(m + s2.invoke(f, m))

        def psi_fn(s2: RefState, kk: int, ff: RefFn) -> int:
            return ref_psi_cap(s2, kk, ff, mod, constant_c)

        return ref_theta_cap(st, level, bumped, mod["L"], psi_fn,
                             _ref_g_rate(mod), der["D"])
    finally:
        st.stage = prev


# --- entry point ------------------------------------------------------------------


def ref_bound(name: str, *, k: int, n: int = 0, t: int = 1, l: int = 0,
              a: int = 1, d: int = 1, n_arg: int = 1, f=None, nu=None,
              mod: Optional[dict] = None, constant_c: bool = False,
              bits: int = 4096, calls: int = 10 ** 7) -> RefResult:
    """Evaluate one named bound from portable specs.

    `f` and `nu` are specs accepted by make_fn; `mod` maps the moduli keys
    (a, c, N1, N2, N3 as ints; Cmaj, ell, L, Gamma, E as specs)."""
    ffn = make_fn(f) if f is not None else None
    nufn = make_fn(nu) if nu is not None else None
    rmod = None
    if mod is not None:
        rmod = dict(mod)
        for key in ("Cmaj", "ell", "L", "Gamma", "E"):
            rmod[key] = make_fn(mod[key])
    st = RefState(bits, calls)
    try:
        if name == "zeta":
            out = ref_zeta(st, k, n, rmod["c"], rmod["Cmaj"])
        elif name == "sigma":
            out = ref_sigma(st, k, n, rmod["L"], d)
        elif name == "theta":
            out = ref_theta(st, k, n, t, n_arg, ffn)
        elif name == "R":
            out = ref_r_const(st, a, k, t)
        elif name == "proj":
            out = ref_proj(st, k, ffn, n_arg)
        elif name == "varphi_suzuki1":
            out = ref_varphi_suzuki1(st, k, ffn, l, t, a, nufn, n_arg)
        elif name == "chi_tilde":
            out = ref_chi_tilde(st, k, ffn, a, nufn, n_arg)
        elif name == "chi0":
            out = ref_chi0(st, k, ffn, rmod, constant_c)
        elif name == "nu":
            out = st.invoke(_ref_nu(rmod, constant_c), k)
        elif name == "mu":
            out = st.invoke(_ref_mu(rmod), k)
        elif name == "xi":
            out = ref_xi(st, k, ffn, rmod, constant_c)
        elif name == "res_Jn":
            out = ref_res_jn(st, k, ffn, rmod, constant_c)
        elif name == "psi":
            out = ref_psi(st, k, ffn, rmod, constant_c)
        elif name == "Psi":
            out = ref_psi_cap(st, k, ffn, rmod, constant_c)
        elif name == "phi":
            out = ref_phi(st, k, ffn, rmod, constant_c)
        else:
            raise ValueError(f"unknown bound name: {name!r}")
        return RefResult(value=out, stage=None)
    except _Abort as exc:
        return RefResult(value=None, stage=exc.stage)
