"""Running the anchored proximal iteration and measuring what the bound
calculus predicts about it.

z_(n+1) = lambda_n u + gamma_n z_n + delta_n J_(c_n)(z_n) + e_n

`run` steps the recursion on Python floats, with one trajectory kernel per
shape of resolvent that the operator declares (see operators): a separable
operator's coordinates are stepped one at a time, each as a scalar
recurrence; a planar operator's two coordinates in one unrolled loop; an
array routine's whole points, resolved from one row of the result arrays
into another; any other operator's whole points, through its resolvent on
a list of floats.  Each kernel keeps the numpy expression's order of
operations, so all give the bits of one numpy loop.

The trace keeps every iterate together with the per-step parameters so the
empirical searches (metastability witnesses, residual window indices) and the
diagnostic inequalities can be evaluated after the fact without re-running
the operator.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from struct import Struct
from typing import Optional, TextIO

import numpy as np

from .countfn import Budget, CountFn, evaluate_each
from .operators import SLACK, ResolventOperator, as_point, row_dot, row_norm


@dataclass
class Trace:
    """Full record of one run over n = 0..horizon.

    Each derived column is computed once, on first use.  Where two columns
    are equal by construction they are one array: res_j is res_jn when jfix
    is jn, and dist_target is dist_s when the target is s.  A trace's
    arrays are never mutated in place, nor its fields reassigned once a
    column is read: a changed trace is a new one (dataclasses.replace),
    which computes its columns afresh.
    """

    op: ResolventOperator
    z: np.ndarray        # (horizon+1, dim)
    jn: np.ndarray       # J_(c_n)(z_n), same shape
    jfix: np.ndarray     # J_(1/c)(z_n) for the fixed parameter, same shape;
                         # the jn array itself when every c_n is 1/c
    lam: np.ndarray      # (horizon+1,)
    gam: np.ndarray
    delta: np.ndarray
    cs: np.ndarray
    errs: np.ndarray     # (horizon, dim), e_n consumed by step n
    u: np.ndarray
    s: Optional[np.ndarray]
    target: Optional[np.ndarray]

    @property
    def horizon(self) -> int:
        return self.z.shape[0] - 1

    @cached_property
    def dz(self) -> np.ndarray:
        """Step sizes |z_(n+1) - z_n| for n = 0..horizon-1."""
        return np.linalg.norm(np.diff(self.z, axis=0), axis=1)

    @cached_property
    def w(self) -> np.ndarray:
        """Averaged companions w_n = (z_(n+1) - gamma_n z_n)/(1 - gamma_n),
        defined for n = 0..horizon-1."""
        g = self.gam[:-1, None]
        return (self.z[1:] - g * self.z[:-1]) / (1.0 - g)

    @cached_property
    def gap(self) -> np.ndarray:
        """|w_n - z_n| for n = 0..horizon-1."""
        return np.linalg.norm(self.w - self.z[:-1], axis=1)

    @cached_property
    def res_jn(self) -> np.ndarray:
        """Running residuals |J_(c_n)(z_n) - z_n|."""
        return np.linalg.norm(self.jn - self.z, axis=1)

    @cached_property
    def res_j(self) -> np.ndarray:
        """Fixed residuals |J_(1/c)(z_n) - z_n|."""
        if self.jfix is self.jn:
            return self.res_jn
        return np.linalg.norm(self.jfix - self.z, axis=1)

    @cached_property
    def dist_s(self) -> Optional[np.ndarray]:
        if self.s is None:
            return None
        return np.linalg.norm(self.z - self.s, axis=1)

    @cached_property
    def dist_target(self) -> Optional[np.ndarray]:
        if self.target is None:
            return None
        # equal points give equal norms bit for bit: a signed zero in
        # z - p is squared away
        if self.s is not None and np.array_equal(self.target, self.s):
            return self.dist_s
        return np.linalg.norm(self.z - self.target, axis=1)


def run(op: ResolventOperator, schedule, u, z0, horizon: int, *,
        c: int = 1, s=None, target=None,
        snapshot: Optional[tuple] = None) -> Trace:
    """Run the iteration for `horizon` steps, recording iterates 0..horizon.

    `c` is the integer reciprocal floor of the parameter sequence; the fixed
    residual column uses the resolvent at 1/c.  `s` defaults to the
    operator's zero-set witness and is only used for distance reporting.
    `snapshot` is schedule.snapshot(horizon), when the caller has it.
    Raises ValueError at the first n < horizon with delta_n <= 0 or any
    n <= horizon with c_n not finite and positive, and when an iterate is
    not finite.
    """
    if horizon < 0:
        raise ValueError("horizon must be a natural number")
    if c < 1:
        raise ValueError("c must be a positive integer")
    u = as_point(u)
    z0 = as_point(z0)
    if u.shape[0] != op.dim or z0.shape[0] != op.dim:
        raise ValueError("u and z0 must match the operator dimension")
    s_pt = op.zero_set_witness if s is None else as_point(s)
    t_pt = None if target is None else as_point(target)

    if snapshot is None:
        snapshot = schedule.snapshot(horizon)
    lam, gam, delta, cs, errs = snapshot
    bad = ~((0 < cs) & (cs < np.inf))
    bad[:horizon] |= ~(delta[:horizon] > 0)
    if bad.any():
        raise ValueError(f"invalid schedule at n={int(np.argmax(bad))}")

    # The inputs were checked above, so the kernels call the unchecked
    # resolvent, in the form the operator's shape states it.
    steps = (lam.tolist(), gam.tolist(), delta.tolist(),
             cs[:horizon].tolist())
    if op._coordinate_maps is not None:
        kernel, form = _run_separable, op._coordinate_maps
    elif op._resolve_pair is not None:
        kernel, form = _run_planar, op._resolve_pair
    elif op._resolve_into is not None:
        kernel, form = _run_rows, op._resolve_into
    else:
        kernel, form = _run_points, op._resolve_floats
    zs, jn = kernel(form, u.tolist(), z0.tolist(), steps, errs,
                    float(cs[horizon]))
    if not np.isfinite(zs).all():
        raise ValueError("point has non-finite coordinates")
    # where every c_n is 1/c, J_(1/c)(z_n) is J_(c_n)(z_n), bit for bit
    if (cs == 1.0 / c).all():
        jfix = jn
    else:
        jfix = op._resolve_rows(1.0 / c, zs)
    return Trace(op=op, z=zs, jn=jn, jfix=jfix, lam=lam, gam=gam, delta=delta,
                 cs=cs, errs=errs, u=u, s=s_pt, target=t_pt)


# --- trajectory kernels ---------------------------------------------------------
#
# Each kernel steps z_(n+1) = lam_n u + gam_n z_n + delta_n J(z_n) + e_n on
# Python floats, which round each operation as numpy does, in the order of
# the numpy expression, so the iterates are the numpy loop's bits.  Only
# _run_rows leaves the floats, to resolve: it solves from one row of the
# result array into another, with no list-to-array conversion, and reads
# J's row back as floats for the update.  The error is added even where
# it is zero: -0.0 + 0.0 is +0.0.  `steps` is (lam, gam, delta, c) as
# lists, lam, gam and delta running one past the last step; `last_c` is
# c_horizon, for the final resolvent.  Each returns z and J_(c_n)(z_n) as
# (horizon + 1, dim) arrays.  A diverging iterate is caught after the
# kernel, by run.


def _run_separable(maps, u, z0, steps, errs, last_c):
    """One scalar recurrence per coordinate i, each in its own loop:
    z_i <- lam_n u_i + gam_n z_i + delta_n J_i(c_n, z_i) + e_i.  Only
    coordinate i's errors are held as floats while it runs."""
    lam, gam, delta, cs = steps
    zs = np.empty((len(cs) + 1, len(maps)))
    jn = np.empty_like(zs)
    for i, (j, ui, zi) in enumerate(zip(maps, u, z0)):
        zcol, jcol = array("d", (zi,)), array("d")
        z_append, j_append = zcol.append, jcol.append
        for lam_n, gam_n, delta_n, c_n, ei in zip(lam, gam, delta, cs,
                                                  errs[:, i].tolist()):
            ji = j(c_n, zi)
            j_append(ji)
            zi = lam_n * ui + gam_n * zi + delta_n * ji + ei
            z_append(zi)
        j_append(j(last_c, zi))
        zs[:, i] = np.frombuffer(zcol)
        jn[:, i] = np.frombuffer(jcol)
    return zs, jn


def _run_planar(pair, u, z0, steps, errs, last_c):
    """The two coordinates of a planar resolvent, stepped together."""
    lam, gam, delta, cs = steps
    u0, u1 = u
    x0, x1 = z0
    zbuf, jbuf = array("d", z0), array("d")
    for lam_n, gam_n, delta_n, c_n, e0, e1 in zip(lam, gam, delta, cs,
                                                  *errs.T.tolist()):
        j0, j1 = pair(c_n, x0, x1)
        jbuf.append(j0)
        jbuf.append(j1)
        x0 = lam_n * u0 + gam_n * x0 + delta_n * j0 + e0
        x1 = lam_n * u1 + gam_n * x1 + delta_n * j1 + e1
        zbuf.append(x0)
        zbuf.append(x1)
    jbuf.extend(pair(last_c, x0, x1))
    return (np.frombuffer(zbuf).reshape(-1, 2),
            np.frombuffer(jbuf).reshape(-1, 2))


def _run_rows(resolve_into, u, z0, steps, errs, last_c):
    """Whole points, for a resolvent stated as an array routine:
    `resolve_into` writes J_(c_n)(z_n) from row n of z into row n of J, and
    the update runs on that row's floats.  Each new iterate is packed into
    row n + 1 of z, which costs about half of assigning the list to it.
    No numpy warning is raised."""
    lam, gam, delta, cs = steps
    zs = np.empty((len(cs) + 1, len(z0)))
    jn = np.empty_like(zs)
    put = Struct(f"{len(z0)}d").pack_into
    buf, at, stride = memoryview(zs), 0, zs.strides[0]
    zs[0] = z = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for z_row, j_row, lam_n, gam_n, delta_n, c_n, e_n in zip(
                zs, jn, lam, gam, delta, cs, errs.tolist()):
            resolve_into(c_n, z_row, j_row)
            z = [lam_n * ui + gam_n * zi + delta_n * ji + ei
                 for ui, zi, ji, ei in zip(u, z, j_row.tolist(), e_n)]
            at += stride
            put(buf, at, *z)
        resolve_into(last_c, zs[-1], jn[-1])
    return zs, jn


def _run_points(resolve, u, z0, steps, errs, last_c):
    """Whole points, for a resolvent stated on a list of floats: `resolve`
    is the operator's _resolve_floats."""
    lam, gam, delta, cs = steps
    dim = len(z0)
    e_n = iter(errs.ravel().tolist())
    z = z0
    zbuf, jbuf = array("d", z), array("d")
    for lam_n, gam_n, delta_n, c_n in zip(lam, gam, delta, cs):
        jz = resolve(c_n, z)
        jbuf.extend(jz)
        # zip stops on u before it draws from e_n, so each step takes
        # exactly dim errors
        z = [lam_n * ui + gam_n * zi + delta_n * ji + ei
             for ui, zi, ji, ei in zip(u, z, jz, e_n)]
        zbuf.extend(z)
    jbuf.extend(resolve(last_c, z))
    return (np.frombuffer(zbuf).reshape(-1, dim),
            np.frombuffer(jbuf).reshape(-1, dim))


# --- empirical searches -------------------------------------------------------


# Most array elements one block of pairwise differences may hold.
_PAIR_BLOCK = 1 << 16


def _window_diameter(z: np.ndarray, lo: int, hi: int, tau: float) -> bool:
    """Is the diameter of z[lo..hi] at most tau?  A window with a NaN
    coordinate never is.

    Radius from z[lo] decides most cases: diameter lies between the radius
    and twice the radius, so only the borderline band needs exact pairwise
    distances.  Those are computed a block of rows at a time, each block's
    differences to every row in one array operation.
    """
    seg = z[lo:hi + 1]
    radius = float(np.max(np.linalg.norm(seg - z[lo], axis=1)))
    # a NaN or infinite coordinate makes the radius NaN or infinite, so
    # the band below sees finite rows only
    if not radius <= tau:
        return False
    if 2.0 * radius <= tau:
        return True
    count, dim = seg.shape
    step = max(1, _PAIR_BLOCK // (count * dim))
    for i in range(0, count, step):
        diffs = (seg[i:i + step, None] - seg[None]).reshape(-1, dim)
        if float(np.max(np.linalg.norm(diffs, axis=1))) > tau:
            return False
    return True


def empirical_metastability(z: np.ndarray, k: int, f: CountFn,
                            budget: Optional[Budget] = None) -> Optional[int]:
    """Least n whose window [n, n + f(n)] fits inside the recorded horizon
    and has diameter at most 1/(k+1); None when no such n exists."""
    if z.ndim != 2:
        raise ValueError("expected an iterate array of shape (count, dim)")
    tau = 1.0 / (k + 1)
    last = z.shape[0] - 1
    for n, fv in zip(range(last + 1), evaluate_each(f, budget)):
        if n + fv > last:
            continue
        if _window_diameter(z, n, n + fv, tau):
            return n
    return None


def empirical_window_index(values: np.ndarray, k: int, f: CountFn,
                           budget: Optional[Budget] = None) -> Optional[int]:
    """Scalar-sequence form of empirical_metastability: least n whose window
    [n, n + f(n)] fits inside the array and stays at or below 1/(k+1)."""
    if values.ndim != 1:
        raise ValueError("expected a scalar sequence")
    tau = 1.0 / (k + 1)
    last = values.shape[0] - 1
    # the indices whose value is over tau or NaN, then a sentinel; misses[p]
    # is the first of them at or past the candidate n, and as the indices
    # are distinct, one step of p keeps up with each step of n
    misses = np.flatnonzero(~(values <= tau)).tolist()
    misses.append(last + 1)
    p = 0
    for n, fv in zip(range(last + 1), evaluate_each(f, budget)):
        if misses[p] < n:
            p += 1
        if n + fv > last:
            continue
        if misses[p] > n + fv:
            return n
    return None


def asymptotic_residuals(trace: Trace) -> dict:
    """The three residual curves the regularity rates speak about."""
    return {
        "dz": trace.dz,
        "res_Jn": trace.res_jn,
        "res_J": trace.res_j,
    }


# --- diagnostic inequalities ---------------------------------------------------


def recurrence_check(trace: Trace, p, m1: int) -> float:
    """Largest violation of the one-step descent recurrence against the
    reference point p:

        s_(m+1) <= (1 - lambda_m)(s_m + v_m) + lambda_m r_m + eps_m

    with s_m = |z_m - p|^2, v_m = |J_m(p) - p| (|J_m(p) - p| + 2 |z_m - p|),
    r_m = 2 <u - p, z_(m+1) - p> and eps_m = |e_m| (M1 + 2 lambda_m |u - p|).
    Nonpositive up to rounding when p lies in the zero set; NaN when a row
    is NaN.
    """
    p = as_point(p)
    op = trace.op
    if p.size != op.dim:
        raise ValueError(f"dimension mismatch: operator is {op.dim}-dimensional")
    h = trace.horizon
    cs = trace.cs[:h]
    if not np.all(cs > 0):
        raise ValueError("resolvent parameter must be positive")
    lam = trace.lam[:h]
    # a constant c_n has one J_m(p), whose gap broadcasts over the rows
    if (cs == cs[:1]).all():
        cs = cs[:1]
    jp = np.array([op._resolve(c, p) for c in cs.tolist()]).reshape(-1, p.size)
    jgap = row_norm(jp - p)
    dist = row_norm(trace.z - p)
    dzp = dist[:-1]
    s_m = dzp * dzp
    # float_power squares through pow(), which in rare cases rounds unlike
    # x * x; the recurrence values in checks.csv are pinned to pow().
    s_m1 = np.float_power(dist[1:], 2)
    v_m = jgap * (jgap + 2.0 * dzp)
    u_p = trace.u - p
    r_m = 2.0 * row_dot(np.broadcast_to(u_p, (h, p.size)), trace.z[1:] - p)
    en = row_norm(trace.errs)
    eps = en * (m1 + 2.0 * lam * float(np.linalg.norm(u_p)))
    rhs = (1.0 - lam) * (s_m + v_m) + lam * r_m + eps
    # np.max propagates NaN, so a NaN row reports a NaN violation
    return float(np.max(s_m1 - rhs, initial=-np.inf))


def resolvent_drift_check(trace: Trace, c: int, n0: int) -> float:
    """Largest violation of

        |J_(m+1)(z_(m+1)) - J_m(z_m)| <= |z_(m+1) - z_m| + 2 c N0 |c_(m+1) - c_m|

    which is what makes the running residual inherit the step-size rate.
    A NaN row makes the result NaN."""
    lhs = np.linalg.norm(np.diff(trace.jn, axis=0), axis=1)
    cdiff = np.abs(np.diff(trace.cs))
    return float(np.max(lhs - trace.dz - 2.0 * c * n0 * cdiff,
                        initial=-np.inf))


def boundedness_check(trace: Trace, n0: int) -> float:
    """Largest excess of |z_n - s| over N0; requires a reference point s."""
    d = trace.dist_s
    if d is None:
        raise ValueError("trace has no reference point s")
    return float(np.max(d) - n0)


def wbound_check(trace: Trace, a: int, n0: int) -> float:
    """Largest excess of |w_n - s| over 2 a N0."""
    if trace.s is None:
        raise ValueError("trace has no reference point s")
    d = np.linalg.norm(trace.w - trace.s, axis=1)
    return float(np.max(d) - 2.0 * a * n0)


def gap_decrease_check(trace: Trace, nu_values: dict) -> list:
    """Check that past index nu(k) the companion gap is almost decreasing:

        |w_(n+1) - z_(n+1)| <= |w_n - z_n| + 1/(k+1)  for nu(k) <= n <= H-2.

    `nu_values` maps k to the evaluated index.  Returns located violations;
    a NaN gap inside the range counts as one.
    """
    g = trace.gap
    problems = []
    for k, start in sorted(nu_values.items()):
        tau = 1.0 / (k + 1)
        # ~(a <= b) rather than a > b, so that a NaN comparison is caught
        rose = ~(g[start + 1:] <= g[start:-1] + tau + SLACK)
        if rose.any():
            n = start + int(np.argmax(rose))
            what = ("is NaN" if np.isnan(g[n:n + 2]).any()
                    else f"rose by more than 1/{k + 1}")
            problems.append(f"gap {what} at n={n} (nu({k})={start})")
    return problems


# --- trace serialization --------------------------------------------------------


_TRACE_HEADER = "n,znorm_dist_s,dz,res_Jn,res_J,dist_target\n"

# Rows per block in write_trace_csv: it bounds the block's temporaries.
_TRACE_BLOCK = 512

# The reals _format_reals spells out itself, 1e-10 <= |x| < 1e16; the
# others (zeros, NaN, infinities, the rest) go through '%.17g' % x.  On
# this range the scale 10^p has p <= 27, so 5^p fits in 64 bits.
_REAL_MIN, _REAL_MAX = 1e-10, 1e16
# Bytes per formatted real, NUL-padded: '%.17g' writes at most 24.
_FIELD = 24

_U = np.uint64
_LO32, _32 = _U(0xFFFFFFFF), _U(32)
_POW5 = np.array([5 ** p for p in range(28)], dtype=_U)
_E16, _E17 = _U(10 ** 16), _U(10 ** 17)
# A real's source row: five words of four digits (its 17 digits after
# three leading zeros), then the other characters a field may take.
_CONSTS = b".-e0123456789\0\0\0"
_SOURCE = 20 + len(_CONSTS)
# Fields per gather in _format_reals: a field's positions take 8 bytes
# each.
_GATHER = 512


def _times_pow5(m: np.ndarray, p: np.ndarray) -> tuple:
    """m 5^p as its (low, high) uint64 limbs, for uint64 m < 2^53 and
    0 <= p <= 27, from products of 32-bit halves."""
    fl = _POW5[p]
    fh = fl >> _32
    fl &= _LO32
    ml, mh = m & _LO32, m >> _32
    lo, hi = ml * fl, mh * fh
    ml *= fh                                # the cross products
    mh *= fl
    mid = (lo >> _32) + (ml & _LO32) + (mh & _LO32)
    lo &= _LO32
    lo |= mid << _32
    hi += (ml >> _32) + (mh >> _32) + (mid >> _32)
    return lo, hi


def _scaled(m: np.ndarray, e: np.ndarray, p: np.ndarray) -> tuple:
    """floor(m 2^e 10^p) and whether rounding it half-to-even goes up, for
    uint64 m < 2^53 and int64 e and p with 0 <= p <= 27, e + p > -64 and
    a floor below 2^64.

    Every operand is uint64: numpy 1.26 makes uint64 with int64 a float64.
    """
    lo, hi = _times_pow5(m, p)
    shift = e + p
    np.negative(shift, out=shift)
    left = np.flatnonzero(shift <= 0)
    by = (-shift[left]).astype(_U)
    shift[left] = 1
    r = shift.view(_U)
    q = lo >> r
    q |= hi << (_U(64) - r)
    # a left shift is exact: m 5^p is then below 2^64, in lo
    q[left] = lo[left] << by
    lo &= (_U(1) << r) - _U(1)              # the bits shifted out
    half = _U(1) << (r - _U(1))
    up = lo > half
    tie = np.flatnonzero(lo == half)
    up[tie] = q[tie] & _U(1)
    up[left] = False
    return q, up


def _decimal(a: np.ndarray) -> tuple:
    """(D, d) with D = round-half-even(a 10^(16-d)) in [10^16, 10^17), the
    17 significant digits of '%.17g' % a, for doubles a on the range, and
    d its decimal exponent."""
    bits = a.view(_U)
    m = bits & _U((1 << 52) - 1)
    m |= _U(1 << 52)
    e = (bits >> _U(52)).view(np.int64)
    e -= 1075
    d = np.log10(a)
    d = np.floor(d, out=d).astype(np.int64)
    q, up = _scaled(m, e, 16 - d)
    # log10 may miss the exponent by one next to a power of ten.  The
    # truncated product tells which way: 10^d <= a exactly when it reaches
    # 10^16, whichever way it then rounds.
    off = (q >= _E17).astype(np.int64) - (q < _E16)
    miss = np.flatnonzero(off)
    if miss.size:
        d[miss] += off[miss]
        q[miss], up[miss] = _scaled(m[miss], e[miss], 16 - d[miss])
    # no double on the range lies within half a unit of the 17th digit
    # below a power of ten, so rounding never carries into the next decade
    q += up
    return q, d


@cache
def _digit_tables() -> tuple:
    """(digits, trailing) for 0 <= g < 10^4: digits[g] is g as four ASCII
    digits, read as one uint32, and trailing[g] counts their trailing
    zeros."""
    spelt = ["%04d" % g for g in range(10000)]
    digits = np.frombuffer("".join(spelt).encode(), dtype=np.uint32)
    trailing = np.frombuffer(bytes(4 - len(g.rstrip("0")) for g in spelt),
                             dtype=np.uint8)
    return digits, trailing


@cache
def _layout() -> np.ndarray:
    """Positions in a real's source row of '%.17g''s field, NUL-padded to
    _FIELD, at row ((d + 10) 17 + nsig - 1) 2 + sign for the exponent d
    in [-10, 15], the significant digit count nsig in 1..17 and the sign.

    %g's rules: fixed notation when -4 <= d < 17, otherwise d.ddde-XX;
    trailing zeros dropped, and the point when no fraction is left.
    """
    const = {chr(c): 20 + i for i, c in enumerate(_CONSTS)}
    table = np.full((26, 17, 2, _FIELD), const["\0"], dtype=np.uint8)
    for d in range(-10, 16):
        for nsig in range(1, 18):
            digits = list(range(3, 3 + nsig))
            if d >= 0:
                field = list(range(3, 3 + max(d + 1, nsig)))
                if nsig > d + 1:
                    field.insert(d + 1, const["."])
            elif d >= -4:
                field = [const[c] for c in "0." + "0" * (-d - 1)] + digits
            else:
                field = digits[:1] + ([const["."]] + digits[1:]
                                      if nsig > 1 else [])
                field += [const[c] for c in "e-%02d" % -d]
            for neg in (0, 1):
                row = [const["-"]] * neg + field
                table[d + 10, nsig - 1, neg, :len(row)] = row
    return table.reshape(-1, _FIELD)


def _format_reals(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each double v of x, as ASCII bytes NUL-padded to
    _FIELD, one row per value."""
    n = x.size
    a = np.abs(x)
    fall = np.flatnonzero(~((a >= _REAL_MIN) & (a < _REAL_MAX)))
    a[fall] = 1.0
    D, d = _decimal(a)
    # D's digits in five groups: the first digit, then four of four
    D = D.view(np.int64)
    groups = np.empty((n, 5), dtype=np.intp)
    groups[:, 0] = D // 10 ** 16
    D -= groups[:, 0] * 10 ** 16
    top = D // 10 ** 8
    D -= top * 10 ** 8
    groups[:, 1] = top // 10 ** 4
    groups[:, 2] = top - groups[:, 1] * 10 ** 4
    groups[:, 3] = D // 10 ** 4
    groups[:, 4] = D - groups[:, 3] * 10 ** 4
    source = np.empty((n, _SOURCE // 4), dtype=np.uint32)
    digits, trailing = _digit_tables()
    source[:, :5] = digits.take(groups)
    source[:, 5:] = np.frombuffer(_CONSTS, dtype=np.uint32)
    chars = source.view(np.uint8)
    # the significant digits end at the last one that is not 0: in the
    # last group, unless that group is 0
    nsig = 17 - trailing.take(groups[:, 4])
    zero = np.flatnonzero(groups[:, 4] == 0)
    nsig[zero] = 17 - np.argmax(chars[zero, 19:2:-1] != ord("0"), axis=1)
    key = ((d + 10) * 17 + nsig - 1) * 2 + (x < 0)
    out = np.empty((n, _FIELD), dtype=np.uint8)
    for lo in range(0, n, _GATHER):
        at = _layout().take(key[lo:lo + _GATHER], axis=0).astype(np.intp)
        at += np.arange(0, len(at) * _SOURCE, _SOURCE)[:, None]
        out[lo:lo + _GATHER] = chars[lo:lo + _GATHER].ravel().take(at)
    if fall.size:
        text = "".join(("%.17g" % v).ljust(_FIELD, "\0")
                       for v in x[fall].tolist())
        out[fall] = np.frombuffer(text.encode(), dtype=np.uint8).reshape(
            -1, _FIELD)
    return out


def _format_index(lo: int, hi: int) -> np.ndarray:
    """The integers lo..hi-1 (0 <= lo < hi) in decimal, ASCII
    right-aligned in NUL."""
    width = len(str(hi - 1))
    ns = np.arange(lo, hi)
    groups = np.empty((hi - lo, -(-width // 4)), dtype=np.intp)
    rest = ns
    for j in range(groups.shape[1] - 1, -1, -1):
        groups[:, j] = rest % 10000
        rest = rest // 10000
    chars = _digit_tables()[0].take(groups).view(np.uint8)
    digits = 1 + np.searchsorted(10 ** np.arange(1, width), ns, side="right")
    lead = chars.shape[1] - digits
    chars[np.arange(chars.shape[1]) < lead[:, None]] = 0
    return chars


def write_trace_csv(trace: Trace, fh: TextIO) -> None:
    """Write rows n,znorm_dist_s,dz,res_Jn,res_J,dist_target to fh, reals
    with 17 significant digits; dz is empty on the final row, distance
    columns empty when undefined.

    Each real is '%.17g' % x.  Rows go out in blocks of _TRACE_BLOCK, each
    laid out as one byte matrix of NUL-padded fields and written with the
    NULs taken out, so the bytes do not depend on the block size.  A
    column the trace gives twice (one array, see Trace) is formatted once
    per block and fills both slots.
    """
    h = trace.horizon
    body = [trace.dist_s, trace.dz, trace.res_jn, trace.res_j,
            trace.dist_target]
    # each distinct column, by identity, and the slots it fills
    order = {}
    for c in body:
        if c is not None:
            order.setdefault(id(c), (len(order), c))
    slots = [None if c is None else order[id(c)][0] for c in body]
    distinct = [c for _, c in order.values()]
    fh.write(_TRACE_HEADER)
    for lo in range(0, h, _TRACE_BLOCK):
        hi = min(lo + _TRACE_BLOCK, h)
        fields = _format_reals(
            np.stack([c[lo:hi] for c in distinct]).ravel()
        ).reshape(len(distinct), hi - lo, _FIELD)
        index = _format_index(lo, hi)
        at = index.shape[1]
        rows = np.zeros((hi - lo, at + len(body) * (1 + _FIELD) + 1),
                        dtype=np.uint8)
        rows[:, :at] = index
        for j in slots:
            rows[:, at] = ord(",")
            if j is not None:
                rows[:, at + 1:at + 1 + _FIELD] = fields[j]
            at += 1 + _FIELD
        rows[:, at] = ord("\n")
        fh.write(rows[rows != 0].tobytes().decode("ascii"))
    final = body[:1] + [None] + body[2:]    # no dz on the final row
    fh.write(",".join([str(h)] + ["" if c is None else "%.17g" % float(c[h])
                                  for c in final]) + "\n")
