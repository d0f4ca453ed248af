"""Operators: closed-form resolvents, witness validation, shared identities."""

import itertools
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mppa.operators import (INEQ_TOL, SLACK, BallProjection, BoxProjection,
                            LinearPSD, QuadraticProx, Rotation2D, as_point,
                            check_resolvent_identity, excess, row_dot,
                            row_norm, sq_dist)

RNG = np.random.default_rng(11)


def all_operators():
    return (
        QuadraticProx(center=(1.0, -1.0), weight=1.0),
        QuadraticProx(center=(0.0, 2.0, 1.0), weight=0.3),
        BallProjection(center=(0.0, 0.0), radius=1.0),
        BoxProjection(lo=(-1.0, 0.0), hi=(1.0, 2.0)),
        LinearPSD(matrix=((1.0, 0.0), (0.0, 2.0))),
        Rotation2D(),
    )


# --- points ----------------------------------------------------------------


def test_the_numpy_binding_is_numpy_after_its_first_read():
    # operators binds np to a stand-in that imports numpy when first read,
    # then puts numpy in its place in each mppa module that imported it,
    # so the step loops read numpy itself
    from mppa import operators, oracle, schedules
    as_point((0.0,))
    assert operators.np is schedules.np is oracle.np is np


def test_as_point():
    assert as_point(3.0).shape == (1,)
    assert as_point((1, 2)).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        as_point(((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        as_point((1.0, float("nan")))
    with pytest.raises(ValueError):
        as_point(())


# --- constructor validation --------------------------------------------------


def test_quadratic_prox_resolvent():
    op = QuadraticProx(center=(1.0, -1.0), weight=1.0)
    got = op.resolvent(1.0, (0.0, 0.0))
    assert np.allclose(got, (0.5, -0.5))
    got = op.resolvent(3.0, (5.0, 3.0))   # (x + cw m)/(1 + cw)
    assert np.allclose(got, ((5 + 3) / 4.0, (3 - 3) / 4.0))
    with pytest.raises(ValueError):
        QuadraticProx(center=(0.0,), weight=0.0)


def test_zero_witness_is_validated():
    with pytest.raises(ValueError):
        QuadraticProx(center=(1.0, -1.0), zero_set_witness=(0.0, 0.0))
    with pytest.raises(ValueError):
        BallProjection(center=(0.0, 0.0), radius=1.0,
                       zero_set_witness=(2.0, 0.0))
    with pytest.raises(ValueError):
        LinearPSD(matrix=((1.0, 0.0), (0.0, 2.0)),
                  zero_set_witness=(1.0, 0.0))
    # A genuine zero is accepted.
    op = BallProjection(center=(0.0, 0.0), radius=1.0,
                        zero_set_witness=(1.0, 0.0))
    assert np.allclose(op.zero_set_witness, (1.0, 0.0))


# --- the zero-set witness, decided exactly ------------------------------------


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(finite, min_size=n, max_size=n),
    st.lists(finite, min_size=n, max_size=n))),
    finite.map(abs))
@example(([0.0], [1e-9]), 0.0)                      # on the bound: within
@example(([0.0], [math.nextafter(1e-9, 1.0)]), 0.0)  # one ulp past it
@example(([3.0, 0.0], [0.0, 4.0]), 5.0)
@example(([0.0], [5.0 + 1e-9]), 5.0)
@example(([-1e308], [1e308]), 0.0)                    # past the float range
@settings(max_examples=300, deadline=None)
def test_exact_distance_helpers(xy, radius):
    x, y = xy
    num, den = sq_dist(x, y)
    exact = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y))
    assert Fraction(num, den) == exact
    bound = Fraction(radius) + Fraction(SLACK)
    got = excess(num, den, radius)
    assert (got is None) == (exact <= bound * bound)
    if got is not None:
        # off by less than 2^-100 before it rounds, and inf past the float
        # range; 800 digits hold every such value to far below that
        with localcontext() as ctx:
            ctx.prec = 800
            want = float((Decimal(num) / Decimal(den)).sqrt()
                         - Decimal(radius))
        assert math.isclose(got, want, rel_tol=2 ** -52, abs_tol=2 ** -99)


def ref_residual(op, c, w):
    """(whether J_c moves w by at most SLACK, |J_c(w) - w| to 60 digits),
    from J_c(w) computed in Fractions."""
    c, w, slack = Fraction(c), [Fraction(v) for v in w], Fraction(SLACK)
    if op.kind == "ball_projection":
        # J_c(w) = m + (w - m) r / |w - m| outside the ball: it moves w by
        # its distance past the sphere
        r = Fraction(op.radius)
        d2 = sum((v - Fraction(m)) ** 2 for v, m in zip(w, op._center))
        with localcontext() as ctx:
            ctx.prec = 60
            dist = (Decimal(d2.numerator) / Decimal(d2.denominator)).sqrt()
            return d2 <= (r + slack) ** 2, dist - Decimal(op.radius)
    if op.kind == "quadratic_prox":
        cw = c * Fraction(op.weight)
        fixed = [(v + cw * Fraction(m)) / (1 + cw)
                 for v, m in zip(w, op._center)]
    elif op.kind == "rotation2d":
        det = 1 + c * c
        fixed = [(w[0] + c * w[1]) / det, (w[1] - c * w[0]) / det]
    else:
        fixed = [min(max(v, Fraction(lo)), Fraction(hi))
                 for v, lo, hi in zip(w, op._lo, op._hi)]
    res2 = sum((j - v) ** 2 for j, v in zip(fixed, w))
    with localcontext() as ctx:
        ctx.prec = 60
        res = (Decimal(res2.numerator) / Decimal(res2.denominator)).sqrt()
    return res2 <= slack * slack, res


def check_witness(op, w):
    """op's predicate on w against the Fraction reference at each witness c,
    and, where every coordinate and the radius are at most 2^16, against the
    float decision through op.resolvent wherever the exact residual lies
    outside [SLACK/2, 2 SLACK]."""
    small = max(map(abs, w)) <= 2.0 ** 16 and \
        getattr(op, "radius", 0.0) <= 2.0 ** 16
    for c, got in zip((0.1, 1.0, 10.0), op._witness_residuals(list(w))):
        fixed, res = ref_residual(op, c, w)
        assert (got is None) == fixed
        if got is not None:
            assert math.isclose(got, float(res), rel_tol=1e-12)
        if small and not (SLACK / 2 <= res <= 2 * SLACK):
            moved = float(np.linalg.norm(op.resolvent(c, w) - np.array(w)))
            assert (moved <= SLACK) == fixed


# offsets around the refusal threshold SLACK = 1e-9 and far from it
offsets = st.lists(
    st.sampled_from((0.0, 1e-12, 4.9e-10, 5e-10, 5.1e-10, 9.9e-10, 1e-9,
                     1.0000001e-9, 2e-9, 1e-3, -5e-10, -1e-9, -2e-9))
    | st.floats(-3e-9, 3e-9) | st.floats(-3.0, 3.0), min_size=2, max_size=2)
coords = st.lists(st.floats(-10, 10) | st.floats(-3e4, 3e4), min_size=2,
                  max_size=2)


@given(coords, st.floats(0.01, 10) | st.floats(1e-6, 1e6), offsets)
@settings(max_examples=300, deadline=None)
def test_quadratic_prox_witness_check_is_exact(center, weight, offset):
    op = QuadraticProx(center=tuple(center), weight=weight)
    check_witness(op, [m + d for m, d in zip(center, offset)])


@given(offsets | st.lists(finite, min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_rotation2d_witness_check_is_exact(witness):
    check_witness(Rotation2D(), witness)


@given(coords, st.lists(st.floats(0, 5), min_size=2, max_size=2), coords,
       offsets)
@settings(max_examples=300, deadline=None)
def test_box_projection_witness_check_is_exact(lo, width, inside, offset):
    # a point of the box, or one moved off a face by the offset
    hi = [l + w for l, w in zip(lo, width)]
    op = BoxProjection(lo=tuple(lo), hi=tuple(hi))
    check_witness(op, [min(max(x, l), h) + d
                       for x, l, h, d in zip(inside, lo, hi, offset)])


# distances past the sphere around the refusal threshold SLACK, inside the
# ball, and far out
ball_offsets = st.sampled_from(
    (0.0, 1e-12, 2.5e-10, 5e-10, 9.9e-10, 1e-9, 1.01e-9, 2e-9, 1e-3, -1e-9,
     -0.5)) | st.floats(-3e-9, 3e-9)


@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.lists(st.floats(-10, 10) | st.floats(-3e4, 3e4), min_size=dim,
             max_size=dim),
    st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))),
    st.floats(0.01, 10) | st.floats(1e3, 3e4) | st.floats(1e8, 1e12),
    ball_offsets)
@settings(max_examples=300, deadline=None)
def test_ball_projection_witness_check_is_exact(center_direction, radius,
                                                offset):
    # a point at distance radius + offset from the center, up to rounding
    center, direction = center_direction
    length = math.hypot(*direction)
    assume(length > 0.1)
    op = BallProjection(center=tuple(center), radius=radius)
    check_witness(op, [m + (radius + offset) * v / length
                       for m, v in zip(center, direction)])


def test_ball_projection_decides_large_witnesses_exactly():
    # On the sphere of radius 1e9 the float projection moves each witness
    # by about 1e-7 wherever the float distance reads one ulp past the
    # radius.  This one lies 4.975e-08 past the sphere and is refused with
    # that distance.
    with pytest.raises(ValueError, match=r"^declared zero is not fixed by "
                       r"the resolvent at c=0\.1 \(residual 4\.975e-08\)$"):
        BallProjection(center=(0.0, 0.0), radius=1e9,
                       zero_set_witness=(-652995056.6464227,
                                         757362169.6357267))
    # This one lies 5.7e-10 past it, within SLACK, and is accepted, though
    # both the naive float distance and np.linalg.norm read it one ulp long.
    witness = (-999495243.0800778, 31768837.88079534)
    op = BallProjection(center=(0.0, 0.0), radius=1e9,
                        zero_set_witness=witness)
    assert op.zero_set_witness.tolist() == list(witness)
    assert math.sqrt(witness[0] ** 2 + witness[1] ** 2) > 1e9
    check_witness(op, witness)


@pytest.mark.parametrize("make, witness, message", [
    (lambda w: QuadraticProx(center=(1.0, -1.0), zero_set_witness=w),
     (1.0, 0.0), "c=0.1 (residual 9.091e-02)"),
    (lambda w: Rotation2D(zero_set_witness=w), (0.0, 2e-9),
     "c=1.0 (residual 1.414e-09)"),
    (lambda w: BoxProjection(lo=(0.0, 0.0), hi=(1.0, 1.0),
                             zero_set_witness=w), (1.0, 1.0 + 3e-9),
     "c=0.1 (residual 3.000e-09)"),
    # in the kernel up to SLACK, and moved past it only at c = 10
    (lambda w: LinearPSD(matrix=((1e-3, 0.0), (0.0, 0.0)),
                         zero_set_witness=w), (1e-6, 1.0),
     "c=10.0 (residual 9.901e-09)"),
], ids=["quadratic_prox", "rotation2d", "box_projection", "linear_psd"])
def test_witness_refusals_name_the_first_c(make, witness, message):
    with pytest.raises(ValueError) as exc:
        make(witness)
    assert str(exc.value) == \
        f"declared zero is not fixed by the resolvent at {message}"


def test_float_form_operators_hold_no_array_until_read():
    ops = (QuadraticProx(center=(1.0, -1.0)), Rotation2D(),
           BoxProjection(lo=(-1.0, 0.0), hi=(1.0, 2.0)),
           BallProjection(center=(0.0, 2.0), radius=1.0,
                          zero_set_witness=(0.0, 1.0)),
           LinearPSD(matrix=((1.0, 0.0), (0.0, 0.0)),
                     zero_set_witness=(0.0, 3.0)))
    for op in ops:
        assert not any(isinstance(v, np.ndarray) for v in vars(op).values())
    assert QuadraticProx(center=(1.0, -1.0)).center.tolist() == [1.0, -1.0]
    assert ops[2].zero_set_witness.tolist() == [0.0, 1.0]
    assert ops[3].center.tolist() == [0.0, 2.0]
    assert ops[3].zero_set_witness.tolist() == [0.0, 1.0]
    assert ops[4].matrix.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert ops[4].zero_set_witness.tolist() == [0.0, 3.0]


@pytest.mark.parametrize("op, shape", [
    (QuadraticProx(center=(1.0, -1.0, 0.0)), "separable"),
    (BoxProjection(lo=(-1.0, 0.0), hi=(1.0, 2.0)), "separable"),
    (Rotation2D(), "planar"),
    (BallProjection(center=(0.0, 0.0), radius=1.0), "array"),
    (LinearPSD(matrix=((1.0, 0.0), (0.0, 2.0))), "array"),
], ids=lambda v: getattr(v, "kind", v))
def test_operators_declare_their_shape(op, shape):
    maps, pair = op._coordinate_maps, op._resolve_pair
    assert (maps is not None, pair is not None) == {
        "separable": (True, False), "planar": (False, True),
        "array": (False, False)}[shape]
    if maps is not None:
        assert len(maps) == op.dim


def test_ball_projection():
    op = BallProjection(center=(0.0, 0.0), radius=1.0)
    assert np.allclose(op.resolvent(1.0, (0.3, 0.4)), (0.3, 0.4))
    assert np.allclose(op.resolvent(1.0, (3.0, 4.0)), (0.6, 0.8))
    with pytest.raises(ValueError):
        BallProjection(center=(0.0,), radius=0.0)


def ball_ref(center, radius, x) -> list:
    """The ball's stated order on Python floats: d = x - m; 0.0 plus the
    squares left to right; its square root; x inside, else m + d (r/dist).
    Only where the squares overflow, d is first divided by its largest
    |d_i|, after taking it as x/2 - m/2 where x - m overflows."""
    d = [xi - mi for xi, mi in zip(x, center)]
    sq = 0.0
    for di in d:
        sq = sq + di * di
    if sq == math.inf:
        if not all(map(math.isfinite, d)):
            d = [xi / 2 - mi / 2 for xi, mi in zip(x, center)]
        top = max(abs(di) for di in d)
        d = [di / top for di in d]
        sq = 0.0
        for di in d:
            sq = sq + di * di
    elif math.sqrt(sq) <= radius:
        return list(x)
    return [mi + di * (radius / math.sqrt(sq)) for mi, di in zip(center, d)]


def ball_exact(center, radius, x) -> list:
    """The projection onto the ball in Fractions, its distance to 2^-200
    relative."""
    d = [Fraction(xi) - Fraction(mi) for xi, mi in zip(x, center)]
    sq = sum(di * di for di in d)
    if sq <= Fraction(radius) ** 2:
        return [Fraction(xi) for xi in x]
    dist = Fraction(math.isqrt(sq.numerator * sq.denominator << 400),
                    sq.denominator << 200)
    return [Fraction(mi) + di * Fraction(radius) / dist
            for mi, di in zip(center, d)]


ball_coords = st.floats(-10.0, 10.0) | st.floats(-1e3, 1e3) | \
    st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(ball_coords, min_size=n, max_size=n),
    st.lists(ball_coords, min_size=n, max_size=n))),
    st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
@example(([0.0, 0.0], [-2.6632602148755575, 2.220060931059839]), 0.5, 1.0)
# far points, whose squares overflow: the projection is on the sphere
@example(([0.0, 0.0], [1e200, 0.0]), 1.0, 1.0)
@example(([0.0, 0.0], [3e154, 4e154]), 1.0, 1.0)
@example(([0.0, 0.0], [1.7e308, -1.7e308]), 1.0, 1.0)
@example(([1.0, -2.0, 0.5], [-3e154, 4e154, 1e-300]), 2.0, 1.0)
@example(([-1e308, 0.0], [1e308, 0.0]), 1.0, 1.0)    # x - m overflows
@settings(max_examples=300, deadline=None)
def test_ball_projection_follows_its_stated_order(center_x, radius, c):
    # every form is ball_ref bit for bit, with no BLAS call and no warning:
    # the first example is one of the 2-d points whose np.linalg.norm, a
    # fused multiply-add dot product under some OpenBLAS kernels, rounds
    # otherwise
    center, x = center_x
    op = BallProjection(center=center, radius=radius)
    want = ball_ref(op._center, op.radius, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = op._resolve_floats(c, list(x))
        point = op.resolvent(c, x)
        rows = op._resolve_rows(c, np.array([x, center]))
    assert bits(got) == bits(want)
    assert bits(point) == bits(want)
    assert bits(rows[0]) == bits(want)
    # each coordinate within (dim + 6) ulps of the scale |m_i| + r of the
    # exact projection
    eps = Fraction(2.0 ** -52)
    for g, e, m in zip(got, ball_exact(op._center, op.radius, x), op._center):
        assert abs(Fraction(g) - e) <= (len(x) + 6) * eps * \
            (abs(Fraction(m)) + Fraction(op.radius))


def test_box_projection():
    op = BoxProjection(lo=(-1.0, 0.0), hi=(1.0, 2.0))
    assert np.allclose(op.resolvent(1.0, (5.0, -5.0)), (1.0, 0.0))
    assert np.allclose(op.resolvent(1.0, (0.5, 1.0)), (0.5, 1.0))
    with pytest.raises(ValueError):
        BoxProjection(lo=(1.0,), hi=(0.0,))
    with pytest.raises(ValueError):
        BoxProjection(lo=(0.0,), hi=(1.0, 2.0))


def test_linear_psd():
    op = LinearPSD(matrix=((1.0, 0.0), (0.0, 2.0)))
    assert np.allclose(op.resolvent(1.0, (2.0, 3.0)), (1.0, 1.0))
    with pytest.raises(ValueError):
        LinearPSD(matrix=((1.0, 2.0), (0.0, 1.0)))      # not symmetric
    with pytest.raises(ValueError):
        LinearPSD(matrix=((-1.0, 0.0), (0.0, 1.0)))     # not psd
    for matrix in (((1.0, 0.0),), ((1.0, 0.0), (0.0,)), (),
                   ((1.0, (0.0,)), (0.0, 1.0))):        # not square
        with pytest.raises(ValueError, match="^matrix must be square$"):
            LinearPSD(matrix=matrix)


def test_linear_psd_symmetry_is_checked_to_slack():
    # |a_ij - a_ji| <= SLACK, with no tolerance relative to the entries:
    # 9e-6 passes a relative one of 1e-5
    with pytest.raises(ValueError, match="^matrix must be symmetric$"):
        LinearPSD(matrix=((2.0, 1.0), (1.000009, 2.0)))
    LinearPSD(matrix=((2.0, 1.0), (1.0 + 5e-10, 2.0)))


def frac_det(m) -> Fraction:
    """The determinant of a square matrix of Fractions, by elimination."""
    m, det = [list(row) for row in m], Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot], det = m[pivot], m[k], -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            row[k:] = [v - f * p for v, p in zip(row[k:], m[k][k:])]
    return det


def ref_psd(sym, shift) -> bool:
    """Whether sym + shift I is positive semidefinite: every principal
    minor is >= 0."""
    n = len(sym)
    return all(frac_det([[sym[i][j] + shift * (i == j) for j in idx]
                         for i in idx]) >= 0
               for size in range(1, n + 1)
               for idx in itertools.combinations(range(n), size))


def ref_linear_psd(matrix, w) -> tuple:
    """(the constructor's message, or None where it accepts; whether a
    decision it reached lay in [SLACK/2, 2 SLACK]), in Fractions: the
    symmetry gap, A + SLACK I >= 0 on the lower triangle, |A w|, and at each
    witness c, |y| for (I + cA) y = cAw by Cramer's rule."""
    a = [[Fraction(v) for v in row] for row in matrix]
    w, n, slack = [Fraction(v) for v in w], len(matrix), Fraction(SLACK)

    def near(sq):
        return slack ** 2 / 4 <= sq <= 4 * slack ** 2

    gap = max((abs(a[i][j] - a[j][i]) for i in range(n) for j in range(n)),
              default=Fraction(0))
    if gap > slack:
        return "matrix must be symmetric", near(gap * gap)
    sym = [[a[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    close = not ref_psd(sym, slack / 2) and ref_psd(sym, 2 * slack)
    if not ref_psd(sym, slack):
        return "matrix must be positive semidefinite", close
    close = close or near(gap * gap)
    aw = [sum(x * y for x, y in zip(row, w)) for row in a]
    sq = sum(v * v for v in aw)
    close = close or near(sq)
    if sq > slack ** 2:
        return "declared zero is not in the kernel", close
    for c in map(Fraction, (0.1, 1.0, 10.0)):
        g = [[(i == j) + c * a[i][j] for j in range(n)] for i in range(n)]
        det = frac_det(g)
        y = [frac_det([[c * aw[i] if k == j else g[i][k] for k in range(n)]
                       for i in range(n)]) / det for j in range(n)]
        sq = sum(v * v for v in y)
        close = close or near(sq)
        if sq > slack ** 2:
            with localcontext() as ctx:
                ctx.prec = 60
                res = (Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt()
            return ("declared zero is not fixed by the resolvent at "
                    f"c={float(c)} (residual {float(res):.3e})"), close
    return None, close


def float_linear_psd(matrix, w):
    """The message a float check gives: np.allclose, eigvalsh (on the lower
    triangle, as eigh) and np.linalg.solve, up to the residual's digits."""
    a, w = np.array(matrix, dtype=float), np.array(w, dtype=float)
    if not np.allclose(a, a.T, rtol=0.0, atol=SLACK):
        return "matrix must be symmetric"
    if np.linalg.eigvalsh(a).min() < -SLACK:
        return "matrix must be positive semidefinite"
    if np.linalg.norm(a @ w) > SLACK:
        return "declared zero is not in the kernel"
    for c in (0.1, 1.0, 10.0):
        y = np.linalg.solve(np.eye(len(w)) + c * a, w)
        if np.linalg.norm(y - w) > SLACK:
            return f"declared zero is not fixed by the resolvent at c={c}"
    return None


def linear_psd_verdict(matrix, w):
    try:
        LinearPSD(matrix=matrix, zero_set_witness=w)
    except ValueError as exc:
        return str(exc)
    return None


# shifts and gaps around the refusal threshold SLACK = 1e-9 and far from it
near_slack = st.sampled_from(
    (0.0, 1e-12, 2.5e-10, 5e-10, 9.9e-10, 1e-9, 1.0000001e-9, 2e-9, 3e-9,
     1e-3)) | st.floats(0.0, 3e-9)


@st.composite
def psd_problems(draw):
    """A = scale F F^T + shift I, with some rows of F zero, and one entry
    moved off symmetry by a gap; w is any point on the zero rows' axes,
    moved off them by offsets of about SLACK / scale."""
    n = draw(st.integers(1, 4))
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    factor = [[draw(st.integers(-3, 3)) if on else 0 for _ in range(n)]
              for on in live]
    scale = draw(st.sampled_from((1.0, 1e-3)))
    shift = draw(st.sampled_from((1e-3, 0.0)) | near_slack.map(lambda v: -v))
    a = [[scale * sum(x * y for x, y in zip(fi, fj)) + shift * (i == j)
          for j, fj in enumerate(factor)] for i, fi in enumerate(factor)]
    if n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        gap = draw(st.just(0.0) | near_slack)
        a[i][j] += gap * draw(st.sampled_from((1.0, -1.0)))
    w = [draw(st.integers(-9, 9).map(float) | st.floats(-10, 10)) if not on
         else draw(near_slack | st.floats(-1e-8, 1e-8)) / scale
         for on in live]
    return tuple(map(tuple, a)), w


@given(psd_problems())
@example((((-SLACK, 0.0), (SLACK, 1.0)), [0.0, 0.0]))
@example((((1e-3, 0.0), (0.0, 0.0)), [4e-7, 1.0]))
@settings(max_examples=300, deadline=None)
def test_linear_psd_decisions_are_exact(problem):
    # the constructor's decisions equal the Fraction reference's, and the
    # float checks' wherever every quantity decided lies outside
    # [SLACK/2, 2 SLACK]; the entries are small, so the float checks round
    # far less than that
    matrix, w = problem
    got = linear_psd_verdict(matrix, w)
    want, close = ref_linear_psd(matrix, w)
    assert got == want
    if not close:
        assert (got or "").split(" (residual")[0] == \
            (float_linear_psd(matrix, w) or "")


@pytest.mark.parametrize("matrix, accepted", [
    # A + SLACK I has a zero pivot with a zero row: on the boundary, within
    (((-SLACK, 0.0), (0.0, 1.0)), True),
    # one ulp below it
    (((-math.nextafter(SLACK, 1.0), 0.0), (0.0, 1.0)), False),
    # a zero pivot with a nonzero row, of A and of A + SLACK I
    (((0.0, 1.0), (1.0, 1.0)), False),
    (((-SLACK, 1.0), (1.0, 1.0)), False),
    # a zero pivot with a zero row
    (((0.0, 0.0), (0.0, 1.0)), True),
    # symmetric up to SLACK, and decided on the lower triangle
    (((-SLACK, 0.0), (SLACK, 1.0)), False),
    (((-SLACK, SLACK), (0.0, 1.0)), True),
    # v v^T for a float v, rounded entry by entry: lam_min is about
    # +1.1e-8 where numpy 2.4's eigh read -3.0e-8, and about -1.9e-9 where
    # it read 0
    (((494599215.64736986, 336776506.9476451),
      (336776506.9476451, 229313779.81141043)), True),
    (((58461214.2216206, 205390775.65354127),
      (205390775.65354127, 721595869.7614937)), False),
])
def test_linear_psd_decides_semidefiniteness_exactly(matrix, accepted):
    assert linear_psd_verdict(matrix, [0.0, 0.0]) == (
        None if accepted else "matrix must be positive semidefinite")
    assert ref_linear_psd(matrix, [0.0, 0.0])[0] == \
        linear_psd_verdict(matrix, [0.0, 0.0])


def test_linear_psd_witness_bound_reads_c():
    # |A w| = 4e-10 <= SLACK / 2, but J_10 moves w by 10 |A w| / 1.01
    with pytest.raises(ValueError, match=r"^declared zero is not fixed by "
                       r"the resolvent at c=10\.0 \(residual 3\.960e-09\)$"):
        LinearPSD(matrix=((1e-3, 0.0), (0.0, 0.0)),
                  zero_set_witness=(4e-7, 1.0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_linear_psd_tends_to_the_kernel_projection(data):
    dim = data.draw(st.integers(min_value=2, max_value=6))
    rank = data.draw(st.integers(min_value=1, max_value=dim - 1))
    factor = data.draw(arrays(float, (dim, rank),
                              elements=st.integers(-3, 3).map(float)))
    gram = factor.T @ factor
    # the nonzero eigenvalues of A; a well-conditioned factor, so that its
    # range is known to rounding
    live = np.linalg.eigvalsh(gram)
    assume(live[0] > 1e-3 * live[-1])
    op = LinearPSD(matrix=factor @ factor.T)
    proj = np.eye(dim) - factor @ np.linalg.solve(gram, factor.T)
    x = data.draw(arrays(float, dim, elements=st.floats(-1e3, 1e3)))
    size = float(np.linalg.norm(x)) + 1.0
    for c in (1e2, 1e6, 1e10, 1e14, 1e16, 1e20, 1e100):
        err = float(np.linalg.norm(op.resolvent(c, x) - proj @ x))
        # off the kernel J_c shrinks by at most 1/(1 + c lam_min); the
        # rounding of a solve below the spectral threshold is cond * eps
        assert err <= size * (1.0 / (1.0 + c * live[0]) + 1e-7), c


@pytest.mark.parametrize("rank", (1, 3))
def test_resolve_rows_across_the_spectral_threshold(rank):
    # values of c on both sides of the threshold, so that both the solved
    # and the spectral rows form match the per-point resolvent row by row
    rng = np.random.default_rng(rank)
    factor = rng.integers(-3, 4, size=(4, rank)).astype(float)
    op = LinearPSD(matrix=factor @ factor.T)
    cs = (10.0 ** rng.uniform(-2.0, 20.0, size=40)).tolist()
    xs = rng.uniform(-4.0, 4.0, size=(300, 4))
    one = np.broadcast_to(xs[0], xs.shape)
    assert 0 < sum(op._is_spectral(c) for c in cs) < len(cs)
    for c in cs:
        assert op._resolve_rows(c, xs).tobytes() == stacked(op, c, xs).tobytes()
        assert op._resolve_rows(c, one).tobytes() \
            == stacked(op, c, one).tobytes()


@pytest.mark.parametrize("matrix,projection", [
    (((1.0, 0.0), (0.0, 2.0)), (0.0, 0.0)),
    (((2.0, 0.0), (0.0, 3.0)), (0.0, 0.0)),     # c lam_min overflows too
    (((2.0, 1.0), (1.0, 2.0)), (0.0, 0.0)),
    (((1.0, 1.0), (1.0, 1.0)), (-0.5, 0.5)),
])
def test_linear_psd_past_the_float_range_of_c_lam(matrix, projection):
    # where c lam overflows, 1/(1 + c lam) is 0: J_c is the projection of x
    # onto ker A, with no numpy warning
    op = LinearPSD(matrix=matrix)
    x = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = op.resolvent(1e308, x)
        rows = op._resolve_rows(1e308, np.stack([x, -x]))
    assert np.allclose(got, projection, rtol=0.0, atol=1e-15)
    assert rows[0].tobytes() == got.tobytes()
    assert rows[1].tobytes() == op.resolvent(1e308, -x).tobytes()


def test_rotation2d():
    op = Rotation2D()
    x = np.array([1.0, 0.0])
    got = op.resolvent(1.0, x)
    assert np.allclose(got, (0.5, -0.5))
    # (I + cT) J_c x = x
    j = op.resolvent(0.7, x)
    back = j + 0.7 * np.array([-j[1], j[0]])
    assert np.allclose(back, x)


def test_resolvent_argument_validation():
    op = QuadraticProx(center=(0.0, 0.0))
    with pytest.raises(ValueError):
        op.resolvent(0.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        op.resolvent(-1.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        op.resolvent(1.0, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("op", all_operators(), ids=lambda op: op.kind)
def test_resolvent_is_the_checked_entry_point(op):
    x = np.ones(op.dim)
    for c in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be positive"):
            op.resolvent(c, x)
    bad = x.copy()
    bad[-1] = float("inf")
    with pytest.raises(ValueError, match="non-finite"):
        op.resolvent(1.0, bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.resolvent(1.0, np.ones(op.dim + 1))


# --- row-batched resolvents ----------------------------------------------------


def stacked(op, c, xs) -> np.ndarray:
    """The per-point resolvents at c, one row each."""
    rows = [op._resolve(float(c), x) for x in xs]
    return np.array(rows, dtype=float).reshape(xs.shape)


coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
params = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def operators(draw):
    """One operator of each kind, with drawn data in dimensions 1..8."""
    kind = draw(st.sampled_from(("quadratic_prox", "ball_projection",
                                 "box_projection", "linear_psd",
                                 "rotation2d")))
    if kind == "rotation2d":
        return Rotation2D()
    dim = draw(st.integers(min_value=1, max_value=8))
    point = arrays(float, dim, elements=st.floats(-10.0, 10.0))
    if kind == "quadratic_prox":
        return QuadraticProx(center=draw(point),
                             weight=draw(st.floats(0.01, 100.0)))
    if kind == "ball_projection":
        return BallProjection(center=draw(point),
                              radius=draw(st.floats(0.01, 100.0)))
    if kind == "box_projection":
        a, b = draw(point), draw(point)
        return BoxProjection(lo=np.minimum(a, b), hi=np.maximum(a, b))
    factor = draw(arrays(float, (dim, dim), elements=st.floats(-3.0, 3.0)))
    return LinearPSD(matrix=factor @ factor.T)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resolve_rows_matches_per_point_bytes(data):
    op = data.draw(operators())
    count = data.draw(st.integers(min_value=0, max_value=30))
    xs = data.draw(arrays(float, (count, op.dim), elements=coords))
    c = data.draw(params)
    got = op._resolve_rows(c, xs)
    assert got.shape == xs.shape
    assert got.tobytes() == stacked(op, c, xs).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_linear_psd_solve_is_numpy_solve(data):
    # _resolve calls the LAPACK gufunc behind np.linalg.solve directly, by
    # its numpy-internal name: the same dgesv call, so the same bits
    dim = data.draw(st.integers(min_value=1, max_value=8))
    factor = data.draw(arrays(float, (dim, dim), elements=st.floats(-3.0, 3.0)))
    op = LinearPSD(matrix=factor @ factor.T)
    c = data.draw(st.floats(min_value=0.0, max_value=1e12, exclude_min=True))
    assume(not op._is_spectral(c))
    x = data.draw(arrays(float, dim, elements=coords))
    want = np.linalg.solve(np.eye(dim) + c * op.matrix, x)
    assert op._resolve(c, x).tobytes() == want.tobytes()
    assert op.resolvent(c, x).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_dot_and_norm_match_per_row(data):
    dim = data.draw(st.integers(min_value=1, max_value=8))
    count = data.draw(st.integers(min_value=0, max_value=30))
    wide = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    xs = data.draw(arrays(float, (count, dim), elements=wide))
    ys = data.draw(arrays(float, (count, dim), elements=wide))
    dots = np.array([np.dot(x, y) for x, y in zip(xs, ys)], dtype=float)
    norms = np.array([np.linalg.norm(x) for x in xs], dtype=float)
    assert row_dot(xs, ys).tobytes() == dots.tobytes()
    assert row_norm(xs).tobytes() == norms.tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
def test_row_helpers_on_many_rows(dim):
    scale = 10.0 ** RNG.uniform(-3.0, 3.0, size=(2000, 1))
    xs = RNG.standard_normal((2000, dim)) * scale
    ys = RNG.standard_normal((2000, dim))
    dots = np.array([np.dot(x, y) for x, y in zip(xs, ys)])
    norms = np.array([np.linalg.norm(x) for x in xs])
    assert row_dot(xs, ys).tobytes() == dots.tobytes()
    assert row_norm(xs).tobytes() == norms.tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
def test_row_helpers_ignore_memory_layout(dim):
    # rows a stride apart, and one row repeated by a zero stride
    xs = RNG.standard_normal((2000, dim)) * 10.0 ** RNG.uniform(-3.0, 3.0)
    for x in (xs[::3], np.broadcast_to(xs[0], xs.shape)):
        dots = np.array([np.dot(r.copy(), r.copy()) for r in x])
        norms = np.array([np.linalg.norm(r) for r in x])
        assert row_dot(x, x).tobytes() == dots.tobytes()
        assert row_norm(x).tobytes() == norms.tobytes()


DENSE = np.random.default_rng(4).uniform(-2.0, 2.0, size=(4, 4))


@pytest.mark.parametrize("op", all_operators() + (LinearPSD(DENSE @ DENSE.T),),
                         ids=lambda op: f"{op.kind}{op.dim}")
def test_resolve_rows_of_one_point_match_per_point_norms(op):
    # the rows form of one point repeated by a zero stride
    p = RNG.uniform(-4.0, 4.0, size=op.dim)
    for c in RNG.uniform(0.05, 20.0, size=20).tolist():
        rows = op._resolve_rows(c, np.broadcast_to(p, (200, op.dim)))
        gap = np.linalg.norm(op._resolve(c, p) - p)
        assert row_norm(rows - p).tobytes() == np.full(200, gap).tobytes()


# --- resolvents on Python floats ----------------------------------------------


def bits(values) -> list:
    """Bit patterns, every NaN read as one: IEEE 754 leaves the sign and
    payload open when two NaNs meet, and `run` raises on a NaN iterate."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64).tolist()


def assert_floats_match(op, c, x):
    """_resolve_floats equals _resolve bit for bit, and equals the numpy
    expressions of _resolve_rows, which do not go through it."""
    with np.errstate(all="ignore"):
        got = op._resolve_floats(c, list(x))
        want = op._resolve(c, np.array(x, dtype=float))
        row = op._resolve_rows(c, np.array([x], dtype=float))[0]
    assert all(type(v) is float for v in got)
    assert bits(got) == bits(want)
    assert bits(got) == bits(row)


specials = st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan, 1e308,
                            -1e308, 5e-324, -5e-324))
wild = st.one_of(coords, st.floats(), specials)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_resolve_floats_matches_resolve_bits(data):
    op = data.draw(operators())
    # every finite c: past about 1e14, I + cA rounds to the singular cA for
    # a rank-deficient A, and LinearPSD resolves through eigenvectors
    huge_c = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    wide_c = huge_c | st.sampled_from((5e-324, 1e300, np.inf))
    c = data.draw(params | (huge_c if op.kind == "linear_psd" else wide_c))
    x = data.draw(st.lists(wild, min_size=op.dim, max_size=op.dim))
    assert_floats_match(op, c, x)


faces = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                  st.floats(-10.0, 10.0))


def clip_1d(x, lo, hi) -> np.ndarray:
    """np.clip on 1-d arrays, the form BoxProjection once used per point."""
    return np.clip(np.array(x, dtype=float), np.array(lo, dtype=float),
                   np.array(hi, dtype=float))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_box_resolve_floats_ties_follow_np_clip(data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    pairs = data.draw(st.lists(st.tuples(faces, faces), min_size=dim,
                               max_size=dim))
    lo = [a if not b < a else b for a, b in pairs]
    hi = [b if not b < a else a for a, b in pairs]
    op = BoxProjection(lo=lo, hi=hi)
    near = [st.sampled_from((a, -a, b, -b, 0.0, -0.0, np.nan)) | wild
            for a, b in zip(lo, hi)]
    x = [data.draw(coord) for coord in near]
    assert_floats_match(op, 1.0, x)
    assert bits(op._resolve_floats(1.0, x)) == bits(clip_1d(x, lo, hi))


# (lo, hi, x, clipped): a tie takes the face, NaN passes through
SIGNED_ZERO_CLIPS = [
    (0.0, 1.0, -0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
    (-0.0, 1.0, 0.0, -0.0), (-0.0, 1.0, -0.0, -0.0),
    (-1.0, -0.0, 0.0, -0.0), (-1.0, 0.0, -0.0, 0.0),
    (0.0, -0.0, 0.0, -0.0), (0.0, -0.0, -0.0, -0.0),
    (-0.0, 0.0, -0.0, 0.0), (-0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, -0.0, 0.0), (-0.0, -0.0, 0.0, -0.0),
    (-1.0, 1.0, np.inf, 1.0), (-1.0, 1.0, -np.inf, -1.0),
    (-1.0, 1.0, np.nan, np.nan),
]


@pytest.mark.parametrize("lo,hi,x,clipped", SIGNED_ZERO_CLIPS)
def test_box_resolve_floats_signed_zero_faces(lo, hi, x, clipped):
    op = BoxProjection(lo=(lo,), hi=(hi,))
    assert_floats_match(op, 1.0, [x])
    assert bits(op._resolve_floats(1.0, [x])) == bits([clipped])
    assert bits(clip_1d([x], [lo], [hi])) == bits([clipped])


# --- identities shared by every maximal monotone operator ----------------------


@pytest.mark.parametrize("op", all_operators(), ids=lambda op: op.kind)
def test_resolvent_identity(op):
    for _ in range(25):
        x = RNG.uniform(-4.0, 4.0, size=op.dim)
        a, b = float(RNG.uniform(0.1, 5.0)), float(RNG.uniform(0.1, 5.0))
        assert check_resolvent_identity(op, a, b, x) <= 1e-9


@pytest.mark.parametrize("op", all_operators(), ids=lambda op: op.kind)
def test_resolvent_scaling(op):
    # for 0 < a <= b the displacement at the small parameter is controlled
    # by twice the displacement at the large one
    for _ in range(25):
        x = RNG.uniform(-4.0, 4.0, size=op.dim)
        a = float(RNG.uniform(0.05, 2.0))
        b = a + float(RNG.uniform(0.0, 3.0))
        lhs = float(np.linalg.norm(op.resolvent(a, x) - x))
        rhs = float(np.linalg.norm(op.resolvent(b, x) - x))
        assert lhs <= 2.0 * rhs + INEQ_TOL


@pytest.mark.parametrize("op", all_operators(), ids=lambda op: op.kind)
def test_resolvent_is_nonexpansive(op):
    for _ in range(25):
        x = RNG.uniform(-4.0, 4.0, size=op.dim)
        y = RNG.uniform(-4.0, 4.0, size=op.dim)
        c = float(RNG.uniform(0.1, 10.0))
        dj = float(np.linalg.norm(op.resolvent(c, x) - op.resolvent(c, y)))
        assert dj <= float(np.linalg.norm(x - y)) + 1e-9


def test_projections_are_c_independent():
    ball = BallProjection(center=(0.5, 0.0), radius=2.0)
    box = BoxProjection(lo=(-1.0, -1.0), hi=(1.0, 1.0))
    for op in (ball, box):
        for _ in range(10):
            x = RNG.uniform(-5.0, 5.0, size=2)
            base = op.resolvent(0.1, x)
            for c in (1.0, 10.0, 250.0):
                assert np.allclose(op.resolvent(c, x), base)


def test_identity_check_rejects_bad_parameters():
    op = Rotation2D()
    with pytest.raises(ValueError):
        check_resolvent_identity(op, 0.0, 1.0, (1.0, 0.0))
