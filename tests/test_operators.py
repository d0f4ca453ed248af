"""Operators: closed-form resolvents, witness validation, shared identities."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mppa.operators import (INEQ_TOL, BallProjection, BoxProjection,
                            LinearPSD, QuadraticProx, Rotation2D, as_point,
                            check_resolvent_identity, norm, row_dot,
                            row_norm)

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


def test_norm():
    assert norm((3, 4)) == 5.0


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


# --- the zero-set witness checked on floats -----------------------------------


def witness_outcomes(make, witness):
    """make(witness) with the witness as a tuple, which the float check
    reads, and as an array, which the array check reads: each the witness
    it keeps, or the message it refuses with."""
    def outcome(w):
        try:
            return make(w).zero_set_witness.tolist()
        except ValueError as exc:
            return str(exc)

    return outcome(tuple(witness)), outcome(np.array(witness, dtype=float))


# offsets around the refusal threshold SLACK = 1e-9 and its float-check
# margin SLACK / 2, and far from both
offsets = st.lists(
    st.sampled_from((0.0, 1e-12, 4.9e-10, 5e-10, 5.1e-10, 9.9e-10, 1e-9,
                     1.0000001e-9, 2e-9, 1e-3, -5e-10, -1e-9, -2e-9))
    | st.floats(-3e-9, 3e-9), min_size=2, max_size=2)
coords = st.lists(st.floats(-10, 10), min_size=2, max_size=2)


@given(coords, st.floats(0.01, 10), offsets)
@settings(max_examples=200, deadline=None)
def test_quadratic_prox_float_witness_check_is_the_array_check(
        center, weight, offset):
    witness = [m + d for m, d in zip(center, offset)]
    fast, arrays_ = witness_outcomes(
        lambda w: QuadraticProx(center=tuple(center), weight=weight,
                                zero_set_witness=w), witness)
    assert fast == arrays_


@given(offsets)
@settings(max_examples=100, deadline=None)
def test_rotation2d_float_witness_check_is_the_array_check(offset):
    fast, arrays_ = witness_outcomes(
        lambda w: Rotation2D(zero_set_witness=w), offset)
    assert fast == arrays_


@given(coords, st.lists(st.floats(0, 5), min_size=2, max_size=2), coords,
       offsets)
@settings(max_examples=200, deadline=None)
def test_box_projection_float_witness_check_is_the_array_check(
        lo, width, inside, offset):
    # a point of the box, or one moved off a face by the offset
    hi = [l + w for l, w in zip(lo, width)]
    witness = [min(max(x, l), h) + d
               for x, l, h, d in zip(inside, lo, hi, offset)]
    fast, arrays_ = witness_outcomes(
        lambda w: BoxProjection(lo=tuple(lo), hi=tuple(hi),
                                zero_set_witness=w), witness)
    assert fast == arrays_


def test_float_form_operators_hold_no_array_until_read():
    ops = (QuadraticProx(center=(1.0, -1.0)), Rotation2D(),
           BoxProjection(lo=(-1.0, 0.0), hi=(1.0, 2.0)))
    for op in ops:
        assert not any(isinstance(v, np.ndarray) for v in vars(op).values())
    assert QuadraticProx(center=(1.0, -1.0)).center.tolist() == [1.0, -1.0]
    assert ops[2].zero_set_witness.tolist() == [0.0, 1.0]


def test_ball_projection():
    op = BallProjection(center=(0.0, 0.0), radius=1.0)
    assert np.allclose(op.resolvent(1.0, (0.3, 0.4)), (0.3, 0.4))
    assert np.allclose(op.resolvent(1.0, (3.0, 4.0)), (0.6, 0.8))
    with pytest.raises(ValueError):
        BallProjection(center=(0.0,), radius=0.0)


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
    with pytest.raises(ValueError):
        LinearPSD(matrix=((1.0, 0.0),))                 # not square


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
    # BLAS sums a row whose coordinates lie a stride apart in another order
    # than a contiguous one; np.linalg.norm copies each row contiguous first
    xs = RNG.standard_normal((2000, dim)) * 10.0 ** RNG.uniform(-3.0, 3.0)
    for x in (np.asfortranarray(xs), xs[:, ::-1], xs[::3],
              np.broadcast_to(xs[0], xs.shape)):
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
