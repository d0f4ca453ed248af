"""Euclidean points and maximal monotone operators with closed-form resolvents.

Every operator here answers resolvent queries J_c = (I + cT)^(-1) exactly
(up to floating point), with no inner iterative solver, and carries a known
zero of T so traces can be measured against the solution set.

`resolvent` is the checked entry point for one point: it takes a finite
c > 0.  Callers that have already validated their inputs use the unchecked
`_resolve(c, x)`, its form on a list of Python floats `_resolve_floats(c,
x)`, and its row-batched form `_resolve_rows(c, xs)`, one c for every row;
all three agree bit for bit.

An operator states J_c once, in the form its shape allows, and the base
class derives the others.  A separable resolvent (QuadraticProx,
BoxProjection) is one scalar map (c, x_i) -> J_c(x)_i per coordinate, in
`_coordinate_maps`; a planar one (Rotation2D) is `_resolve_pair(c, x0,
x1)`; BallProjection states `_resolve_floats` on the whole point; and
LinearPSD, whose J_c is a LAPACK solve, states `_resolve_into(c, x, out)`,
which writes J_c(x) into a given array row.  `iteration.run` steps each
shape with its own kernel.  The ball's float form calls no BLAS: it sums
its squares left to right in Python floats, so its bits do not depend on
the BLAS kernel that numpy loads.

`LinearPSD._resolve_into` solves its cached system through `solve1`, the
LAPACK gufunc (dgesv) that `np.linalg.solve` itself calls on a vector
right-hand side, and `_resolve_rows` broadcasts it over the rows.  It is
the same call, so the bits are the same, without the wrapper's type checks
and the error-state switch that turns a singular system into LinAlgError:
below the spectral threshold the system is never singular.

numpy is imported when an operator or a schedule first reads it, not when
this module is: `np` here is the package's one binding of it, which
`schedules` and `oracle` import from this module.  Every operator reads
points given as tuples or lists of floats as Python floats and decides its
zero-set witness on their exact rationals, in integers, as LinearPSD also
decides its matrix, so building one loads no numpy; its arrays, and
LinearPSD's eigendecomposition, are built at first read.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Optional


class _Numpy:
    """numpy, imported at the first attribute read.  That read puts numpy
    itself in place of this stand-in in every mppa module that holds it, so
    from then on `np.f` costs what it costs with numpy imported eagerly.

    importlib.util.LazyLoader does not fit: its module is entered in
    sys.modules as numpy at once, and a lazy module left out of sys.modules
    fails its first read once something else has imported numpy."""

    __slots__ = ()

    def __getattr__(self, name):
        import numpy

        prefix = __package__ + "."
        for key, module in list(sys.modules.items()):
            if key.startswith(prefix) and getattr(module, "np", None) is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Numpy()

# The float tolerances of the whole package.  SLACK absorbs the rounding of
# one comparison (a norm, a sum, an envelope); INEQ_TOL bounds what the
# resolvent identity and the diagnostic inequalities accumulate over a trace.
SLACK = 1e-9
INEQ_TOL = 1e-8
_SLACK_NUM, _SLACK_DEN = SLACK.as_integer_ratio()

_WITNESS_CS = (0.1, 1.0, 10.0)

# cond(I + cA) past which LinearPSD resolves through the eigendecomposition
# of A: a solve's rounding grows as cond * eps, about 1e-8 (INEQ_TOL) here.
_SPECTRAL_COND = 1e8


def as_point(coords) -> np.ndarray:
    """Validate and convert to a 1-d float64 vector of length >= 1."""
    pt = np.asarray(coords, dtype=float)
    if pt.ndim == 0:
        pt = pt.reshape(1)
    if pt.ndim != 1 or pt.size < 1:
        raise ValueError("a point is a nonempty 1-d coordinate vector")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point has non-finite coordinates")
    return pt


def _floats(coords) -> list:
    """as_point(coords).tolist(), without numpy for floats in a tuple or list."""
    if type(coords) in (tuple, list) and coords \
            and all(type(v) is float and math.isfinite(v) for v in coords):
        return list(coords)
    return as_point(coords).tolist()


def sq_dist(x, y) -> tuple:
    """|x - y|^2 for two equal-length sequences of finite floats, exactly, as
    integers (num, den): each float is an integer over a power of two."""
    num, den = 0, 1
    for u, v in zip(x, y):
        if u != v:
            (a, b), (c, d) = u.as_integer_ratio(), v.as_integer_ratio()
            e = b if b > d else d
            t = a * (e // b) - c * (e // d)
            if e > den:
                num, den = num * (e // den) ** 2, e
            num += (t * (den // e)) ** 2
    return num, den * den


def excess(num: int, den: int, radius=0.0) -> Optional[float]:
    """None when sqrt(num / den) <= radius + SLACK, decided exactly; else
    sqrt(num / den) - radius, within 2^-100 before its one rounding."""
    rn, rd = radius.as_integer_ratio()
    top = rn * _SLACK_DEN + _SLACK_NUM * rd
    if num * (rd * _SLACK_DEN) ** 2 <= top * top * den:
        return None
    top = math.isqrt(num * den << 200) * rd - (rn * den << 100)
    try:
        return top / (den * rd << 100)
    except OverflowError:
        return math.inf


def _over_one_den(values) -> tuple:
    """(nums, den) with values[i] = nums[i] / den exactly, for finite
    floats: each is an integer over a power of two, so den is the largest."""
    ratios = list(map(float.as_integer_ratio, values))
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _square_rows(matrix) -> list:
    """The rows of a square matrix of finite reals, as lists of floats."""
    if hasattr(matrix, "tolist"):
        matrix = matrix.tolist()
    try:
        rows = [[float(v) for v in row] for row in matrix]
    except TypeError:
        raise ValueError("matrix must be square") from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("matrix has non-finite entries")
    return rows


def _is_psd(lower) -> bool:
    """Whether the symmetric integer matrix with lower triangle `lower`
    (row i holds b_i0 .. b_ii) is positive semidefinite.

    Fraction-free (Bareiss) symmetric elimination: each entry of the
    reduced matrix is a minor of b, so every division is exact, and the
    sign of each pivot is the sign of its Schur complement's.  A negative
    pivot refuses; a zero pivot passes only with a zero row, which is then
    dropped."""
    prev = 1
    while lower:
        (p,), rest = lower[0], lower[1:]
        col = [row[0] for row in rest]
        if p < 0 or (p == 0 and any(col)):
            return False
        if p == 0:
            lower = [row[1:] for row in rest]
            continue
        lower = [[(p * v - ci * cj) // prev for v, cj in zip(row[1:], col)]
                 for ci, row in zip(col, rest)]
        prev = p
    return True


def _solve(g, r) -> tuple:
    """(xs, det) with g z = r for z = xs / det, xs integers and det the
    determinant of the integer matrix g, whose leading principal minors
    must be nonzero: fraction-free (Bareiss) elimination, then back
    substitution, every division exact."""
    n = len(g)
    rows = [row + [ri] for row, ri in zip(g, r)]
    prev = 1
    for k in range(n):
        pivot = rows[k]
        p = pivot[k]
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (p * row[j] - f * pivot[j]) // prev
        prev = p
    xs = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        top = prev * row[n] - sum(row[j] * xs[j] for j in range(i + 1, n))
        xs[i] = top // row[i]
    return xs, prev


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (rows, dim) arrays.

    A stack of 1 x dim by dim x 1 products sums each contiguous row (every
    caller's are) in np.dot's order, so entry i equals np.dot(x[i], y[i]) bit
    for bit; np.linalg.norm(axis=1), einsum and (x * y).sum(1) sum in other
    orders.  In one dimension np.dot returns the bare product, whose zero may
    be negative, where the stacked sum starts from +0.
    """
    if x.shape[1] == 1:
        return x[:, 0] * y[:, 0]
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows, each equal to np.linalg.norm(x[i])."""
    return np.sqrt(row_dot(x, x))


def _sum_squares(terms):
    """0.0 + t_1 t_1 + ... + t_n t_n, summed left to right: on floats, or
    on the columns of an array, row by row.  A loop, not sum(), which
    compensates its rounding on Python 3.12 and later."""
    sq = 0.0
    for t in terms:
        sq = sq + t * t
    return sq


class ResolventOperator:
    """Base class: a maximal monotone operator presented through resolvents.

    Subclasses state the single-point resolvent for c > 0 once, in the
    form of its shape: as `_coordinate_maps`, one scalar map (c, x_i) ->
    J_c(x)_i per coordinate, when J_c is separable; as `_resolve_pair(c,
    x0, x1)` when it acts on one plane; as `_resolve_into(c, x, out)`,
    which writes J_c(x) into the float64 array `out`, when it is an array
    routine; otherwise as `_resolve_floats(c, x)` on a list of Python
    floats.  The base class derives `_resolve(c, x)` on an array and, for
    the first three, `_resolve_floats`.  Subclasses also implement the
    row-batched form `_resolve_rows(c, xs)` for one parameter and a (rows,
    dim) point array, and come with a zero_set_witness s, 0 in T(s).  For
    each c in _WITNESS_CS (once where J_c does not read c),
    `_witness_residuals(s)` is None when J_c moves s, a list of floats, by
    at most SLACK, else |J_c(s) - s| as a float; the constructor refuses s
    at the first c where it is not None.
    """

    kind = "abstract"
    _coordinate_maps: Optional[tuple] = None
    _resolve_pair = None
    _resolve_into = None

    def __init__(self, dim: int, zero_set_witness):
        self.dim = dim
        witness = _floats(zero_set_witness)
        if len(witness) != dim:
            raise ValueError("zero set witness has wrong dimension")
        for c, res in zip(_WITNESS_CS, self._witness_residuals(witness)):
            if res is not None:
                raise ValueError(
                    f"declared zero is not fixed by the resolvent at c={c} "
                    f"(residual {res:.3e})")
        self._witness = witness

    @cached_property
    def zero_set_witness(self) -> np.ndarray:
        return as_point(self._witness)

    def resolvent(self, c: float, x) -> np.ndarray:
        if not (0 < c < np.inf):
            raise ValueError("resolvent parameter must be positive and finite")
        x = as_point(x)
        if x.size != self.dim:
            raise ValueError(f"dimension mismatch: operator is {self.dim}-dimensional")
        return self._resolve(float(c), x)

    def _resolve(self, c: float, x: np.ndarray) -> np.ndarray:
        if self._resolve_into is not None:
            out = np.empty(self.dim)
            self._resolve_into(c, x, out)
            return out
        return np.array(self._resolve_floats(c, x.tolist()), dtype=float)

    def _resolve_floats(self, c: float, x: list) -> list:
        """J_c(x) for a list of floats; Python float arithmetic rounds each
        operation as numpy does, so it equals _resolve bit for bit."""
        if self._coordinate_maps is not None:
            return [j(c, xi) for j, xi in zip(self._coordinate_maps, x)]
        if self._resolve_pair is not None:
            return list(self._resolve_pair(c, *x))
        return self._resolve(c, np.array(x, dtype=float)).tolist()

    def _resolve_rows(self, c: float, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _prox_map(weight: float, center: float):
    """J_c on one coordinate of QuadraticProx."""
    def j(c, x):
        cw = c * weight
        return (x + cw * center) / (1.0 + cw)
    return j


def _clip_map(lo: float, hi: float):
    """J_c on one coordinate of BoxProjection.  np.clip's rule, not
    min/max: NaN passes through, and a tie with a face takes the face, so
    -0.0 clips to a +0.0 face as +0.0 where max(-0.0, 0.0) is -0.0."""
    def j(c, x):
        m = x if (x != x or x > lo) else lo
        return m if (m != m or m < hi) else hi
    return j


class QuadraticProx(ResolventOperator):
    """Gradient of the squared distance to a center, scaled by a weight.

    T(x) = w*(x - m), so J_c(x) = (x + c*w*m) / (1 + c*w), coordinate by
    coordinate.
    """

    kind = "quadratic_prox"

    def __init__(self, center, weight: float = 1.0, zero_set_witness=None):
        if not (weight > 0):
            raise ValueError("weight must be positive")
        self.weight = float(weight)
        self._center = _floats(center)
        self._coordinate_maps = tuple(_prox_map(self.weight, m)
                                      for m in self._center)
        if zero_set_witness is None:
            zero_set_witness = self._center
        super().__init__(len(self._center), zero_set_witness)

    @cached_property
    def center(self) -> np.ndarray:
        return as_point(self._center)

    def _witness_residuals(self, w):
        # J_c(x) - x = cw (m - x) / (1 + cw), cw = (p a) / (q b)
        num, den = sq_dist(w, self._center)
        a, b = self.weight.as_integer_ratio()
        return [excess(num * (p * a) ** 2, den * (q * b + p * a) ** 2)
                for p, q in map(float.as_integer_ratio, _WITNESS_CS)]

    def _resolve_rows(self, c, xs):
        cw = c * self.weight
        return (xs + cw * self.center) / (1.0 + cw)


class BallProjection(ResolventOperator):
    """Normal cone of a closed ball; every resolvent is the metric projection.

    J_c(x) is computed in a stated order, in both forms: d_i = x_i - m_i;
    sq = 0.0 + d_1 d_1 + ... + d_n d_n, summed left to right; dist =
    sqrt(sq); x itself when dist <= r, else m_i + d_i (r / dist).  Only
    where sq overflows, d is first divided by its largest |d_i|, which
    keeps a far point off the center; where x is finite and some d_i
    overflows, d is x_i / 2 - m_i / 2 before that division.  No step is a
    BLAS call: np.linalg.norm is a dot product that OpenBLAS may compute
    with fused multiply-adds, in an order that depends on the CPU.
    """

    kind = "ball_projection"

    def __init__(self, center, radius: float, zero_set_witness=None):
        if not (radius > 0):
            raise ValueError("radius must be positive")
        self._center = _floats(center)
        self.radius = float(radius)
        if zero_set_witness is None:
            zero_set_witness = self._center
        super().__init__(len(self._center), zero_set_witness)

    @cached_property
    def center(self) -> np.ndarray:
        return as_point(self._center)

    def _witness_residuals(self, w):
        # J_c moves a point outside the ball by its distance past the sphere
        return [excess(*sq_dist(w, self._center), self.radius)]

    def _resolve_floats(self, c, x):
        d = [xi - mi for xi, mi in zip(x, self._center)]
        dist = math.sqrt(_sum_squares(d))
        if dist <= self.radius:
            return x
        if dist == math.inf and all(map(math.isfinite, x)):
            # a square overflows; where x - m itself does, its halves do not
            top = max(map(abs, d))
            if top == math.inf:
                d = [xi * 0.5 - mi * 0.5 for xi, mi in zip(x, self._center)]
                top = max(map(abs, d))
            d = [di / top for di in d]
            dist = math.sqrt(_sum_squares(d))
        gain = self.radius / dist
        return [mi + di * gain for mi, di in zip(self._center, d)]

    def _resolve_rows(self, c, xs):
        # _resolve_floats's steps on columns, with no warning where a
        # square overflows
        with np.errstate(over="ignore"):
            d = xs - self.center
            dist = np.sqrt(_sum_squares(d.T))
        far = ~(dist <= self.radius)
        big = np.flatnonzero((dist == np.inf) & np.isfinite(xs).all(axis=1))
        if big.size:
            halve = big[~np.isfinite(d[big]).all(axis=1)]
            d[halve] = xs[halve] * 0.5 - self.center * 0.5
            d[big] /= np.abs(d[big]).max(axis=1)[:, None]
            dist[big] = np.sqrt(_sum_squares(d[big].T))
        out = xs.copy()
        out[far] = self.center + d[far] * (self.radius / dist[far])[:, None]
        return out


class BoxProjection(ResolventOperator):
    """Normal cone of a coordinate box; resolvents clip componentwise."""

    kind = "box_projection"

    def __init__(self, lo, hi, zero_set_witness=None):
        self._lo = _floats(lo)
        self._hi = _floats(hi)
        if len(self._lo) != len(self._hi):
            raise ValueError("box corners must have equal dimension")
        if any(l > h for l, h in zip(self._lo, self._hi)):
            raise ValueError("box is empty")
        self._coordinate_maps = tuple(_clip_map(l, h)
                                      for l, h in zip(self._lo, self._hi))
        if zero_set_witness is None:
            zero_set_witness = [(l + h) / 2.0
                                for l, h in zip(self._lo, self._hi)]
        super().__init__(len(self._lo), zero_set_witness)

    @cached_property
    def lo(self) -> np.ndarray:
        return as_point(self._lo)

    @cached_property
    def hi(self) -> np.ndarray:
        return as_point(self._hi)

    def _witness_residuals(self, w):
        # the distance to the clipped point, which is exact at every c
        return [excess(*sq_dist(w, self._resolve_floats(1.0, w)))]

    def _resolve_rows(self, c, xs):
        # _clip_map's rule on arrays: numpy 2's np.clip keeps x on a tie in
        # its broadcasting loop, and takes the face in its 1-d loop
        m = np.where((xs != xs) | (xs > self.lo), xs, self.lo)
        return np.where((m != m) | (m < self.hi), m, self.hi)


class LinearPSD(ResolventOperator):
    """Linear operator x -> A x with A symmetric positive semidefinite.

    J_c solves (I + cA) y = x; the system matrix is positive definite for
    every c > 0, so the solve cannot be singular in exact arithmetic.  In
    floats I + cA rounds towards the singular cA as c grows, so past a
    condition number of _SPECTRAL_COND, J_c is Q diag(1/(1 + c lam)) Q^T x
    for the eigendecomposition A = Q diag(lam) Q^T, whose rounding does not
    grow with c.  Both forms agree with their row-batched versions bit for
    bit.

    The constructor decides on the exact rationals of the entries, in
    integers: |a_ij - a_ji| <= SLACK, and A + SLACK I positive semidefinite
    on the lower triangle, which is the triangle eigh reads.  The integers
    of each elimination step grow with the step, so these checks serve
    small matrices: they take about n^3/3 operations on integers of up to
    n times an entry's bits.  The arrays and the eigendecomposition are built at first
    read.
    """

    kind = "linear_psd"

    def __init__(self, matrix, zero_set_witness=None):
        rows = _square_rows(matrix)
        n = len(rows)
        # A = m / den, with m an integer matrix
        flat, self._den = _over_one_den([v for row in rows for v in row])
        m = [flat[i * n:(i + 1) * n] for i in range(n)]
        # SLACK den SLACK_DEN
        slack = _SLACK_NUM * self._den
        if any(abs(m[i][j] - m[j][i]) * _SLACK_DEN > slack
               for i in range(n) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        # (A + SLACK I) den SLACK_DEN, on the lower triangle
        if not _is_psd([[v * _SLACK_DEN for v in row[:i]]
                        + [row[i] * _SLACK_DEN + slack]
                        for i, row in enumerate(m)]):
            raise ValueError("matrix must be positive semidefinite")
        self._rows, self._m = rows, m
        # the last c _system_at saw, and its I + cA, or None where J_c is
        # spectral
        self._c, self._system = None, None
        if zero_set_witness is None:
            zero_set_witness = [0.0] * n
        super().__init__(n, zero_set_witness)

    @cached_property
    def matrix(self) -> np.ndarray:
        return np.array(self._rows, dtype=float)

    @cached_property
    def _eigh(self) -> tuple:
        """(lam, Q) with A = Q diag(lam) Q^T.  Eigenvalues within rounding of
        0 (numpy's matrix_rank tolerance) are 0: they belong to the kernel,
        and c times their rounding would grow with c."""
        eigs, vecs = np.linalg.eigh(self.matrix)
        tol = max(float(eigs[-1]), 0.0) * self.dim * np.finfo(float).eps
        return np.where(eigs > tol, eigs, 0.0), vecs

    @cached_property
    def _eig_range(self) -> tuple:
        eigs = self._eigh[0]
        return float(eigs[0]), float(eigs[-1])

    @cached_property
    def _solve1(self):
        return np.linalg._umath_linalg.solve1

    def _witness_residuals(self, w):
        # A w = aw / (den wden), |A w|^2 = sq / sq_den
        ws, wden = _over_one_den(w)
        aw = [sum(a * x for a, x in zip(row, ws)) for row in self._m]
        sq, sq_den = sum(v * v for v in aw), (self._den * wden) ** 2
        if excess(sq, sq_den) is not None:
            raise ValueError("declared zero is not in the kernel")
        for p, q in map(float.as_integer_ratio, _WITNESS_CS):
            # J_c(w) - w = -y for (I + cA) y = cAw, and y = 0 where Aw = 0
            if not sq:
                yield None
                continue
            # (q den I + p m) (wden y) = p m ws, solved as ys / det; the
            # symmetric part of I + cA has eigenvalues at least
            # 1 - c SLACK (n+1)/2 > 0, so no leading minor is zero
            ys, det = _solve([[q * self._den * (i == j) + p * v
                               for j, v in enumerate(row)]
                              for i, row in enumerate(self._m)],
                             [p * v for v in aw])
            yield excess(sum(v * v for v in ys), (det * wden) ** 2)

    def _is_spectral(self, c):
        """Whether cond(I + cA) passes _SPECTRAL_COND.  Where c lam_min
        overflows too, the ratio is inf/inf = NaN, and such a c is spectral:
        its system would hold infinities."""
        lo, hi = self._eig_range
        cond = (1.0 + c * hi) / (1.0 + c * lo)
        return (cond > _SPECTRAL_COND) | (cond != cond)

    def _spectral_rows(self, c, xs):
        """Q diag(1/(1 + c lam)) Q^T x for each row, as a stack of one-row
        products, so that a row's bits do not depend on the row count.
        Where c lam overflows, 1/(1 + c lam) is 0, with no warning."""
        eigs, vecs = self._eigh
        coef = np.matmul(xs[:, None, :], vecs)[:, 0, :]
        with np.errstate(over="ignore"):
            coef = coef / (1.0 + c * eigs)
        return np.matmul(coef[:, None, :], vecs.T)[:, 0, :]

    def _system_at(self, c):
        """I + cA, or None where J_c is spectral, cached for the last c."""
        if c != self._c:
            self._c = c
            self._system = None if self._is_spectral(c) else \
                np.eye(self.dim) + c * self.matrix
        return self._system

    def _resolve_into(self, c, x, out):
        system = self._system_at(c)
        if system is None:
            out[:] = self._spectral_rows(c, x[None, :])[0]
        else:
            self._solve1(system, x, out=out, signature="dd->d")

    def _resolve_rows(self, c, xs):
        # solve1 broadcasts the one system over the rows and solves each
        # row on its own, as _resolve does: solving many right-hand sides
        # against one factorization rounds otherwise.
        system = self._system_at(c)
        if system is None:
            return self._spectral_rows(c, xs)
        return self._solve1(system, xs, signature="dd->d")


class Rotation2D(ResolventOperator):
    """Quarter-turn rotation T(x1, x2) = (-x2, x1): monotone with <Tx, x> = 0.

    The zero set is the origin alone, which makes it a useful stress case:
    no resolvent is a projection and the iterates spiral rather than slide.
    """

    kind = "rotation2d"

    def __init__(self, zero_set_witness=None):
        if zero_set_witness is None:
            zero_set_witness = [0.0, 0.0]
        super().__init__(2, zero_set_witness)

    def _witness_residuals(self, w):
        # |J_c(w) - w|^2 = c^2 |w|^2 / (1 + c^2), with c = p / q
        num, den = sq_dist(w, (0.0, 0.0))
        return [excess(num * p * p, den * (p * p + q * q))
                for p, q in map(float.as_integer_ratio, _WITNESS_CS)]

    def _resolve_pair(self, c, x0, x1):
        det = 1.0 + c * c
        return (x0 + c * x1) / det, (x1 - c * x0) / det

    def _resolve_rows(self, c, xs):
        det = 1.0 + c * c
        x0, x1 = xs[:, 0], xs[:, 1]
        return np.stack([(x0 + c * x1) / det, (x1 - c * x0) / det], axis=1)


def check_resolvent_identity(op: ResolventOperator, a: float, b: float, x) -> float:
    """Residual of J_a(x) = J_b((b/a) x + (1 - b/a) J_a(x)); zero for any
    maximal monotone operator, up to floating point."""
    if not (a > 0 and b > 0):
        raise ValueError("resolvent parameters must be positive")
    x = as_point(x)
    ja = op.resolvent(a, x)
    ratio = b / a
    rhs = op.resolvent(b, ratio * x + (1.0 - ratio) * ja)
    return float(np.linalg.norm(ja - rhs))
