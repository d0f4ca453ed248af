"""Euclidean points and maximal monotone operators with closed-form resolvents.

Every operator here answers resolvent queries J_c = (I + cT)^(-1) exactly
(up to floating point), with no inner iterative solver, and carries a known
zero of T so traces can be measured against the solution set.

`resolvent` is the checked entry point for one point: it takes a finite
c > 0.  Callers that have already validated their inputs use the unchecked
`_resolve(c, x)`, its form on a list of Python floats `_resolve_floats(c,
x)`, and its row-batched form `_resolve_rows(c, xs)`, one c for every row;
all three agree bit for bit.

`LinearPSD._resolve` solves its cached system through `solve1`, the LAPACK
gufunc (dgesv) that `np.linalg.solve` itself calls on a vector right-hand
side, and `_resolve_rows` broadcasts it over the rows.  It is the same
call, so the bits are the same, without the wrapper's type checks and the
error-state switch that turns a singular system into LinAlgError: below
the spectral threshold the system is never singular.

numpy is imported when an operator or a schedule first reads it, not when
this module is: `np` here is the package's one binding of it, which
`schedules` and `oracle` import from this module.  An operator with a
native float form (`_resolve_floats`: QuadraticProx, BoxProjection,
Rotation2D) given its points as tuples or lists of floats reads them as
Python floats and checks its zero-set witness on them, so building it
loads no numpy; its point arrays are built at first read.
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


def _float_coords(coords) -> Optional[list]:
    """as_point(coords).tolist(), read without numpy, when coords is a
    nonempty tuple or list of finite Python floats; else None, which leaves
    the reading, and any refusal, to as_point."""
    if type(coords) in (tuple, list) and coords \
            and all(type(v) is float and math.isfinite(v) for v in coords):
        return list(coords)
    return None


def norm(x) -> float:
    x = as_point(x)
    return float(np.linalg.norm(x))


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (rows, dim) arrays.

    A stack of 1 x dim by dim x 1 products sums each row in the same order
    as np.dot, so entry i equals np.dot(x[i], y[i]) bit for bit;
    np.linalg.norm(axis=1), einsum and (x * y).sum(1) sum in other orders.
    In one dimension np.dot returns the bare product, whose zero may be
    negative, where the stacked sum starts from +0.  BLAS sums a row whose
    coordinates lie a stride apart in yet another order, so such rows are
    copied contiguous first, as np.linalg.norm copies its vector.
    """
    if x.strides[1] != x.itemsize:
        x = np.ascontiguousarray(x)
    if y.strides[1] != y.itemsize:
        y = np.ascontiguousarray(y)
    if x.shape[1] == 1:
        return x[:, 0] * y[:, 0]
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows, each equal to np.linalg.norm(x[i])."""
    return np.sqrt(row_dot(x, x))


class ResolventOperator:
    """Base class: a maximal monotone operator presented through resolvents.

    Subclasses state the single-point resolvent for c > 0 once, either as
    _resolve(c, x) on an array or, when it is a per-coordinate closed form,
    as _resolve_floats(c, x) on a list of Python floats; the base class
    derives the other one.  They also implement the row-batched form
    _resolve_rows(c, xs) for one parameter and a (rows, dim) point array,
    and come with a zero_set_witness, a known point s with 0 in T(s).

    With a native float form, a witness that _float_coords reads is checked
    on floats, and zero_set_witness is built from them at first read.  The
    float check only accepts, where each residual is at most SLACK / 2;
    any other witness takes the array check, which words the refusal.
    """

    kind = "abstract"

    def __init__(self, dim: int, zero_set_witness):
        self.dim = dim
        if type(self)._resolve_floats is not ResolventOperator._resolve_floats:
            witness = _float_coords(zero_set_witness)
            if witness is not None and len(witness) == dim \
                    and self._fixes_on_floats(witness):
                self._witness = witness
                return
        self.zero_set_witness = as_point(zero_set_witness)
        if self.zero_set_witness.size != dim:
            raise ValueError("zero set witness has wrong dimension")
        for c in _WITNESS_CS:
            res = norm(self._resolve(c, self.zero_set_witness) - self.zero_set_witness)
            if res > SLACK:
                raise ValueError(
                    f"declared zero is not fixed by the resolvent at c={c} "
                    f"(residual {res:.3e})")

    def _fixes_on_floats(self, witness: list) -> bool:
        """Whether J_c moves the witness by at most SLACK / 2 at every
        witness c.  The residual rounds as the array check's norm does up
        to a relative dim * eps, far inside the margin; a NaN residual
        passes, as it passes the array check."""
        for c in _WITNESS_CS:
            fixed = self._resolve_floats(c, witness)
            res = math.sqrt(sum((r - w) * (r - w)
                                for r, w in zip(fixed, witness)))
            if res > SLACK / 2:
                return False
        return True

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
        return np.array(self._resolve_floats(c, x.tolist()), dtype=float)

    def _resolve_floats(self, c: float, x: list) -> list:
        """J_c(x) for a list of floats; Python float arithmetic rounds each
        operation as numpy does, so it equals _resolve bit for bit."""
        return self._resolve(c, np.array(x, dtype=float)).tolist()

    def _resolve_rows(self, c: float, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class QuadraticProx(ResolventOperator):
    """Gradient of the squared distance to a center, scaled by a weight.

    T(x) = w*(x - m), so J_c(x) = (x + c*w*m) / (1 + c*w).
    """

    kind = "quadratic_prox"

    def __init__(self, center, weight: float = 1.0, zero_set_witness=None):
        if not (weight > 0):
            raise ValueError("weight must be positive")
        self.weight = float(weight)
        self._center = _float_coords(center) or as_point(center).tolist()
        if zero_set_witness is None:
            zero_set_witness = self._center
        super().__init__(len(self._center), zero_set_witness)

    @cached_property
    def center(self) -> np.ndarray:
        return as_point(self._center)

    def _resolve_floats(self, c, x):
        cw = c * self.weight
        den = 1.0 + cw
        return [(xi + cw * mi) / den for xi, mi in zip(x, self._center)]

    def _resolve_rows(self, c, xs):
        cw = c * self.weight
        return (xs + cw * self.center) / (1.0 + cw)


class BallProjection(ResolventOperator):
    """Normal cone of a closed ball; every resolvent is the metric projection."""

    kind = "ball_projection"

    def __init__(self, center, radius: float, zero_set_witness=None):
        if not (radius > 0):
            raise ValueError("radius must be positive")
        self.center = as_point(center)
        self.radius = float(radius)
        if zero_set_witness is None:
            zero_set_witness = self.center
        super().__init__(self.center.size, zero_set_witness)

    def _resolve(self, c, x):
        d = x - self.center
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            return x.copy()
        return self.center + d * (self.radius / dist)

    def _resolve_rows(self, c, xs):
        d = xs - self.center
        dist = row_norm(d)
        out = xs.copy()
        far = ~(dist <= self.radius)
        out[far] = self.center + d[far] * (self.radius / dist[far])[:, None]
        return out


class BoxProjection(ResolventOperator):
    """Normal cone of a coordinate box; resolvents clip componentwise."""

    kind = "box_projection"

    def __init__(self, lo, hi, zero_set_witness=None):
        self._lo = _float_coords(lo) or as_point(lo).tolist()
        self._hi = _float_coords(hi) or as_point(hi).tolist()
        if len(self._lo) != len(self._hi):
            raise ValueError("box corners must have equal dimension")
        if any(l > h for l, h in zip(self._lo, self._hi)):
            raise ValueError("box is empty")
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

    def _resolve_floats(self, c, x):
        # np.clip's rule, not min/max: NaN passes through, and a tie with a
        # face takes the face, so -0.0 clips to a +0.0 face as +0.0 where
        # max(-0.0, 0.0) is -0.0
        m = [xi if (xi != xi or xi > lo) else lo
             for xi, lo in zip(x, self._lo)]
        return [mi if (mi != mi or mi < hi) else hi
                for mi, hi in zip(m, self._hi)]

    def _resolve_rows(self, c, xs):
        # the same rule spelled out: numpy 2's np.clip keeps x on a tie in
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
    """

    kind = "linear_psd"

    def __init__(self, matrix, zero_set_witness=None):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix has non-finite entries")
        if not np.allclose(mat, mat.T, atol=SLACK):
            raise ValueError("matrix must be symmetric")
        eigs, self._vecs = np.linalg.eigh(mat)
        if eigs.min() < -SLACK:
            raise ValueError("matrix must be positive semidefinite")
        # eigenvalues within rounding of 0 (numpy's matrix_rank tolerance)
        # belong to the kernel: c times their rounding would grow with c
        tol = max(float(eigs[-1]), 0.0) * mat.shape[0] * np.finfo(float).eps
        self._eigs = np.where(eigs > tol, eigs, 0.0)
        self._eig_lo, self._eig_hi = float(self._eigs[0]), float(self._eigs[-1])
        self.matrix = mat
        # the last c _system_at saw, and its I + cA, or None where J_c is
        # spectral
        self._c, self._system = None, None
        self._solve1 = np.linalg._umath_linalg.solve1
        if zero_set_witness is None:
            zero_set_witness = np.zeros(mat.shape[0])
        else:
            image = mat @ as_point(zero_set_witness)
            if float(np.linalg.norm(image)) > SLACK:
                raise ValueError("declared zero is not in the kernel")
        super().__init__(mat.shape[0], zero_set_witness)

    def _is_spectral(self, c):
        """Whether cond(I + cA) passes _SPECTRAL_COND.  Where c lam_min
        overflows too, the ratio is inf/inf = NaN, and such a c is spectral:
        its system would hold infinities."""
        cond = (1.0 + c * self._eig_hi) / (1.0 + c * self._eig_lo)
        return (cond > _SPECTRAL_COND) | (cond != cond)

    def _spectral_rows(self, c, xs):
        """Q diag(1/(1 + c lam)) Q^T x for each row, as a stack of one-row
        products, so that a row's bits do not depend on the row count.
        Where c lam overflows, 1/(1 + c lam) is 0, with no warning."""
        coef = np.matmul(xs[:, None, :], self._vecs)[:, 0, :]
        with np.errstate(over="ignore"):
            coef = coef / (1.0 + c * self._eigs)
        return np.matmul(coef[:, None, :], self._vecs.T)[:, 0, :]

    def _system_at(self, c):
        """I + cA, or None where J_c is spectral, cached for the last c."""
        if c != self._c:
            self._c = c
            self._system = None if self._is_spectral(c) else \
                np.eye(self.dim) + c * self.matrix
        return self._system

    def _resolve(self, c, x):
        system = self._system_at(c)
        if system is None:
            return self._spectral_rows(c, x[None, :])[0]
        return self._solve1(system, x, signature="dd->d")

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

    def _resolve_floats(self, c, x):
        x0, x1 = x
        det = 1.0 + c * c
        return [(x0 + c * x1) / det, (x1 - c * x0) / det]

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
