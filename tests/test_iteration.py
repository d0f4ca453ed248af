"""Running traces, the empirical searches and the diagnostic inequalities."""

import dataclasses
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mppa import bounds
from mppa.config import parse_fspec
from mppa.countfn import (Affine, Budget, BudgetExceededError, Closure, Const,
                          Identity, Table, evaluate)
from mppa.iteration import (_REAL_MAX, _REAL_MIN, _TRACE_BLOCK, Trace,
                            _format_reals, _window_diameter,
                            asymptotic_residuals, boundedness_check,
                            empirical_metastability, empirical_window_index,
                            gap_decrease_check, recurrence_check,
                            resolvent_drift_check, run, wbound_check,
                            write_trace_csv)
from mppa.operators import (SLACK, BallProjection, BoxProjection, LinearPSD,
                            QuadraticProx, Rotation2D)
from mppa.schedules import (ConstantSeq, GeometricError, HarmonicSeq,
                            Schedule, ZeroError, derive_constants)


def quadratic_trace(horizon=200) -> Trace:
    op = QuadraticProx(center=(1.0, -1.0), weight=1.0)
    sched = Schedule(lam=HarmonicSeq(shift=3.0), gamma=ConstantSeq(0.5),
                     c=ConstantSeq(1.0), error=ZeroError(dim=2))
    return run(op, sched, u=(3.0, 2.0), z0=(0.0, 0.0), horizon=horizon,
               c=1, target=(1.0, -1.0))


def test_run_validation():
    op = QuadraticProx(center=(0.0,))
    sched = Schedule(lam=HarmonicSeq(shift=3.0), gamma=ConstantSeq(0.5),
                     c=ConstantSeq(1.0), error=ZeroError(dim=1))
    with pytest.raises(ValueError):
        run(op, sched, u=(1.0,), z0=(0.0,), horizon=-1)
    with pytest.raises(ValueError):
        run(op, sched, u=(1.0,), z0=(0.0,), horizon=5, c=0)
    with pytest.raises(ValueError):
        run(op, sched, u=(1.0, 2.0), z0=(0.0,), horizon=5)
    with pytest.raises(ValueError, match="non-finite"):
        run(op, sched, u=(float("nan"),), z0=(0.0,), horizon=5)


@dataclasses.dataclass(frozen=True)
class Listed:
    """A parameter family given by its first values."""

    vals: tuple

    def values(self, count):
        return np.array(self.vals[:count], dtype=float)


def test_run_reports_first_invalid_step():
    op = QuadraticProx(center=(0.0,))
    lam = Listed((0.2, 0.2, 0.2, 0.6, 0.2, 0.7))      # delta < 0 at n = 3, 5
    sched = Schedule(lam=lam, gamma=ConstantSeq(0.5), c=ConstantSeq(1.0),
                     error=ZeroError(dim=1))
    with pytest.raises(ValueError, match=r"^invalid schedule at n=3$"):
        run(op, sched, u=(1.0,), z0=(0.0,), horizon=5)
    # delta at the final index is never used, so it is not checked
    assert run(op, sched, u=(1.0,), z0=(0.0,), horizon=3).horizon == 3

    c = Listed((1.0, 1.0, 0.0, 1.0, 1.0, 1.0))         # c = 0 at n = 2
    sched = Schedule(lam=lam, gamma=ConstantSeq(0.5), c=c,
                     error=ZeroError(dim=1))
    with pytest.raises(ValueError, match=r"^invalid schedule at n=2$"):
        run(op, sched, u=(1.0,), z0=(0.0,), horizon=5)
    with pytest.raises(ValueError, match=r"^invalid schedule at n=2$"):
        run(op, sched, u=(1.0,), z0=(0.0,), horizon=2)
    sched = dataclasses.replace(sched, c=Listed((1.0, np.inf, 1.0)))
    with pytest.raises(ValueError, match=r"^invalid schedule at n=1$"):
        run(op, sched, u=(1.0,), z0=(0.0,), horizon=2)


def test_run_diverging_iterate_raises_without_warnings(capfd):
    # lambda < 0 makes z_(n+1) = 5.75 z_n - 10 u, which overflows near n = 400
    op = QuadraticProx(center=(0.0,))
    sched = Schedule(lam=ConstantSeq(-10.0), gamma=ConstantSeq(0.5),
                     c=ConstantSeq(1.0), error=ZeroError(dim=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="point has non-finite coordinates"):
            run(op, sched, u=(1.0,), z0=(2.0,), horizon=2000)
    assert capfd.readouterr().err == ""


def test_trace_shapes_and_recurrence():
    trace = quadratic_trace(50)
    assert trace.horizon == 50
    assert trace.z.shape == (51, 2)
    assert trace.dz.shape == (50,)
    assert trace.w.shape == (50, 2)
    # z_(n+1) = lam u + gam z + delta J(z) + e, re-derived by hand
    for n in (0, 7, 49):
        want = (trace.lam[n] * trace.u + trace.gam[n] * trace.z[n]
                + trace.delta[n] * trace.jn[n] + trace.errs[n])
        assert np.allclose(trace.z[n + 1], want)
    # w inverts the averaging: z_(n+1) = gam z_n + (1-gam) w_n
    rebuilt = trace.gam[:-1, None] * trace.z[:-1] \
        + (1.0 - trace.gam[:-1, None]) * trace.w
    assert np.allclose(rebuilt, trace.z[1:])


def test_trace_defaults_s_to_witness():
    trace = quadratic_trace(5)
    assert np.allclose(trace.s, (1.0, -1.0))
    assert trace.dist_s is not None
    assert trace.dist_target is not None


def test_residual_curves():
    trace = quadratic_trace(100)
    curves = asymptotic_residuals(trace)
    assert set(curves) == {"dz", "res_Jn", "res_J"}
    assert curves["dz"].shape == (100,)
    assert curves["res_Jn"].shape == (101,)
    # constant parameter schedule: both residual columns coincide
    assert np.allclose(curves["res_Jn"], curves["res_J"])
    # the quadratic problem contracts toward its center
    assert curves["res_Jn"][100] < curves["res_Jn"][0]


def trace_csv_text(trace: Trace) -> str:
    fh = io.StringIO()
    write_trace_csv(trace, fh)
    return fh.getvalue()


def trace_csv_lines(trace: Trace) -> list:
    return trace_csv_text(trace).splitlines()


def test_horizon_zero():
    trace = quadratic_trace(0)
    assert trace.z.shape == (1, 2)
    assert trace.dz.shape == (0,)
    lines = trace_csv_lines(trace)
    assert len(lines) == 2
    header, row = lines
    assert header == "n,znorm_dist_s,dz,res_Jn,res_J,dist_target"
    assert row.split(",")[2] == ""      # dz column empty on the final row


def test_trace_csv_format():
    trace = quadratic_trace(3)
    lines = trace_csv_lines(trace)
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line.split(",")) == 6
    assert lines[1].startswith("0,")
    assert lines[-1].split(",")[2] == ""

    op = QuadraticProx(center=(1.0,))
    sched = Schedule(lam=HarmonicSeq(shift=3.0), gamma=ConstantSeq(0.5),
                     c=ConstantSeq(1.0), error=ZeroError(dim=1))
    bare = run(op, sched, u=(1.0,), z0=(0.0,), horizon=1)
    assert trace_csv_lines(bare)[1].split(",")[5] == ""  # no target column


# The per-row formatter trace.csv was first written with; write_trace_csv
# must reproduce its bytes.  Each column is computed here from the recorded
# arrays, so a column the trace shares with another is checked as well.


def assert_same_csv(got: str, want: str) -> None:
    """got == want, reporting the first line that differs rather than a
    diff of two texts of a megabyte."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            pytest.fail(f"line {i} differs:\n  got  {g!r}\n  want {w!r}")
    if len(got_lines) != len(want_lines):
        pytest.fail(f"{len(got_lines)} lines, want {len(want_lines)}")


def trace_csv_ref(trace: Trace) -> str:
    def fmt(x):
        return format(float(x), ".17g")

    def dist(p):
        return None if p is None else np.linalg.norm(trace.z - p, axis=1)

    dist_s = dist(trace.s)
    dist_t = dist(trace.target)
    dz = np.linalg.norm(np.diff(trace.z, axis=0), axis=1)
    res_n = np.linalg.norm(trace.jn - trace.z, axis=1)
    res_f = np.linalg.norm(trace.jfix - trace.z, axis=1)
    lines = ["n,znorm_dist_s,dz,res_Jn,res_J,dist_target"]
    for n in range(trace.horizon + 1):
        cols = [
            str(n),
            fmt(dist_s[n]) if dist_s is not None else "",
            fmt(dz[n]) if n < trace.horizon else "",
            fmt(res_n[n]),
            fmt(res_f[n]),
            fmt(dist_t[n]) if dist_t is not None else "",
        ]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def run_config(cfg) -> Trace:
    return run(cfg.problem.build(), cfg.iteration.build(), cfg.iteration.u,
               cfg.iteration.z0, cfg.run.horizon, c=cfg.moduli.c,
               s=cfg.problem.s, target=cfg.problem.target)


@pytest.mark.parametrize("name", ["cfg_a", "cfg_b"])
def test_write_trace_csv_matches_row_formatter_on_shipped_configs(name,
                                                                  request):
    trace = run_config(request.getfixturevalue(name))
    assert_same_csv(trace_csv_text(trace), trace_csv_ref(trace))


# Horizons at the edges of one, two and four blocks of rows.
BLOCK_EDGES = [0, 1, _TRACE_BLOCK - 1, _TRACE_BLOCK, _TRACE_BLOCK + 1,
               2 * _TRACE_BLOCK - 1, 2 * _TRACE_BLOCK, 2 * _TRACE_BLOCK + 1,
               4 * _TRACE_BLOCK + 1]


@pytest.mark.parametrize("horizon", BLOCK_EDGES)
@pytest.mark.parametrize("drop", [(), ("s",), ("target",), ("s", "target")])
def test_write_trace_csv_matches_row_formatter(horizon, drop):
    trace = dataclasses.replace(quadratic_trace(horizon),
                                **{name: None for name in drop})
    assert_same_csv(trace_csv_text(trace), trace_csv_ref(trace))


def test_write_trace_csv_special_values():
    trace = quadratic_trace(6)
    z = trace.z.copy()
    z[2] = (np.inf, 0.0)
    z[3] = (np.nan, 1.0)
    z[4] = (-1e308, 1e308)
    trace = dataclasses.replace(trace, z=z)
    with np.errstate(over="ignore", invalid="ignore"):
        text = trace_csv_text(trace)
        assert_same_csv(text, trace_csv_ref(trace))
    assert "inf" in text and "nan" in text


def shared_trace(horizon: int, target_is_s: bool, jfix_is_jn: bool) -> Trace:
    """A LinearPSD run whose target is s or not, and whose every c_n is 1/c
    (so the trace keeps one resolvent array) or not."""
    op = LinearPSD(matrix=((2.0, 1.0), (1.0, 3.0)))
    cs = [0.5] * (horizon + 1) if jfix_is_jn \
        else [0.5, 2.0] * (horizon // 2 + 1)
    target = op.zero_set_witness if target_is_s else (0.25, -0.5)
    return run(op, listed_c_schedule(cs, 2), (3.0, -2.0), (-1.0, 4.0),
               horizon, c=2, target=target)


@pytest.mark.parametrize("horizon", [_TRACE_BLOCK - 1, _TRACE_BLOCK + 1,
                                     2 * _TRACE_BLOCK - 1,
                                     2 * _TRACE_BLOCK + 1])
@pytest.mark.parametrize("target_is_s", [True, False])
@pytest.mark.parametrize("jfix_is_jn", [True, False])
def test_write_trace_csv_shared_columns(horizon, target_is_s, jfix_is_jn):
    trace = shared_trace(horizon, target_is_s, jfix_is_jn)
    # the columns are one array exactly when they are equal by construction
    assert (trace.res_j is trace.res_jn) == jfix_is_jn
    assert (trace.dist_target is trace.dist_s) == target_is_s
    assert_same_csv(trace_csv_text(trace), trace_csv_ref(trace))


@pytest.mark.parametrize("target_is_s", [True, False])
@pytest.mark.parametrize("jfix_is_jn", [True, False])
def test_write_trace_csv_special_values_in_shared_columns(target_is_s,
                                                           jfix_is_jn):
    trace = shared_trace(_TRACE_BLOCK + 1, target_is_s, jfix_is_jn)
    z, jn = trace.z.copy(), trace.jn.copy()
    z[3] = (np.inf, 0.0)
    z[_TRACE_BLOCK - 1] = (np.nan, 1.0)
    z[_TRACE_BLOCK + 1] = (np.nan, np.nan)              # the final row
    jn[5] = (-np.inf, 2.0)
    jn[_TRACE_BLOCK] = (np.nan, 0.0)
    jfix = jn if jfix_is_jn else trace.jfix
    trace = dataclasses.replace(trace, z=z, jn=jn, jfix=jfix)
    with np.errstate(over="ignore", invalid="ignore"):
        text = trace_csv_text(trace)
        assert_same_csv(text, trace_csv_ref(trace))
    assert (trace.res_j is trace.res_jn) == jfix_is_jn
    assert (trace.dist_target is trace.dist_s) == target_is_s
    assert "inf" in text and "nan" in text


def test_trace_columns_are_computed_once():
    trace = quadratic_trace(20)
    for name in ("dz", "w", "gap", "res_jn", "res_j", "dist_s",
                 "dist_target"):
        assert getattr(trace, name) is getattr(trace, name)
    # a replaced trace computes its columns afresh
    moved = dataclasses.replace(trace, z=trace.z + 1.0)
    assert not np.array_equal(moved.dist_s, trace.dist_s)
    assert moved.dz is not trace.dz


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@settings(max_examples=500)
def test_percent_format_is_format_17g(x):
    assert "%.17g" % x == format(x, ".17g")


# --- the real formatter of trace.csv ---------------------------------------------


def assert_formats_as_17g(values) -> None:
    """_format_reals spells each value as '%.17g' does."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    got = [bytes(row).rstrip(b"\0").decode() for row in _format_reals(x)]
    for v, g in zip(x.tolist(), got):
        if g != "%.17g" % v:
            pytest.fail(f"{v!r}: got {g!r}, want {'%.17g' % v!r}")


def both_signs(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    return np.concatenate([x, -x])


def test_format_reals_random_bit_patterns():
    rng = np.random.default_rng(20)
    anywhere = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    # binary exponents -34..53 span the kernel's range, 1e-10 <= |x| < 1e16
    exponent = rng.integers(1023 - 34, 1023 + 54, 100_000, dtype=np.uint64)
    mantissa = rng.integers(0, 2 ** 52, 100_000, dtype=np.uint64)
    sign = rng.integers(0, 2, 100_000, dtype=np.uint64)
    in_range = (sign << np.uint64(63)) | (exponent << np.uint64(52)) \
        | mantissa
    assert_formats_as_17g(np.concatenate([anywhere, in_range]).view(float))


def test_format_reals_exact_ties():
    # x = j / 2^(p+1) with j odd has x 10^p = j 5^p / 2, exactly halfway
    # between two 17-digit integers when 10^(16-p) <= x < 10^(17-p)
    rng = np.random.default_rng(21)
    ties = []
    for p in range(1, 24):
        lo = -(-2 ** (p + 1) * 10 ** 16 // 10 ** p)
        hi = min(-(-2 ** (p + 1) * 10 ** 17 // 10 ** p), 2 ** 53)
        js = [int(j) | 1 for j in rng.integers(lo, hi - 1, 400)] \
            + [lo | 1, (hi - 2) | 1]
        for j in js:
            scaled = Fraction(j, 2 ** (p + 1)) * 10 ** p
            assert 10 ** 16 <= scaled < 10 ** 17 and scaled.denominator == 2
        ties += [j / 2 ** (p + 1) for j in js]
    assert_formats_as_17g(both_signs(ties))


def test_format_reals_powers_of_ten_and_neighbours():
    near = []
    for e in range(-11, 18):
        up = down = 10.0 ** e
        for _ in range(40):
            near += [up, down]
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
    assert_formats_as_17g(both_signs(near))


def test_format_reals_values_that_round_into_the_next_decade():
    # the doubles nearest 9.99...9e(e) with 15 to 21 nines lie at or just
    # below 10^(e+1), where the 17th digit decides the decade
    nines = [float("9." + "9" * n + f"e{e}")
             for e in range(-11, 17) for n in range(14, 21)]
    assert_formats_as_17g(both_signs(nines))


def test_no_real_in_range_rounds_into_the_next_decade():
    """Below each power of ten the kernel's range reaches, the largest
    double is more than half a unit of the 17th digit away: the rounded
    digits D never carry to 10^17."""
    for k in range(round(math.log10(_REAL_MIN)) + 1,
                   round(math.log10(_REAL_MAX)) + 1):
        power = Fraction(10) ** k
        below = float(power)
        while Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        assert power - Fraction(below) > Fraction(10) ** (k - 17) / 2


def test_format_reals_between_two_to_the_52_and_1e16():
    rng = np.random.default_rng(22)
    whole = rng.integers(2 ** 52, 10 ** 16, 20_000).astype(float)
    edges = [2.0 ** 52 + k for k in range(-8, 9)] \
        + [2.0 ** 53 + 2 * k for k in range(-8, 9)] \
        + [1e16 - 2 * k for k in range(1, 9)]
    halves = 2.0 ** 52 - rng.integers(0, 2 ** 20, 2000) - 0.5
    assert_formats_as_17g(both_signs(np.concatenate([whole, edges, halves])))


def test_format_reals_fallback_edges():
    edges = []
    for x in (_REAL_MIN, _REAL_MAX):
        up = down = x
        for _ in range(4):
            edges += [up, down]
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
    specials = [0.0, 5e-324, 2.2250738585072014e-308, 1e300,
                1.7976931348623157e308, np.inf, np.nan]
    assert_formats_as_17g(both_signs(edges + specials))


def test_write_trace_csv_special_values_at_block_edges():
    h = 2 * _TRACE_BLOCK + 1
    trace = quadratic_trace(h)
    specials = [0.0, -0.0, 5e-324, 1e300, np.inf, np.nan, -np.inf, 1e-11]
    edges = [0, 1, _TRACE_BLOCK - 1, _TRACE_BLOCK, _TRACE_BLOCK + 1,
             2 * _TRACE_BLOCK - 1, 2 * _TRACE_BLOCK, h]
    columns = {}
    for j, name in enumerate(("dist_s", "dz", "res_jn", "res_j",
                              "dist_target")):
        col = getattr(trace, name).copy()
        for i, n in enumerate(edges):
            col[min(n, col.size - 1)] = specials[(i + j) % len(specials)]
        # a cached column, as Trace computes it on first use
        trace.__dict__[name] = columns[name] = col
    lines = ["n,znorm_dist_s,dz,res_Jn,res_J,dist_target"]
    for n in range(h + 1):
        lines.append(",".join([str(n)] + [
            "" if name == "dz" and n == h else format(float(c[n]), ".17g")
            for name, c in columns.items()]))
    assert_same_csv(trace_csv_text(trace), "\n".join(lines) + "\n")


# --- empirical searches ---------------------------------------------------------


def col(values) -> np.ndarray:
    return np.asarray(values, dtype=float)[:, None]


def test_empirical_metastability_least_witness():
    z = col([1.0, 0.0, 0.0, 0.0])
    assert empirical_metastability(z, 0, Const(1)) == 0   # diam 1 <= 1/(0+1)
    z = col([3.0, 0.0, 0.0, 0.0])
    assert empirical_metastability(z, 0, Const(1)) == 1
    assert empirical_metastability(z, 0, Const(0)) == 0   # singleton window
    assert empirical_metastability(z, 0, Const(10)) is None
    with pytest.raises(ValueError):
        empirical_metastability(np.zeros(4), 0, Const(0))


def test_empirical_metastability_skips_to_fitting_window():
    # n = 2 fits f(n) = 1 inside 4 entries; earlier windows are too wide.
    z = col([5.0, 3.0, 0.1, 0.1])
    assert empirical_metastability(z, 1, Const(1)) == 2
    # a constant window has diameter zero regardless of its magnitude
    assert empirical_metastability(col([5.0, 5.0, 0.1, 0.1]), 1, Const(1)) == 0


def test_empirical_metastability_borderline_diameter():
    pts = np.array([[0.0, 0.0], [0.6, 0.0], [1.0, 0.0]])
    assert empirical_metastability(pts, 0, Const(2)) == 0
    pts = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
    assert empirical_metastability(pts, 0, Const(2)) is None
    # radius 0.6 from the first row, in the band at tau = 1; diameter 1.2
    pts = np.array([[0.0, 0.0], [-0.6, 0.0], [0.6, 0.0]])
    assert empirical_metastability(pts, 0, Const(2)) is None
    assert not _window_diameter(pts, 0, 2, 1.0)
    assert _window_diameter(pts, 0, 2, 1.2)


def test_window_with_nan_never_fits():
    nan = np.nan
    z = np.array([[nan, 0.0], [nan, 0.0], [3.0, 0.0]])
    for lo, hi in ((0, 0), (0, 1), (1, 2), (0, 2)):
        assert not _window_diameter(z, lo, hi, 0.5)
        assert not window_fits_ref(z, lo, hi, 0.5)
    assert empirical_metastability(z, 0, Const(0)) == 2
    assert empirical_metastability(z, 0, Const(1)) is None
    # a NaN past the anchor row, in the borderline band and beyond it
    z = np.array([[0.0, 0.0], [0.3, 0.0], [0.3, nan], [0.0, 0.0]])
    assert empirical_metastability(z, 0, Const(1)) == 0
    assert empirical_metastability(z, 0, Const(2)) is None
    assert not _window_diameter(z, 0, 3, 1e300)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_window_diameter_matches_pairwise_loop(data):
    dim = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, 12))
    z = data.draw(arrays(float, (rows, dim), elements=st.floats(-2.0, 2.0),
                         fill=st.nothing()))
    lo = data.draw(st.integers(0, rows - 1))
    hi = data.draw(st.integers(lo, rows - 1))
    special = data.draw(st.sampled_from((None, None, np.nan, np.inf)))
    if special is not None:
        z[data.draw(st.integers(lo, hi)), data.draw(st.integers(0, dim - 1))] \
            = special
    # tau (1/(k+1) in the searches, so finite) at the radius from z[lo],
    # which puts the window in the borderline band, at an exact pairwise
    # distance or just below it, or drawn
    seg = z[lo:hi + 1]
    with np.errstate(invalid="ignore"):
        dists = [float(np.linalg.norm(a - b)) for a in seg for b in seg]
        radius = max(float(np.linalg.norm(a - seg[0])) for a in seg)
    at = st.sampled_from([d for d in dists if np.isfinite(d)] or [0.0])
    below = at.map(lambda d: float(np.nextafter(d, 0.0)))
    tau = data.draw(st.one_of(st.just(radius if np.isfinite(radius) else 0.0),
                              at, below, st.floats(0.0, 5.0)))
    with np.errstate(invalid="ignore"):
        assert _window_diameter(z, lo, hi, tau) \
            == window_fits_ref(z, lo, hi, tau)


def test_empirical_window_index():
    vals = np.array([0.6, 0.4, 0.2])
    assert empirical_window_index(vals, 1, Const(0)) == 1
    assert empirical_window_index(vals, 4, Const(0)) == 2
    assert empirical_window_index(vals, 1, Identity()) == 1
    assert empirical_window_index(vals, 9, Const(0)) is None
    with pytest.raises(ValueError):
        empirical_window_index(col([1.0]), 0, Const(0))


def test_searches_propagate_budget():
    z = col([0.0, 0.0])
    with pytest.raises(BudgetExceededError):
        empirical_metastability(z, 0, Const(0), Budget(max_calls=0))
    with pytest.raises(BudgetExceededError):
        empirical_window_index(z[:, 0], 0, Const(0), Budget(max_calls=0))


# The per-n loops the two searches were first written as, one fresh
# evaluate per candidate, over the literal pairwise diameter loop.  The
# searches must agree with them, index and marker stage alike.


def window_fits_ref(z, lo, hi, tau):
    """Is every pairwise distance in z[lo..hi] at most tau?  Row by row,
    each row against the rows after it; a NaN distance is over tau."""
    seg = z[lo:hi + 1]
    for i in range(seg.shape[0]):
        if not float(np.max(np.linalg.norm(seg[i:] - seg[i], axis=1))) <= tau:
            return False
    return True


def metastability_ref(z, k, f, budget=None):
    tau = 1.0 / (k + 1)
    last = z.shape[0] - 1
    for n in range(last + 1):
        fv = evaluate(f, n, budget)
        if not fv.is_exact:
            raise BudgetExceededError(fv.stage)
        if n + fv.value > last:
            continue
        if window_fits_ref(z, n, n + fv.value, tau):
            return n
    return None


def window_index_ref(values, k, f, budget=None):
    tau = 1.0 / (k + 1)
    last = values.shape[0] - 1
    for n in range(last + 1):
        fv = evaluate(f, n, budget)
        if not fv.is_exact:
            raise BudgetExceededError(fv.stage)
        if n + fv.value > last:
            continue
        if float(np.max(values[n:n + fv.value + 1])) <= tau:
            return n
    return None


def outcome(search, *args):
    try:
        return "index", search(*args)
    except BudgetExceededError as exc:
        return "marker", exc.stage


def assert_searches_match(values, k, f, budget):
    z = col(values)
    got = outcome(empirical_metastability, z, k, f, budget)
    assert got == outcome(metastability_ref, z, k, f, budget)
    got_w = outcome(empirical_window_index, values, k, f, budget)
    assert got_w == outcome(window_index_ref, values, k, f, budget)
    return got_w


@pytest.mark.parametrize("name", ["cfg_a", "cfg_b"])
def test_searches_match_per_n_loops_on_shipped_configs(name, request):
    cfg = request.getfixturevalue(name)
    trace = run_config(cfg)
    curves = asymptotic_residuals(trace)
    budget = cfg.budget()
    for k in cfg.run.ks:
        for spec in cfg.run.fspecs:
            f = parse_fspec(spec)
            assert outcome(empirical_metastability, trace.z, k, f, budget) \
                == outcome(metastability_ref, trace.z, k, f, budget)
            for values in curves.values():
                assert outcome(empirical_window_index, values, k, f, budget) \
                    == outcome(window_index_ref, values, k, f, budget)


def staged_square():
    def fn(n, state):
        prev = state.stage
        state.stage = "square"
        try:
            return state.check(n * n)
        finally:
            state.stage = prev

    return Closure(name="square", fn=fn)


# Affine(64, 0) under a 2**8 cap has its first marker at n = 5.
@pytest.mark.parametrize("values,want", [
    ([1.0] * 20, ("marker", "eval")),               # marker before a witness
    ([0.0] + [1.0] * 19, ("index", 0)),             # witness before the marker
    ([1.0] * 5, ("index", None)),                   # marker past the horizon
])
def test_searches_stop_at_marker_or_witness(values, want):
    got = assert_searches_match(np.array(values), 1, Affine(64, 0), Budget(8))
    assert got == want


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_searches_match_per_n_loops_on_drawn_cases(data):
    values = data.draw(arrays(float, st.integers(1, 40), elements=st.one_of(
        st.floats(0.0, 2.0), st.sampled_from((np.nan, np.inf))),
        fill=st.floats(0.0, 2.0)))
    f = data.draw(st.one_of(
        st.builds(Const, st.integers(0, 300)),
        st.just(Identity()),
        st.builds(Affine, st.integers(0, 80), st.integers(0, 300)),
        st.builds(lambda vs: Table(tuple(vs)),
                  st.lists(st.integers(0, 300), min_size=1, max_size=10)),
        st.just(staged_square()),
    ))
    budget = data.draw(st.builds(Budget, st.integers(8, 10),
                                 st.sampled_from((0, 1, 10 ** 7))))
    with np.errstate(invalid="ignore"):
        assert_searches_match(values, data.draw(st.integers(0, 3)), f, budget)


# --- diagnostics -----------------------------------------------------------------


def test_diagnostics_on_quadratic_trace():
    trace = quadratic_trace(400)
    assert recurrence_check(trace, trace.s, m1=35) <= 1e-8
    assert resolvent_drift_check(trace, c=1, n0=5) <= 1e-8
    assert boundedness_check(trace, n0=5) <= 0.0
    assert wbound_check(trace, a=2, n0=5) <= 0.0
    assert gap_decrease_check(trace, {0: 0, 3: 0}) == []


def test_gap_decrease_detects_fabricated_rate():
    trace = quadratic_trace(60)
    # Claiming the k = 10^6 almost-decrease from n = 0 is false on a trace
    # whose gap still moves at the 1e-2 scale early on.
    found = gap_decrease_check(trace, {10 ** 6: 0})
    assert found
    assert "gap rose" in found[0]


def with_nan(trace: Trace, n: int) -> Trace:
    """The trace with one coordinate of z_n replaced by NaN."""
    z = trace.z.copy()
    z[n, 0] = np.nan
    return dataclasses.replace(trace, z=z)


def test_nan_row_is_a_violation():
    trace = with_nan(quadratic_trace(60), 30)
    assert np.isnan(recurrence_check(trace, trace.s, m1=35))
    assert np.isnan(resolvent_drift_check(trace, c=1, n0=5))
    found = gap_decrease_check(trace, {0: 0, 3: 40})
    assert found == ["gap is NaN at n=28 (nu(0)=0)"]   # gap_29 uses z_30
    # Python's max() keeps the old value against NaN, so the scalar forms
    # let the same trace through.
    assert recurrence_ref(trace, trace.s, 35) <= 1e-8
    assert resolvent_drift_ref(trace, 1, 5) <= 1e-8
    assert gap_decrease_ref(trace, {0: 0}) == []


def test_boundedness_checks_need_reference():
    trace = quadratic_trace(5)
    trace.s = None
    with pytest.raises(ValueError):
        boundedness_check(trace, 5)
    with pytest.raises(ValueError):
        wbound_check(trace, 2, 5)


# --- scalar references for the batched diagnostics -------------------------------
#
# The per-step loops the diagnostics were first written as.  The batched
# forms must reproduce them bit for bit on every trace without NaN.


def recurrence_ref(trace, p, m1):
    p = np.asarray(p, dtype=float)
    h = trace.horizon
    worst = -np.inf
    for m in range(h):
        jp = trace.op.resolvent(trace.cs[m], p)
        dzp = float(np.linalg.norm(trace.z[m] - p))
        s_m = dzp * dzp
        s_m1 = float(np.linalg.norm(trace.z[m + 1] - p) ** 2)
        jgap = float(np.linalg.norm(jp - p))
        v_m = jgap * (jgap + 2.0 * dzp)
        r_m = 2.0 * float(np.dot(trace.u - p, trace.z[m + 1] - p))
        en = float(np.linalg.norm(trace.errs[m]))
        eps = en * (m1 + 2.0 * trace.lam[m] * float(np.linalg.norm(trace.u - p)))
        rhs = (1.0 - trace.lam[m]) * (s_m + v_m) + trace.lam[m] * r_m + eps
        worst = max(worst, s_m1 - rhs)
    return float(worst)


def resolvent_drift_ref(trace, c, n0):
    h = trace.horizon
    lhs = np.linalg.norm(np.diff(trace.jn, axis=0), axis=1)
    dz = trace.dz
    cdiff = np.abs(np.diff(trace.cs))
    worst = -np.inf
    for m in range(h):
        worst = max(worst, float(lhs[m] - dz[m] - 2.0 * c * n0 * cdiff[m]))
    return float(worst)


def gap_decrease_ref(trace, nu_values):
    g = trace.gap
    problems = []
    for k, start in sorted(nu_values.items()):
        tau = 1.0 / (k + 1)
        for n in range(start, trace.horizon - 1):
            if g[n + 1] > g[n] + tau + SLACK:
                problems.append(
                    f"gap rose by more than 1/{k + 1} at n={n} "
                    f"(nu({k})={start})")
                break
    return problems


def same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_diagnostics_match(trace, p, m1, c, n0, nu_values):
    assert same_float(recurrence_check(trace, p, m1),
                      recurrence_ref(trace, p, m1))
    assert same_float(resolvent_drift_check(trace, c, n0),
                      resolvent_drift_ref(trace, c, n0))
    assert gap_decrease_check(trace, nu_values) \
        == gap_decrease_ref(trace, nu_values)


@pytest.mark.parametrize("name", ["cfg_a", "cfg_b"])
def test_diagnostics_match_scalar_forms_on_shipped_configs(name, request):
    cfg = request.getfixturevalue(name)
    trace = run(cfg.problem.build(), cfg.iteration.build(), cfg.iteration.u,
                cfg.iteration.z0, cfg.run.horizon, c=cfg.moduli.c,
                s=cfg.problem.s, target=cfg.problem.target)
    ctx = derive_constants(cfg.moduli)
    nu_values = {k: bounds.nu(k, cfg.moduli, budget=cfg.budget()).value
                 for k in range(6)}
    assert_diagnostics_match(trace, trace.s, ctx.M1, cfg.moduli.c, ctx.N0,
                             nu_values)
    # claims strong enough to fail, so the located messages are compared too
    tight = {10 ** 6: 0, 10 ** 9: trace.horizon // 2}
    assert gap_decrease_check(trace, tight)
    assert_diagnostics_match(trace, trace.u, 0, 3, 0, tight)


@st.composite
def run_args(draw):
    """Arguments of short runs of every operator kind under drawn schedules:
    constant, harmonic or arbitrary c_n, zero or geometric errors, and a
    fixed parameter 1/c that c_n need not equal."""
    kind = draw(st.sampled_from(("quadratic_prox", "ball_projection",
                                 "box_projection", "linear_psd",
                                 "rotation2d")))
    dim = 2 if kind == "rotation2d" else draw(st.integers(1, 4))
    point = arrays(float, dim, elements=st.floats(-5.0, 5.0))
    if kind == "quadratic_prox":
        op = QuadraticProx(center=draw(point), weight=draw(st.floats(0.1, 5.0)))
    elif kind == "ball_projection":
        op = BallProjection(center=draw(point), radius=draw(st.floats(0.1, 3.0)))
    elif kind == "box_projection":
        a, b = draw(point), draw(point)
        op = BoxProjection(lo=np.minimum(a, b), hi=np.maximum(a, b))
    elif kind == "linear_psd":
        factor = draw(arrays(float, (dim, dim), elements=st.floats(-2.0, 2.0)))
        op = LinearPSD(matrix=factor @ factor.T)
    else:
        op = Rotation2D()
    horizon = draw(st.integers(0, 60))
    c = draw(st.sampled_from(("constant", "harmonic", "listed")))
    if c == "constant":
        c = ConstantSeq(draw(st.floats(0.05, 20.0)))
    elif c == "harmonic":
        c = HarmonicSeq(shift=draw(st.floats(0.05, 4.0)))
    else:
        c = Listed(tuple(draw(st.lists(st.floats(0.05, 20.0),
                                       min_size=horizon + 1,
                                       max_size=horizon + 1))))
    if draw(st.booleans()):
        error = ZeroError(dim=dim)
    else:
        error = GeometricError(ratio=draw(st.floats(0.05, 0.9)),
                               base=tuple(draw(point)))
    sched = Schedule(lam=HarmonicSeq(shift=draw(st.floats(2.0, 10.0))),
                     gamma=ConstantSeq(draw(st.floats(0.05, 0.45))),
                     c=c, error=error)
    return (op, sched, draw(point), draw(point), horizon,
            draw(st.integers(1, 4)))


@st.composite
def traces(draw):
    op, sched, u, z0, horizon, c = draw(run_args())
    return run(op, sched, u, z0, horizon, c=c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_diagnostics_match_scalar_forms_on_drawn_traces(data):
    trace = data.draw(traces())
    p = data.draw(st.one_of(
        st.just(trace.s),
        arrays(float, trace.op.dim, elements=st.floats(-5.0, 5.0))))
    nu_values = data.draw(st.dictionaries(
        st.integers(0, 50), st.integers(0, trace.horizon + 2), max_size=4))
    assert_diagnostics_match(trace, p, data.draw(st.integers(0, 10 ** 6)),
                             data.draw(st.integers(1, 4)),
                             data.draw(st.integers(0, 100)), nu_values)


# --- the step loop against the numpy loop it replaced -------------------------


def run_ref(op, schedule, u, z0, horizon, c):
    """The numpy step loop `run` replaced: one small-array expression per
    step, with resolvents from the numpy rows form, which does not go
    through _resolve_floats.  Returns z, J_(c_n)(z_n) and J_(1/c)(z_n)."""
    def resolve(c_n, x):
        return op._resolve_rows(c_n, x[None, :])[0]

    lam, gam, delta, cs, errs = schedule.snapshot(horizon)
    zs = np.empty((horizon + 1, op.dim))
    jn = np.empty_like(zs)
    z = zs[0] = np.asarray(z0, dtype=float)
    anchor = lam[:horizon, None] * np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(horizon):
            jz = resolve(cs[n], z)
            jn[n] = jz
            z = anchor[n] + gam[n] * z + delta[n] * jz + errs[n]
            zs[n + 1] = z
        jn[horizon] = resolve(cs[horizon], z)
    jfix = np.array([resolve(1.0 / c, x) for x in zs]).reshape(zs.shape)
    return zs, jn, jfix


def assert_run_matches_ref(op, schedule, u, z0, horizon, c):
    trace = run(op, schedule, u, z0, horizon, c=c)
    zs, jn, jfix = run_ref(op, schedule, u, z0, horizon, c)
    assert trace.z.tobytes() == zs.tobytes()
    assert trace.jn.tobytes() == jn.tobytes()
    assert trace.jfix.tobytes() == jfix.tobytes()


@pytest.mark.parametrize("name", ["cfg_a", "cfg_b"])
def test_run_matches_numpy_loop_on_shipped_configs(name, request):
    cfg = request.getfixturevalue(name)
    assert_run_matches_ref(cfg.problem.build(), cfg.iteration.build(),
                           cfg.iteration.u, cfg.iteration.z0,
                           cfg.run.horizon, cfg.moduli.c)


@settings(max_examples=300, deadline=None)
@given(run_args())
def test_run_matches_numpy_loop_on_drawn_cases(args):
    assert_run_matches_ref(*args)


@pytest.mark.parametrize("op", [
    LinearPSD(matrix=((1.0, 0.0), (0.0, 2.0))),
    Rotation2D(),
    QuadraticProx(center=(1.0, -1.0)),
    BoxProjection(lo=(-1.0, -1.0), hi=(1.0, 1.0)),
    BallProjection(center=(0.0, 0.0), radius=1.0),
], ids=lambda op: op.kind)
def test_run_diverging_iterate_raises_for_other_operators(op, capfd):
    # as in test_run_diverging_iterate_raises_without_warnings, on each
    # step loop: whole points through a numpy resolvent, the two-coordinate
    # loop and the per-coordinate one.  gamma = 2 against lambda = -2
    # doubles z at each step, whatever the resolvent, bounded or not.
    sched = Schedule(lam=ConstantSeq(-2.0), gamma=ConstantSeq(2.0),
                     c=HarmonicSeq(shift=1.0),
                     error=GeometricError(ratio=0.5, base=(1.0, -1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="point has non-finite coordinates"):
            run(op, sched, u=(1.0, 1.0), z0=(2.0, -1.0), horizon=2000)
    assert capfd.readouterr().err == ""


# --- the per-coordinate and two-coordinate kernels ---------------------------

signed = st.sampled_from((0.0, -0.0)) | st.floats(-5.0, 5.0)


def const_or_harmonic(values, shifts):
    return st.builds(ConstantSeq, values) | st.builds(HarmonicSeq, shifts)


@st.composite
def kernel_args(draw):
    """Arguments of runs of the operators stepped one coordinate, or one
    plane, at a time: quadratic prox weights and centers, box faces with
    signed-zero ties, and the rotation; const or harmonic lambda, gamma and
    c, so that c_n varies; zero or geometric errors; points with signed
    zeros; horizons 0, 1 and up to a few hundred."""
    kind = draw(st.sampled_from(("quadratic_prox", "box_projection",
                                 "rotation2d")))
    dim = 2 if kind == "rotation2d" else draw(st.integers(1, 4))
    point = st.lists(signed, min_size=dim, max_size=dim).map(tuple)
    if kind == "quadratic_prox":
        op = QuadraticProx(center=draw(point),
                           weight=draw(st.floats(0.05, 20.0)))
    elif kind == "box_projection":
        pairs = draw(st.lists(st.tuples(signed, signed), min_size=dim,
                              max_size=dim))
        # a tie keeps the order drawn, so faces may be (0.0, -0.0)
        op = BoxProjection(lo=tuple(b if b < a else a for a, b in pairs),
                           hi=tuple(a if b < a else b for a, b in pairs))
    else:
        op = Rotation2D()
    if draw(st.booleans()):
        error = ZeroError(dim=dim)
    else:
        error = GeometricError(ratio=draw(st.floats(0.05, 0.9)),
                               base=draw(point))
    # lambda <= 0.5 and gamma <= 0.45 keep delta positive
    sched = Schedule(
        lam=draw(const_or_harmonic(st.floats(0.0, 0.5), st.floats(2.0, 10.0))),
        gamma=draw(const_or_harmonic(st.floats(0.0, 0.45),
                                     st.floats(2.5, 10.0))),
        c=draw(const_or_harmonic(st.floats(0.05, 20.0), st.floats(0.05, 4.0))),
        error=error)
    horizon = draw(st.sampled_from((0, 1)) | st.integers(2, 300))
    return (op, sched, draw(point), draw(point), horizon,
            draw(st.integers(1, 4)))


@settings(max_examples=300, deadline=None)
@given(kernel_args())
def test_kernels_match_numpy_loop_on_drawn_cases(args):
    assert_run_matches_ref(*args)


@pytest.mark.parametrize("op", [
    QuadraticProx(center=(-0.0, 1.0)),
    BoxProjection(lo=(-0.0, -1.0), hi=(-0.0, 1.0)),
    Rotation2D(),
], ids=lambda op: op.kind)
def test_kernels_add_zero_errors(op):
    # from u = z0 = (-0, -0), lam u + gam z + delta J(z) is -0 in the first
    # coordinate; adding the zero error makes it +0, as the numpy loop does
    sched = Schedule(lam=HarmonicSeq(shift=3.0), gamma=ConstantSeq(0.5),
                     c=ConstantSeq(1.0), error=ZeroError(dim=2))
    trace = run(op, sched, u=(-0.0, -0.0), z0=(-0.0, -0.0), horizon=3)
    assert math.copysign(1.0, trace.jn[0, 0]) == -1.0
    assert math.copysign(1.0, trace.z[1, 0]) == 1.0
    assert_run_matches_ref(op, sched, (-0.0, -0.0), (-0.0, -0.0), 3, 1)


# --- resolvents computed once ---------------------------------------------------


def listed_c_schedule(cs: list, dim: int) -> Schedule:
    return Schedule(lam=HarmonicSeq(shift=3.0), gamma=ConstantSeq(0.4),
                    c=Listed(tuple(cs)),
                    error=GeometricError(ratio=0.5, base=(0.25,) * dim))


@pytest.mark.parametrize("op", [
    LinearPSD(matrix=((2.0, 1.0), (1.0, 3.0))),
    QuadraticProx(center=(1.0, -1.0), weight=0.7),
], ids=lambda op: op.kind)
@pytest.mark.parametrize("cs,reused", [
    ([0.5] * 21, True),
    ([0.5] * 20 + [2.0], False),     # the final c_n alone is not 1/c
    ([2.0] + [0.5] * 20, False),
])
def test_run_reuses_jn_as_jfix_only_when_every_c_n_is_one_over_c(op, cs,
                                                                 reused):
    sched = listed_c_schedule(cs, op.dim)
    u, z0 = (3.0, -2.0), (-1.0, 4.0)
    trace = run(op, sched, u, z0, horizon=20, c=2)
    assert (trace.jfix is trace.jn) == reused
    assert_run_matches_ref(op, sched, u, z0, 20, 2)


def test_run_crosses_the_spectral_threshold_both_ways():
    # a rank-2 A in four dimensions: cond(I + cA) = 1 + c lam_max, which
    # passes _SPECTRAL_COND from c = 1e7 on, so the row kernel alternates
    # between the solve and the eigenbasis
    factor = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 1.0], [-2.0, 0.0]])
    op = LinearPSD(matrix=factor @ factor.T)
    cs = [1.0, 1e9, 0.5, 0.5, 1e12, 1e8, 2.0, 1e16, 3.0, 1e9, 1e9, 0.25, 1e10]
    spectral = [bool(op._is_spectral(c_n)) for c_n in cs]
    assert {(False, True), (True, False)} <= set(zip(spectral, spectral[1:]))
    sched = listed_c_schedule(cs, 4)
    u, z0 = (3.0, -2.0, 1.0, 0.5), (-1.0, 4.0, 2.0, -3.0)
    assert_run_matches_ref(op, sched, u, z0, len(cs) - 1, 1)
    assert_run_matches_ref(op, sched, u, z0, len(cs) - 1, 3)


@pytest.mark.parametrize("cs", [
    [1.0] * 31,
    [1.0, 1.0] + [8.0] * 29,         # c_0 = c_1, and c_n moves on after
    [1.0] * 30 + [8.0],              # c_horizon is not a step's parameter
])
def test_recurrence_check_resolves_p_once_only_for_constant_c(cs):
    op = LinearPSD(matrix=((2.0, 1.0), (1.0, 3.0)))
    trace = run(op, listed_c_schedule(cs, 2), (3.0, -2.0), (-1.0, 4.0),
                horizon=30)
    for p in (trace.s, np.array([2.0, -3.0])):
        assert same_float(recurrence_check(trace, p, 5),
                          recurrence_ref(trace, p, 5))
