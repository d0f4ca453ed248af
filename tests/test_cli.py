"""End-to-end CLI behaviour: exit codes, CSV schemas, determinism."""

import dataclasses
import hashlib
import itertools
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mppa import bounds, refeval
from mppa.acceptance import _T1
from mppa.cli import (_NEEDS_F, BOUND_NAMES, LEMMAS, _check_rows,
                      _property_rows, _Watched, main)
from mppa.config import count_fn, parse_config, parse_fspec, render_fspec
from mppa.countfn import Affine, BoundValue, ExpCeil, evaluate
from mppa.iteration import run
from mppa.operators import QuadraticProx, ResolventOperator
from mppa.schedules import (ConstantSeq, GeometricError, Schedule,
                            derive_constants)

HEADERS = {
    "trace.csv": "n,znorm_dist_s,dz,res_Jn,res_J,dist_target",
    "metastability.csv": "k,f_spec,empirical,bound,verdict",
    "asymptotic.csv": "quantity,k,f_spec,empirical,bound,verdict",
    "checks.csv": "check,detail,status",
}


def first_line(path):
    return path.read_text(encoding="utf-8").splitlines()[0]


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- run -----------------------------------------------------------------------


def test_run_experiment_b(tmp_path, capsys, config_b_text):
    cfg = write_cfg(tmp_path, config_b_text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for name, header in HEADERS.items():
        assert first_line(out / name) == header

    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 2002  # header + horizon 2000 inclusive
    meta = (out / "metastability.csv").read_text().splitlines()
    assert len(meta) == 1 + 4 * 2  # ks 0..3 x two counting functions
    asym = (out / "asymptotic.csv").read_text().splitlines()
    assert len(asym) == 1 + 3 * 4 * 2
    checks = (out / "checks.csv").read_text().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] == "PASS" for row in checks)
    assert capsys.readouterr().err == ""


def test_run_experiment_a(tmp_path, config_a_text):
    cfg = write_cfg(tmp_path, config_a_text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    meta = (out / "metastability.csv").read_text().splitlines()
    assert len(meta) == 1 + 10 * 3
    checks = (out / "checks.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",", 1)[0] for row in checks) == sorted(
        ("anchors", "boundedness", "wbound", "recurrence", "resolvent_drift",
         "resolvent_identity", "gap_decrease"))
    assert all(row.rsplit(",", 1)[1] == "PASS" for row in checks)


def test_nan_row_fails_its_checks(cfg_a):
    # nu(0) = 208 on experiment A, so a NaN at n = 250 lies inside the gap
    # range, and away from the points the identity check visits (0, 150, 300)
    schedule = cfg_a.iteration.build()
    trace = run(cfg_a.problem.build(), schedule, cfg_a.iteration.u,
                cfg_a.iteration.z0, 300, c=cfg_a.moduli.c, s=cfg_a.problem.s)
    ctx = derive_constants(cfg_a.moduli)
    rows = _check_rows(trace, cfg_a, ctx, schedule, cfg_a.budget())
    assert all(status == "PASS" for _, _, status in rows)

    z = trace.z.copy()
    z[250, 1] = np.nan
    rows = _check_rows(dataclasses.replace(trace, z=z), cfg_a, ctx, schedule,
                       cfg_a.budget())
    status = {name: status for name, _, status in rows}
    for name in ("recurrence", "resolvent_drift", "gap_decrease"):
        assert status[name] == "FAIL"


def _gap_decrease_row(cfg, horizon):
    schedule = cfg.iteration.build()
    trace = run(cfg.problem.build(), schedule, cfg.iteration.u,
                cfg.iteration.z0, horizon, c=cfg.moduli.c, s=cfg.problem.s)
    rows = _check_rows(trace, cfg, derive_constants(cfg.moduli), schedule,
                       cfg.budget())
    return next(row[1:] for row in rows if row[0] == "gap_decrease")


def test_gap_decrease_fails_when_it_compares_nothing(cfg_a):
    # ell = expceil 4 with N1 = 200 puts every nu(k), k <= 5, past the
    # magnitude cap: no k is compared, so the row cannot pass
    assert _gap_decrease_row(cfg_a, 500) == ["k <= 5, ok", "PASS"]
    moduli = dataclasses.replace(cfg_a.moduli, ell=ExpCeil(4), N1=200)
    cfg = dataclasses.replace(cfg_a, moduli=moduli)
    assert all(not bounds.nu(k, moduli, budget=cfg.budget()).is_exact
               for k in range(6))
    assert _gap_decrease_row(cfg, 500) == [
        "no k <= 5 compared: every nu(k) is a budget marker", "FAIL"]


def test_gap_decrease_names_the_k_it_compared(cfg_a):
    real_nu = bounds.nu

    def nu(k, moduli, *, budget=None):
        return real_nu(k, moduli, budget=budget) if k in (0, 2, 3) \
            else BoundValue.exceeded("nu")

    with mock.patch.object(bounds, "nu", nu):
        assert _gap_decrease_row(cfg_a, 500) == ["k in {0, 2, 3}, ok", "PASS"]


def _trace_and_rows(cfg):
    """A run of cfg to n = 300, and the map from a trace to its checks.csv
    statuses."""
    schedule = cfg.iteration.build()
    trace = run(cfg.problem.build(), schedule, cfg.iteration.u,
                cfg.iteration.z0, 300, c=cfg.moduli.c, s=cfg.problem.s)
    ctx = derive_constants(cfg.moduli)

    def status(tr):
        rows = _check_rows(tr, cfg, ctx, schedule, cfg.budget())
        return {name: st for name, _, st in rows}
    return trace, status


def test_wbound_row_fails_on_a_far_companion(cfg_a):
    trace, status = _trace_and_rows(cfg_a)
    assert set(status(trace).values()) == {"PASS"}
    # gamma_150 just below 1 throws w_150 = (z_151 - g z_150)/(1 - g) far
    # out, while every z_n, and so the boundedness row, stays as it was
    gam = trace.gam.copy()
    gam[150] = 1.0 - 2.0 ** -40
    got = status(dataclasses.replace(trace, gam=gam))
    assert got["wbound"] == "FAIL"
    assert got["boundedness"] == "PASS"


class _SquaredParameterProx(QuadraticProx):
    """Returns J_(c^2) where J_c is asked: each value still fixes the center,
    but the family breaks the resolvent identity at unequal parameters."""

    def _resolve_floats(self, c, x):
        return super()._resolve_floats(c * c, x)

    def _resolve_rows(self, c, xs):
        return super()._resolve_rows(c * c, xs)


def test_resolvent_identity_row_fails_on_a_broken_resolvent(cfg_a):
    # c_n = 2 against 1/c = 1, so the row compares unequal parameters
    cfg = dataclasses.replace(cfg_a, iteration=dataclasses.replace(
        cfg_a.iteration, c=ConstantSeq(2.0)))
    trace, status = _trace_and_rows(cfg)
    assert status(trace)["resolvent_identity"] == "PASS"
    bad = _SquaredParameterProx(center=cfg.problem.build().center)
    assert status(dataclasses.replace(trace, op=bad))["resolvent_identity"] \
        == "FAIL"


def test_run_is_deterministic(tmp_path, config_b_text):
    cfg = write_cfg(tmp_path, config_b_text)
    for out in ("one", "two"):
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 0
    for name in HEADERS:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def test_run_default_output_dir(tmp_path, config_b_text):
    cfg = write_cfg(tmp_path, config_b_text, name="myexp.cfg")
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "myexp_out" / "trace.csv").is_file()


def test_run_far_start_fails_checks(tmp_path, capsys, config_a_text):
    text = (config_a_text
            .replace("z0 = 0,0", "z0 = 4,4")
            .replace("N3 = 4", "N3 = 1")
            .replace("horizon = 10000", "horizon = 60")
            .replace("ks = 0,1,2,3,4,5,6,7,8,9", "ks = 0")
            .replace("fs = const 0; const 10; id", "fs = const 0"))
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "check failed: anchors" in err
    assert "check failed: boundedness" in err
    rows = (out / "checks.csv").read_text().splitlines()[1:]
    status = {row.split(",", 1)[0]: row.rsplit(",", 1)[1] for row in rows}
    assert status["anchors"] == "FAIL"
    assert status["boundedness"] == "FAIL"


def test_run_linear_psd_at_c_1e16(tmp_path, config_a_text):
    # I + cA rounds to the singular cA here, which a plain solve rejects
    text = (config_a_text
            .replace("kind = quadratic_prox\ncenter = 1,-1\nweight = 1\n"
                     "s = 1,-1\ntarget = 1,-1",
                     "kind = linear_psd\nmatrix = 1,1;1,1\ns = 0,0\n"
                     "target = 0.5,-0.5")
            .replace("c = const 1\n", "c = const 1e16\n")
            .replace("Cmaj = const 1\n", "Cmaj = const 10000000000000000\n")
            .replace("horizon = 10000", "horizon = 200")
            .replace("ks = 0,1,2,3,4,5,6,7,8,9", "ks = 0")
            .replace("fs = const 0; const 10; id", "fs = const 0"))
    assert "matrix = 1,1;1,1" in text and "const 1e16" in text
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    rows = (out / "checks.csv").read_text().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] == "PASS" for row in rows)


# sha256 of the four CSVs `mppa run` writes on the shipped configs and on
# one generated config of each other operator kind, as the first release
# wrote them.  Any change to these bytes is a contract change.
GOLDEN = {
    "experiment_a": {
        "asymptotic.csv": "ab857a9add4ac83b74733de91648dd6e92caa57c9f66dd6002255796e2a38a62",
        "checks.csv": "6308f308b9060d6a0589f0bb2f4391dfdabca279288e977076d299db6c3ec83f",
        "metastability.csv": "540a75e25c751e0b55a99de68be6cc5ef371b8faa368c422cf3cc128bf6f42dc",
        "trace.csv": "22f761d3480a107410e1e4db5e4bfa0e44ab5a74bb46a23f557b1e4cfc9ba2e8",
    },
    "experiment_b": {
        "asymptotic.csv": "8f59a04d9fb2b5ec9ac398fa7f057f729bfe5f3936afa24ce8a6d8d397ca2714",
        "checks.csv": "ac6f47cd4cfa222914f97085d94e7bc013e4e6143c9747d88d7f85139bd8bae7",
        "metastability.csv": "9fbeab17bc9baf4a549c85e9171dae64ee191eced46ce6eb4f47138d101fc861",
        "trace.csv": "068e2a77cc40fba81698c5704987c1c47bfc1a4fc44133119c74c14af4a70079",
    },
    "box_projection_0": {
        "asymptotic.csv": "a123b5d969760a3fec3292e4e927eda6eb70c660137f1fa14a660c6c025a34d6",
        "checks.csv": "11ca4cac79719e0794f38920136af591a5219515d3d294ce701e82534460598b",
        "metastability.csv": "6d8b9a31757286dbd5dde7c8497885ffa6a60cd15da5ac939bee8d1e876c3011",
        "trace.csv": "265bf731fe5791cb36bf4e20fff23789e91cf04e94406b554e5ef88c427001b4",
    },
    "linear_psd_0": {
        "asymptotic.csv": "14075224522bb21a6bb2acbe7ae83043b558c4e4b858d51034fd351526b36542",
        "checks.csv": "bbfbd0778a65b85c34fe1d94f5fae5c42047ead6b13988dfd76f09af44538bcd",
        "metastability.csv": "0b424ecb106efd6c7ddf715d8be6c26f3f5e881846d09f4ff7374e951644b6d2",
        "trace.csv": "526121a6e280c1ec8e6d173a776ac703674b6f5cfd62c011ef4fc52e30b197aa",
    },
    "rotation2d_0": {
        "asymptotic.csv": "55081fbca56e1cb5e857acc350b51bed24d9e49c99809dc3e790ac1f08cb3a49",
        "checks.csv": "3177b04854291f9cffea6aaa9f12c441a8df055f80909d96bbab038c090fa596",
        "metastability.csv": "7e983972aafc8fe1fc6c674c0061c73c28f6e7dd4d47b24fed71825320af4e48",
        "trace.csv": "c29d0f706c9626cbebfed8be479f101af3bf58577be9477050dc171024e2010a",
    },
    "box_projection_1": {
        "asymptotic.csv": "268ee86889f9bbc11a8630a958cf13711c823b3449ef8c29d50983170468cffa",
        "checks.csv": "6c11dc24108fbd4f29a5f02777e3d2871a5ab70433aaec91a59421d3b13176f3",
        "metastability.csv": "f2788122980a49ea087b980ed2abea7db81506871bfb501517de87d3a78e8a28",
        "trace.csv": "1fa97b8cac354af5aab9b81700fcb610777aafe9cb783ccf9c882910717336b9",
    },
    "rotation2d_1": {
        "asymptotic.csv": "cf92c7ed0063b1a6d038bee656fe4f659be9993afa14e10cf4b57309dc0bc5d1",
        "checks.csv": "7af5ad264df31acfe6e33ba648759e03ec3443ca8145ed5baa64f25f3aed5e26",
        "metastability.csv": "bdbeed9eaac5118dfe9de86d6e67d1e46c43680dbe4392ec4084bb6153e5de64",
        "trace.csv": "7296ab167cb8ba3a44e17396609bfa87a9583f3693537778bb7e605e81af0679",
    },
}
# The generated configs pinned above: box (dim 3), linear_psd (dim 8, a
# two-dimensional kernel) and rotation2d, at horizon 5000; and, for the
# per-coordinate and two-coordinate step loops, a box with signed-zero
# faces and starting points, zero errors and c_n = 2 against 1/c = 1, and
# a rotation with geometric errors and c_n = 1/c, at horizon 3000.
GENERATED = {
    "box_projection_0": """\
[problem]
kind = box_projection
lo = -0.373,-0.849,0.239
hi = 0.054,-0.208,0.946
s = -0.16,-0.528,0.593
target = 0.054,-0.659,0.239

[iteration]
u = 0.111,-0.659,-0.419
z0 = 1.886,1.66,-1.307
lam = harmonic 4
gamma = const 0.34
c = const 1
error = geometric 0.5 0.024,0.303,-0.526

[moduli]
a = 3
c = 1
Cmaj = const 1
ell = id
L = expceil 5
Gamma = const 0
E = affine 1 0
N1 = 2
N2 = 4
N3 = 5

[run]
horizon = 5000
ks = 0,1,2,3,4,5
fs = const 0; const 10; id
""",
    "linear_psd_0": """\
[problem]
kind = linear_psd
matrix = 0,0,0,0,0,0,0,0;0,25,6,4,8,-4,0,-2;0,6,16,10,1,4,0,4;0,4,10,19,8,1,0,1;0,8,1,8,9,-3,0,-2;0,-4,4,1,-3,9,0,-3;0,0,0,0,0,0,0,0;0,-2,4,1,-2,-3,0,12
s = 0,0,0,0,0,0,0,0
target = 1.635,0,0,0,0,0,-1.262,0

[iteration]
u = 1.635,0.899,-1.889,-1.72,-0.863,-0.627,-1.262,-0.172
z0 = 0.342,-1.895,1.961,-1.757,-1.483,-0.369,1.104,0.746
lam = harmonic 6
gamma = const 0.5
c = const 1
error = geometric 0.25 0.515,0.08,0.08,0.174,-0.419,-0.552,-0.98,-0.012

[moduli]
a = 2
c = 1
Cmaj = const 1
ell = id
L = expceil 7
Gamma = const 0
E = affine 1 0
N1 = 5
N2 = 4
N3 = 5

[run]
horizon = 5000
ks = 0,1,2,3,4,5
fs = const 0; const 10; id
""",
    "rotation2d_0": """\
[problem]
kind = rotation2d
s = 0,0
target = 0,0

[iteration]
u = -1.218,-1.148
z0 = 1.684,0.271
lam = harmonic 5
gamma = const 0.66
c = const 2
error = zero

[moduli]
a = 3
c = 1
Cmaj = const 2
ell = id
L = expceil 6
Gamma = const 0
E = const 0
N1 = 3
N2 = 2
N3 = 3

[run]
horizon = 5000
ks = 0,1,2,3,4,5
fs = const 0; const 10; id
""",
    "box_projection_1": """\
[problem]
kind = box_projection
lo = -0.5,-0,0
hi = 0.25,0,1.5
s = 0,0,0.5
target = 0.25,0,0

[iteration]
u = 0.75,-0,-0.5
z0 = -2,-0,3
lam = harmonic 4
gamma = const 0.34
c = const 2
error = zero

[moduli]
a = 3
c = 1
Cmaj = const 2
ell = id
L = expceil 5
Gamma = const 0
E = const 0
N1 = 2
N2 = 4
N3 = 5

[run]
horizon = 3000
ks = 0,1,2,3
fs = const 0; id
""",
    "rotation2d_1": """\
[problem]
kind = rotation2d
s = 0,0
target = -0,0

[iteration]
u = 1.5,-0
z0 = -0,-2.25
lam = harmonic 5
gamma = const 0.5
c = const 1
error = geometric 0.5 0.125,-0.0625

[moduli]
a = 3
c = 1
Cmaj = const 1
ell = id
L = expceil 6
Gamma = const 0
E = affine 1 0
N1 = 3
N2 = 2
N3 = 3

[run]
horizon = 3000
ks = 0,1,2,3
fs = const 0; id
""",
}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_writes_golden_bytes(tmp_path, name):
    if name in GENERATED:
        cfg = write_cfg(tmp_path, GENERATED[name])
    else:
        cfg = CONFIGS / f"{name}.cfg"
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    got = {csv: hashlib.sha256((out / csv).read_bytes()).hexdigest()
           for csv in GOLDEN[name]}
    assert got == GOLDEN[name]


def test_run_takes_one_schedule_snapshot(tmp_path, monkeypatch):
    """The moduli checks and the iteration share one snapshot of the
    schedule, so the error vectors are computed once per run; the config
    check reads the scalar parameters only."""
    calls = Counter()
    for cls, name in ((Schedule, "snapshot"), (GeometricError, "values")):
        def counted(self, *args, real=getattr(cls, name),
                    key=f"{cls.__name__}.{name}"):
            calls[key] += 1
            return real(self, *args)
        monkeypatch.setattr(cls, name, counted)
    cfg = write_cfg(tmp_path, GENERATED["box_projection_0"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"Schedule.snapshot": 1, "GeometricError.values": 1}


def test_each_config_builds_its_operator_once(tmp_path, monkeypatch):
    """parse_config builds and checks the operator, and the run steps that
    operator: `mppa verify` reads config A and experiment B once each."""
    built = Counter()
    real = ResolventOperator.__init__

    def counted(self, *args, **kwargs):
        built[type(self).__name__] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(ResolventOperator, "__init__", counted)
    cfg = write_cfg(tmp_path, GENERATED["linear_psd_0"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert built == {"LinearPSD": 1}
    built.clear()
    assert main(["verify", str(CONFIGS / "experiment_a.cfg")]) == 0
    assert built == {"QuadraticProx": 1, "BallProjection": 1}


@pytest.mark.parametrize("read", [lambda f: evaluate(f, 3),
                                  lambda f: f.affine_form()])
def test_watched_notes_a_call_and_an_affine_form(read):
    f = _Watched(Affine(2, 1))
    assert not f.read
    assert read(f) == read(Affine(2, 1))
    assert f.read


@pytest.mark.parametrize("a, reads_f", [(2, False), (1, True)])
def test_property_rows_evaluate_a_bound_per_f_only_when_it_reads_f(
        monkeypatch, config_b_text, a, reads_f):
    # experiment B's moduli: phi and the residual bounds are markers that
    # fire before f is read; with a = 1 the residual bounds read f
    cfg = parse_config(config_b_text.replace("a = 2", f"a = {a}"))
    budget = cfg.budget()
    trace = run(cfg.problem.build(), cfg.iteration.build(), cfg.iteration.u,
                cfg.iteration.z0, cfg.run.horizon, c=cfg.moduli.c,
                s=cfg.problem.s, target=cfg.problem.target)
    real = {name: getattr(bounds, name) for name in ("phi", "res_bounds")}
    calls = Counter()
    for name, fn in real.items():
        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)
    meta_rows, res_rows = _property_rows(trace, cfg, budget)
    ks, fs = len(cfg.run.ks), len(cfg.run.fspecs)
    assert calls == {"phi": ks, "res_bounds": ks * (fs if reads_f else 1)}
    # each row's bound is what its own (k, f) gives
    for k, spec, _, bound, _ in meta_rows:
        assert bound == real["phi"](int(k), parse_fspec(spec), cfg.moduli,
                                    budget=budget).render()
    for i, (name, k, spec, _, bound, _) in enumerate(res_rows):
        triple = real["res_bounds"](int(k), parse_fspec(spec), cfg.moduli,
                                    budget=budget)
        assert bound == triple[i % 3].render()
    exact = sum(row[5] != "BOUND_INCOMPUTABLE" for row in res_rows)
    assert (exact > 0) == reads_f


def test_run_with_cmaj_past_float_range(tmp_path, config_a_text):
    # ceil(e**n) passes the largest float at n = 710; such a Cmaj
    # majorizes every c_n just as const 1 does on this schedule
    text = config_a_text.replace("horizon = 10000", "horizon = 800")
    for spec in ("expceil 1", "const 1"):
        cfg = write_cfg(tmp_path, text.replace("Cmaj = const 1",
                                               f"Cmaj = {spec}"))
        assert main(["run", str(cfg), "--out",
                     str(tmp_path / spec.replace(" ", "_"))]) == 0
    for csv in ("trace.csv", "checks.csv"):
        assert (tmp_path / "expceil_1" / csv).read_bytes() \
            == (tmp_path / "const_1" / csv).read_bytes()


def test_run_rejects_broken_moduli(tmp_path, capsys, config_a_text):
    cfg = write_cfg(tmp_path, config_a_text.replace("ell = id",
                                                    "ell = const 0"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "moduli violation" in capsys.readouterr().err


def test_run_horizon_zero(tmp_path, capsys, config_b_text):
    cfg = write_cfg(tmp_path,
                    config_b_text.replace("horizon = 2000", "horizon = 0"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "header-only" in capsys.readouterr().err
    assert (out / "metastability.csv").read_text().splitlines() == [
        HEADERS["metastability.csv"]]
    assert (out / "asymptotic.csv").read_text().splitlines() == [
        HEADERS["asymptotic.csv"]]
    rows = (out / "checks.csv").read_text().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] == "PASS" for row in rows)
    assert any("vacuous" in row for row in rows)


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_run_to_an_existing_file_is_a_usage_error(tmp_path, capsys,
                                                  config_b_text):
    cfg = write_cfg(tmp_path, config_b_text)
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("cannot write output: ")
    assert taken.read_text(encoding="utf-8") == "kept\n"


def test_bound_refuses_a_ragged_matrix(tmp_path, capsys):
    # in the package's words, not in numpy's, which vary with its version
    cfg = write_cfg(tmp_path, t1_config().replace(
        "kind = rotation2d", "kind = linear_psd\nmatrix = 1,0;0"))
    assert main(["bound", str(cfg), "nu"]) == 2
    assert capsys.readouterr() == (
        "", "config error: problem: matrix must be square\n")


def test_run_bad_config_reports_each_error(tmp_path, capsys, config_b_text):
    text = config_b_text.replace("a = 2", "a = x") + "bogus = 1\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") >= 2


# --- bound ---------------------------------------------------------------------


@pytest.mark.parametrize("argv, row", [
    (["bound", "{a}", "zeta", "--k", "0", "--n", "0"], "zeta,0,,0"),
    (["bound", "{a}", "theta", "--k", "0", "--n", "0", "--t", "1",
      "--fspec", "id"], "theta,0,id,2055"),
    (["bound", "{a}", "phi", "--k", "0", "--fspec", "const 0"],
     "phi,0,const 0,BUDGET_EXCEEDED(R)"),
    (["bound", "{a}", "R", "--k", "3", "--t", "2"], "R,3,,160"),
    (["bound", "{a}", "nu", "--k", "1"], "nu,1,,416"),
    (["bound", "{a}", "mu", "--k", "0"], "mu,0,,72"),
    (["bound", "{a}", "sigma", "--k", "0", "--n", "0"], "sigma,0,,4388"),
])
def test_bound_rows(tmp_path, capsys, config_a_text, argv, row):
    cfg = write_cfg(tmp_path, config_a_text)
    argv = [a.replace("{a}", str(cfg)) for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"name,k,f_spec,value\n{row}\n"


@pytest.mark.parametrize("stem, value", [("experiment_a", "832"),
                                         ("experiment_b", "448")])
def test_library_and_cli_read_the_same_moduli(request, capsys, stem, value):
    # both shipped configs have c = const, which the parsed moduli state
    cfg = request.getfixturevalue("cfg_" + stem[-1])
    assert bounds.bound("nu", k=3, moduli=cfg.moduli).render() == value
    assert main(["bound", str(CONFIGS / f"{stem}.cfg"), "nu", "--k", "3"]) == 0
    assert capsys.readouterr().out == f"name,k,f_spec,value\nnu,3,,{value}\n"


def test_bound_needs_fspec(tmp_path, capsys, config_a_text):
    cfg = write_cfg(tmp_path, config_a_text)
    assert main(["bound", str(cfg), "theta"]) == 2
    assert "needs --fspec" in capsys.readouterr().err


def test_bound_unknown_name(tmp_path, capsys, config_a_text):
    cfg = write_cfg(tmp_path, config_a_text)
    assert main(["bound", str(cfg), "omega"]) == 2
    assert "unknown bound name" in capsys.readouterr().err


def test_bound_bad_fspec(tmp_path, capsys, config_a_text):
    cfg = write_cfg(tmp_path, config_a_text)
    assert main(["bound", str(cfg), "theta", "--fspec", "wat 3"]) == 2
    assert "bad fspec" in capsys.readouterr().err


def test_bound_domain_error(tmp_path, capsys, config_a_text):
    cfg = write_cfg(tmp_path, config_a_text)
    assert main(["bound", str(cfg), "R", "--t", "0"]) == 2
    assert capsys.readouterr().err == \
        "bound error: R requires a >= 1 and t >= 1\n"


@pytest.mark.parametrize("argv", [
    ["R", "--k", "-1", "--t", "1"],
    ["sigma", "--k", "0", "--n", "-50"],
], ids=["R-k-1", "sigma-n-50"])
def test_bound_rejects_negative_k_and_n(tmp_path, capsys, config_b_text,
                                        argv):
    # at k = -1, R had printed 0; sigma at n = -50 never returned
    cfg = write_cfg(tmp_path, config_b_text)
    assert main(["bound", str(cfg)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "natural number" in captured.err


T1_CALLS = 400_000


def t1_config(calls: int = T1_CALLS) -> str:
    """A config carrying the battery's T1 moduli and a call cap, by default
    one that an exact res_Jn (378 444 ticks) fits under; `mppa bound` reads
    only the moduli and the budget."""
    rates = [f"{key} = {render_fspec(count_fn(_T1[key]))}"
             for key in ("Cmaj", "ell", "L", "Gamma", "E")]
    return "\n".join([
        "[problem]", "kind = rotation2d", "",
        "[iteration]", "u = 1,0", "z0 = 0,0", "lam = harmonic 3",
        "gamma = const 0.5", "c = const 1", "error = zero", "",
        "[moduli]", *(f"{key} = {_T1[key]}"
                      for key in ("a", "c", "N1", "N2", "N3")), *rates, "",
        "[run]", "horizon = 1", "ks = 0", "fs = const 0",
        f"budget_calls = {calls}", ""])


@pytest.mark.parametrize("name, k, fspec", [
    ("chi0", 0, "const 0"),
    ("chi0", 2, "id"),
    ("chi0", 1, "const 2"),
    ("res_Jn", 0, "const 0"),
    ("res_Jn", 0, "id"),
])
def test_bound_residual_rates_match_reference(tmp_path, capsys, name, k,
                                              fspec):
    # chi0 and res_Jn are the dz and res_Jn bound columns of asymptotic.csv
    cfg = write_cfg(tmp_path, t1_config())
    assert main(["bound", str(cfg), name, "--k", str(k),
                 "--fspec", fspec]) == 0
    head, *args = fspec.split()
    want = refeval.ref_bound(name, k=k, f=(head, *map(int, args)), mod=_T1,
                             constant_c=True, calls=T1_CALLS)
    assert capsys.readouterr().out == \
        f"name,k,f_spec,value\n{name},{k},{fspec},{want.render()}\n"


@pytest.mark.parametrize("name, k, flags, shape", [
    ("theta", 321, ["--t", "1"], 1233),
    ("theta", 322, ["--t", "1"], "BUDGET_EXCEEDED(theta)"),
    ("proj", 63, [], str(2 ** 4096 - 1)),
    ("proj", 64, [], "BUDGET_EXCEEDED(proj)"),
], ids=["theta-last-exact", "theta-first-marker", "proj-last-exact",
        "proj-first-marker"])
def test_slope_2_meets_the_magnitude_cap_where_the_literal_loop_does(
        capsys, name, k, flags, shape):
    # experiment A has N = 8, so proj iterates 2m + 1 64 (k+1) times from 0
    # and theta runs 8 (k+1) steps of r -> 3 r + ...: the last k with an
    # exact value and the first with a marker, against refeval's literal loop
    path = _CONFIGS / "experiment_a.cfg"
    cfg = parse_config(path.read_text(encoding="utf-8"))
    budget = cfg.budget()
    assert main(["bound", str(path), name, "--k", str(k), *flags,
                 "--fspec", "affine 2 1"]) == 0
    want = refeval.ref_bound(name, k=k, t=1,
                             n_arg=derive_constants(cfg.moduli).N,
                             f=("affine", 2, 1), bits=budget.magnitude_bits,
                             calls=budget.max_calls).render()
    assert capsys.readouterr().out == \
        f"name,k,f_spec,value\n{name},{k},affine 2 1,{want}\n"
    assert len(want) == shape if isinstance(shape, int) else want == shape


def test_bound_names_are_what_the_command_line_supplies(tmp_path, capsys):
    # the config supplies the moduli, N, D and a, --fspec supplies f; no
    # flag supplies a nu rate or l
    needs = {name: set(entry.needs) for name, entry in bounds.BOUNDS.items()}
    assert len(needs) == 16
    assert set(needs) - set(BOUND_NAMES) == {"chi_tilde", "varphi_suzuki1"}
    assert all(needs[name] <= {"f"} for name in BOUND_NAMES)
    assert _NEEDS_F == {name for name in BOUND_NAMES if needs[name]}
    # with no calls allowed, the first tick names the formula each name
    # dispatched to (nu and mu tick as counting functions, outside theirs)
    cfg = write_cfg(tmp_path, t1_config(calls=0))
    stages = {"res_Jn": "xi", "nu": "eval", "mu": "eval"}
    for name in BOUND_NAMES:
        fspec = ["--fspec", "const 0"] if name in _NEEDS_F else []
        assert main(["bound", str(cfg), name] + fspec) == 0, name
        f_spec = "const 0" if fspec else ""
        stage = stages.get(name, name)
        assert capsys.readouterr().out == (
            f"name,k,f_spec,value\n{name},0,{f_spec},"
            f"BUDGET_EXCEEDED({stage})\n")
    for name in ("chi_tilde", "varphi_suzuki1", "proj3"):
        assert main(["bound", str(cfg), name, "--fspec", "const 0"]) == 2
        assert "unknown bound name" in capsys.readouterr().err


# --- oracle ----------------------------------------------------------------------


def test_oracle_single_lemma(capsys):
    assert main(["oracle", "--lemma", "ratap", "--trials", "5"]) == 0
    assert capsys.readouterr().out == \
        "lemma,trials,passes,status\nratap,5,5,PASS\n"


def test_oracle_zero_trials(capsys):
    # zero trials would pass vacuously, so it is refused like -1
    assert main(["oracle", "--lemma", "xu", "--trials", "0"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: trials must be positive\n"
    assert out == ""


def test_oracle_all_lemmas(capsys):
    assert main(["oracle", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lemma,trials,passes,status"
    assert sorted(line.split(",")[0] for line in lines[1:]) == sorted(
        ("ratap", "limsup2", "xu", "suzuki1", "suzuki2"))
    assert all(line.endswith(",1,1,PASS") for line in lines[1:])


def test_oracle_unknown_lemma():
    assert main(["oracle", "--lemma", "flurble"]) == 2


def test_oracle_negative_trials(capsys):
    assert main(["oracle", "--lemma", "ratap", "--trials", "-1"]) == 2
    assert "error" in capsys.readouterr().err


def test_the_parser_offers_every_oracle_suite():
    # cli spells the names out, so that its parser loads no oracle
    from mppa import oracle

    assert LEMMAS == tuple(oracle.SUITES)


# --- verify / entry ----------------------------------------------------------------


def test_verify_missing_config(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


# --- imports ---------------------------------------------------------------------


# Imports mppa.cli, runs the command in argv if any, and writes to stderr
# which of numpy, mppa.iteration and mppa.oracle the process has imported.
_IMPORTS_PROBE = """
import sys
import mppa.cli
rc = mppa.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(*sorted({"numpy", "mppa.iteration", "mppa.oracle"} & set(sys.modules)),
      file=sys.stderr)
sys.exit(rc)
"""

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("argv, rc, out, err", [
    ([], 0, "", ""),
    *((["oracle", "--lemma", lemma, "--trials", "5"], 0,
       f"lemma,trials,passes,status\n{lemma},5,5,PASS\n", "mppa.oracle")
      for lemma in ("ratap", "limsup2", "xu")),
    (["oracle", "--lemma", "suzuki1", "--trials", "5"], 0,
     "lemma,trials,passes,status\nsuzuki1,5,5,PASS\n", "mppa.oracle numpy"),
    # quadratic_prox, rotation2d, box_projection and ball_projection decide
    # their witness on floats, and const and harmonic schedules are checked
    # at their ends
    (["bound", str(_CONFIGS / "experiment_a.cfg"), "nu", "--k", "3"], 0,
     "name,k,f_spec,value\nnu,3,,832\n", ""),
    (["bound", "t1.cfg", "nu"], 0, "name,k,f_spec,value\nnu,0,,32\n", ""),
    (["bound", "box.cfg", "nu"], 0, "name,k,f_spec,value\nnu,0,,32\n", ""),
    (["bound", str(_CONFIGS / "experiment_b.cfg"), "nu", "--k", "3"], 0,
     "name,k,f_spec,value\nnu,3,,448\n", ""),
    # and refuse one there too, before the probe's empty line
    (["bound", "refused.cfg", "nu"], 2, "",
     "config error: problem: declared zero is not fixed by the resolvent "
     "at c=0.1 (residual 4.975e-01)\n"),
    # linear_psd decides its matrix and its witness in integers as well
    (["bound", "psd.cfg", "nu"], 0, "name,k,f_spec,value\nnu,0,,32\n", ""),
    (["bound", "psd-refused.cfg", "nu"], 2, "",
     "config error: problem: declared zero is not in the kernel\n"),
    # a run steps arrays, and loads no oracle either
    (["run", str(_CONFIGS / "experiment_b.cfg"), "--out", "out"], 0, "",
     "mppa.iteration numpy"),
], ids=["import", "ratap", "limsup2", "xu", "suzuki1", "bound",
        "bound-rotation2d", "bound-box", "bound-ball", "bound-refusal",
        "bound-linear_psd", "bound-linear_psd-refusal", "run"])
def test_only_the_commands_that_build_arrays_load_numpy(tmp_path, argv, rc,
                                                        out, err):
    write_cfg(tmp_path, t1_config(), "t1.cfg")
    write_cfg(tmp_path, t1_config().replace(
        "kind = rotation2d", "kind = box_projection\nlo = -1,-1\nhi = 1,1"),
        "box.cfg")
    write_cfg(tmp_path, t1_config().replace(
        "kind = rotation2d", "kind = rotation2d\ns = 5,0"), "refused.cfg")
    for s, name in (("1,0", "psd.cfg"), ("1,1", "psd-refused.cfg")):
        write_cfg(tmp_path, t1_config().replace(
            "kind = rotation2d",
            f"kind = linear_psd\nmatrix = 0,0;0,1\ns = {s}"), name)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run([sys.executable, "-c", _IMPORTS_PROBE, *argv],
                           capture_output=True, text=True, env=env,
                           cwd=tmp_path)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (rc, out,
                                                              err + "\n")


# --- README --------------------------------------------------------------------


def test_calls_in_one_process_print_what_fresh_processes_print(
        tmp_path, capsys, config_a_text):
    # main builds its parser once; later calls, with other subcommands and
    # after a usage error, must not see anything an earlier call left
    cfg = str(write_cfg(tmp_path, config_a_text))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv in (["bound", cfg, "theta", "--t", "1", "--fspec", "id"],
                 ["oracle", "--lemma", "ratap", "--trials", "50"],
                 ["oracle", "--lemma", "nope"],
                 ["bound", cfg, "R", "--t", "0"],
                 ["bound", cfg, "proj", "--k", "1", "--fspec", "const 2"]):
        fresh = subprocess.run([sys.executable, "-m", "mppa.cli", *argv],
                               capture_output=True, text=True, env=env)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out, err) == (fresh.returncode, fresh.stdout,
                                  fresh.stderr), argv


def test_readme_examples(monkeypatch, capsys):
    """Each `$ mppa ...` example in the README prints the lines shown below
    it, up to the next blank line or code fence."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    monkeypatch.chdir(readme.parent)
    commands = []
    for i, line in enumerate(lines):
        if not line.startswith("$ mppa "):
            continue
        argv = shlex.split(line)[2:]
        shown = list(itertools.takewhile(lambda out: out and out != "```",
                                         lines[i + 1:]))
        assert main(argv) == 0, line
        assert capsys.readouterr().out.splitlines() == shown, line
        commands.append(argv[0])
    assert commands == ["bound"] * 5 + ["oracle"] * 2
