"""Config grammar: located errors, canonical round-trips, budget plumbing."""

import dataclasses
import hashlib
import logging
import re
from pathlib import Path

import pytest

from mppa.acceptance import EXPERIMENT_B_TEXT
from mppa.cli import main
from mppa.config import (ConfigError, count_fn, parse_config, parse_fspec,
                         render_fspec, serialize_config)
from mppa.countfn import (DEFAULT_MAGNITUDE_BITS, DEFAULT_MAX_CALLS, Affine,
                          Const, ExpCeil, Identity, Table)
from mppa.schedules import GeometricError, ZeroError
from test_cli import GENERATED

REPO = Path(__file__).resolve().parent.parent
CONFIG_A_TEXT = (REPO / "configs" / "experiment_a.cfg").read_text("utf-8")
CONFIG_B_TEXT = (REPO / "configs" / "experiment_b.cfg").read_text("utf-8")


def errors_of(text) -> list:
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value.errors


# --- counting function grammar -------------------------------------------------


def test_fspec_forms():
    # the text grammar and the battery's spec tuples build the same nodes
    for text, spec, fn in (("id", ("id",), Identity()),
                           ("const 4", ("const", 4), Const(4)),
                           ("affine 2 1", ("affine", 2, 1), Affine(2, 1)),
                           ("expceil 4", ("expceil", 4), ExpCeil(4)),
                           ("table 0,2,5", ("table", (0, 2, 5)),
                            Table((0, 2, 5)))):
        assert parse_fspec(text) == count_fn(spec) == fn


def test_fspec_round_trip():
    for text in ("id", "const 4", "affine 2 1", "expceil 4", "table 0,2,5"):
        assert render_fspec(parse_fspec(text)) == text


def test_fspec_errors():
    for bad in ("", "const", "const 1 2", "affine 1", "expceil", "wat 3",
                "table", "id 3"):
        with pytest.raises(ValueError):
            parse_fspec(bad)
    for text, spec in (("const 1 2", ("const", 1, 2)), ("wat 3", ("wat", 3)),
                       ("id 3", ("id", 3)), ("affine 1", ("affine", 1))):
        with pytest.raises(ValueError) as from_text:
            parse_fspec(text)
        with pytest.raises(ValueError) as from_spec:
            count_fn(spec)
        assert str(from_text.value) == str(from_spec.value)


def test_fspec_majorizes_tables(caplog):
    with caplog.at_level(logging.WARNING):
        fn = parse_fspec("table 3,1,2")
    assert fn.values == (3, 3, 3)
    assert any("majorized" in rec.message for rec in caplog.records)
    # a spec tuple is majorized silently: the battery's table pair would
    # otherwise print a warning on every `mppa verify`
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert count_fn(("table", (3, 1, 2))) == fn
    assert not caplog.records


# --- whole-file parsing ------------------------------------------------------------


# Every problem kind, quadratic_prox with and without its optional weight,
# both error families and both budget keys.
ROUND_TRIPS = {
    "quadratic_prox": CONFIG_A_TEXT,
    "quadratic_prox_no_weight": CONFIG_A_TEXT.replace("weight = 1\n", ""),
    "ball_projection": CONFIG_B_TEXT,
    "budget_keys": CONFIG_B_TEXT + "budget_bits = 512\nbudget_calls = 12345\n",
    **GENERATED,
}


def test_round_trip_is_canonical():
    for name, source in ROUND_TRIPS.items():
        cfg = parse_config(source)
        text = serialize_config(cfg)
        assert parse_config(text) == cfg, name
        assert serialize_config(parse_config(text)) == text, name


def test_round_trips_cover_the_grammar():
    from mppa.config import _OPERATORS
    cfgs = [parse_config(text) for text in ROUND_TRIPS.values()]
    assert {cfg.problem.kind for cfg in cfgs} == set(_OPERATORS)
    assert {type(cfg.iteration.error) for cfg in cfgs} \
        == {ZeroError, GeometricError}
    assert any(cfg.run.budget_bits is not None
               and cfg.run.budget_calls is not None for cfg in cfgs)
    unweighted = parse_config(ROUND_TRIPS["quadratic_prox_no_weight"])
    assert unweighted.problem.args == (("center", (1.0, -1.0)),)
    assert unweighted.problem.build().weight == 1.0


# sha256 of serialize_config on the shipped configs: a change to a key's
# text form shows here
SERIALIZED = {
    "a": "9bd29e996d432d3b8692293ef8d046bd2a69075158941831c141d51a9f9ec3c8",
    "b": "a30ba63025139ee6f03fd60d64a5c8a7740198130b8b49e2a019d3d171d932f5",
}


def test_serialized_bytes_are_pinned():
    for name, text in (("a", CONFIG_A_TEXT), ("b", CONFIG_B_TEXT)):
        out = serialize_config(parse_config(text)).encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == SERIALIZED[name]


def test_readme_documents_the_grammar():
    from mppa.config import (_FAMILIES, _FN_KINDS, _OPERATORS, _SECTIONS,
                             _render_error_family)
    readme = (REPO / "README.md").read_text("utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    errors = (ZeroError(1), GeometricError(ratio=0.5, base=(1.0,)))
    heads = [*_FN_KINDS, *_FAMILIES,
             *(_render_error_family(fam).split()[0] for fam in errors)]
    for head in heads:
        assert re.search(rf"\b{head}\b", section), head
    # a key is shown in the example or named in the text
    for _, rows in _SECTIONS.values():
        for row in rows:
            assert f"\n{row.key} = " in section \
                or f"`{row.key}`" in section, row.key
    # the table gives each kind's keys
    for kind, (_, args) in _OPERATORS.items():
        lines = [line for line in section.splitlines()
                 if line.startswith(f"| `{kind}` |")]
        assert len(lines) == 1, kind
        assert all(f"`{key}`" in lines[0] for key in args), kind


def test_inline_b_matches_shipped_config(config_b_text):
    assert parse_config(EXPERIMENT_B_TEXT) == parse_config(config_b_text)


def test_empty_input():
    errs = errors_of("")
    assert "missing section [problem]" in errs
    assert "missing section [run]" in errs


def test_located_errors(config_a_text):
    text = config_a_text + "bogus = 3\n"
    errs = errors_of(text)
    assert any("unknown key 'bogus'" in e and "line" in e for e in errs)

    text = "[nope]\nx = 1\n" + config_a_text
    errs = errors_of(text)
    assert any(e.startswith("line 1: unknown section") for e in errs)

    errs = errors_of(config_a_text + "\n[run]\nhorizon = 5\n")
    assert any("duplicate section" in e for e in errs)

    errs = errors_of(config_a_text + "just some words\n")
    assert any("expected key = value" in e for e in errs)


def test_error_collection_is_not_first_only(config_a_text):
    text = config_a_text.replace("horizon = 10000", "horizon = -3") \
                        .replace("a = 2", "a = x")
    errs = errors_of(text)
    assert len(errs) >= 2


def test_missing_keys_are_named():
    errs = errors_of("[problem]\nkind = rotation2d\n"
                     "[iteration]\n[moduli]\n[run]\n")
    assert any("missing key 'z0' in [iteration]" in e for e in errs)
    assert any("missing key 'horizon' in [run]" in e for e in errs)


def test_kind_key_mismatch(config_b_text):
    text = config_b_text.replace("radius = 1", "radius = 1\nweight = 2")
    errs = errors_of(text)
    assert any("does not apply" in e for e in errs)


def test_degenerate_schedule_is_rejected(config_b_text):
    # harmonic shift 2 with gamma = 1/2 gives delta_0 = 0
    text = config_b_text.replace("lam = harmonic 3", "lam = harmonic 2")
    errs = errors_of(text)
    assert any("delta" in e and "n=0" in e for e in errs)


def test_moduli_positivity(config_b_text):
    text = config_b_text.replace("N3 = 2", "N3 = 0")
    errs = errors_of(text)
    assert any("N3 must be a positive integer" in e for e in errs)


def test_witness_is_checked_at_parse_time(config_b_text):
    text = config_b_text.replace("s = 1,0", "s = 5,0")
    errs = errors_of(text)
    assert any("problem:" in e for e in errs)


@pytest.mark.parametrize("old, new, line", [
    ("gamma = const 0.5", "gamma = const nan", "line 16: gamma"),
    ("c = const 1", "c = const inf", "line 17: c"),
    ("error = zero", "error = geometric 0.5 nan,0", "line 18: error"),
])
def test_families_take_finite_reals(config_a_text, old, new, line):
    # each once parsed, to fail later without a line: an invalid schedule
    # at n=0, a Cmaj violation, a point with non-finite coordinates
    errs = errors_of(config_a_text.replace(old, new))
    assert errs == [f"{line}: value must be finite"]


def test_rotation_witness_is_checked_at_parse_time():
    # the origin is the only zero of the quarter turn
    text = GENERATED["rotation2d_0"].replace("s = 0,0", "s = 5,0")
    assert errors_of(text) == [
        "problem: declared zero is not fixed by the resolvent at c=0.1 "
        "(residual 4.975e-01)"]


def test_section_errors_come_before_the_witness_refusal(tmp_path, capsys,
                                                       config_a_text):
    # the operator is built only once every section's spec is made
    text = config_a_text.replace("s = 1,-1", "s = 5,5") \
        .replace("\na = 2\n", "\na = 0\n")
    path = tmp_path / "a.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: moduli: a must be a positive integer\n")


def test_a_replaced_problem_builds_and_checks_its_own_operator(cfg_a):
    kept = cfg_a.problem.operator
    assert cfg_a.problem.build() is kept
    moved = dataclasses.replace(cfg_a.problem, s=(5.0, 5.0))
    with pytest.raises(ValueError, match="^declared zero is not fixed by "
                                         "the resolvent at c=0.1 "):
        moved.build()
    assert cfg_a.problem.operator is kept


@pytest.mark.parametrize("key, old, new, line, dim", [
    ("u", "u = 3,2", "u = 3", 13, 1),
    ("z0", "z0 = 0,0", "z0 = 0,0,0", 14, 3),
    ("target", "target = 1,-1", "target = 1,-1,0", 10, 3),
    # a base of length 3 under a 2-d z0 once ran with the wrong components
    ("error", "error = zero", "error = geometric 0.5 1,0,1", 18, 3),
])
def test_dimensions_are_checked_at_parse_time(config_a_text, key, old, new,
                                               line, dim):
    errs = errors_of(config_a_text.replace(old, new))
    assert errs == [f"line {line}: {key}: dimension {dim}, "
                    "the operator's is 2"]


# --- parsed structure ----------------------------------------------------------------


def test_experiment_a_structure(cfg_a):
    assert cfg_a.problem.kind == "quadratic_prox"
    assert cfg_a.iteration.u == (3.0, 2.0)
    assert cfg_a.moduli.N1 == 4
    assert cfg_a.run.horizon == 10000
    assert cfg_a.run.ks == tuple(range(10))
    assert cfg_a.run.fspecs == ("const 0", "const 10", "id")
    assert cfg_a.moduli.constant_c


def test_budget_resolution(config_b_text):
    cfg = parse_config(config_b_text)
    assert cfg.budget().magnitude_bits == DEFAULT_MAGNITUDE_BITS
    assert cfg.budget().max_calls == DEFAULT_MAX_CALLS

    text = config_b_text + "budget_bits = 512\nbudget_calls = 12345\n"
    cfg = parse_config(text)
    assert cfg.budget().magnitude_bits == 512
    assert cfg.budget().max_calls == 12345


def test_serialization_keeps_budget_keys(config_b_text):
    text = config_b_text + "budget_bits = 512\n"
    cfg = parse_config(text)
    assert "budget_bits = 512" in serialize_config(cfg)
