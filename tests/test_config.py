"""Config grammar: located errors, canonical round-trips, budget plumbing."""

import logging

import pytest

from mppa.acceptance import EXPERIMENT_B_TEXT
from mppa.config import (ConfigError, count_fn, parse_config, parse_fspec,
                         render_fspec, serialize_config)
from mppa.countfn import (DEFAULT_MAGNITUDE_BITS, DEFAULT_MAX_CALLS, Affine,
                          Const, ExpCeil, Identity, Table)


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


def test_round_trip_is_canonical(config_a_text, config_b_text):
    for text in (config_a_text, config_b_text):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


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


# --- parsed structure ----------------------------------------------------------------


def test_experiment_a_structure(cfg_a):
    assert cfg_a.problem.kind == "quadratic_prox"
    assert cfg_a.iteration.u == (3.0, 2.0)
    assert cfg_a.moduli.N1 == 4
    assert cfg_a.run.horizon == 10000
    assert cfg_a.run.ks == tuple(range(10))
    assert cfg_a.run.fspecs == ("const 0", "const 10", "id")
    assert cfg_a.constant_c


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
