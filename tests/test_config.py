"""Config-layer tests: the flat key=value grammar, line-numbered diagnostics,
validation of grid/rank/suite settings, override merging, the read-only
tolerance table, and the text/parse round trip of every valid config."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlab.config import (
    TOLERANCES,
    VALID_KEYS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config,
    parse_config_text,
)
from gradlab.expressions import parse_trig_poly
from testlib import config_text

MINIMAL = "seed = 0\n"


def test_defaults_from_minimal_text():
    cfg = parse_config_text(MINIMAL, source="inline")
    # no metric key: the exponent 0, the flat torus
    assert cfg.conformal_exponent == "0"
    assert parse_trig_poly(cfg.conformal_exponent).is_zero
    assert cfg.dimension == 2
    assert cfg.sizes == (16, 32)
    assert cfg.ranks == (1, 2)
    assert cfg.suites == ("identity",)


def test_every_key_parses():
    text = "\n".join([
        "metric.conformal = 0.2*sin(x2)",
        "grid.dimension = 3",
        "grid.sizes = 8, 12, 16",
        "ranks = [1, 3]",
        "seed = 42",
        "suites = identity, convergence",
        "fields.count = 2",
    ])
    cfg = parse_config_text(text, source="inline")
    assert cfg.conformal_exponent == "0.2*sin(x2)"
    assert cfg.dimension == 3
    assert cfg.sizes == (8, 12, 16)
    assert cfg.ranks == (1, 3)
    assert cfg.seed == 42
    assert cfg.suites == ("identity", "convergence")
    assert cfg.field_count == 2


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nmetric.conformal = 0\n  # indented comment\nseed = 3\n"
    cfg = parse_config_text(text, source="inline")
    assert cfg.seed == 3


def test_unknown_key_diagnostic_names_line_and_valid_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("seed = 1\nbogus.key = 2\n", source="demo.cfg")
    msg = str(exc.value)
    assert "demo.cfg:2" in msg
    assert "bogus.key" in msg
    assert "grid.sizes" in msg  # the full valid-key list is part of the message


def test_bad_value_diagnostic_names_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("grid.dimension = two\n", source="demo.cfg")
    assert "demo.cfg:1" in str(exc.value)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("just some words\n", source="demo.cfg")
    assert "demo.cfg:1" in str(exc.value)


def test_unknown_tolerance_name_rejected():
    # no config line names a tolerance, a known one included
    for name in ("bogus", "plateau"):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"tolerances.{name} = 1e-3\n", source="inline")
        assert f"inline:1: unknown key 'tolerances.{name}'" in str(exc.value)


def test_tolerances_are_read_only():
    assert TOLERANCES["plateau"] == 1e-9
    with pytest.raises(TypeError):
        TOLERANCES["plateau"] = 1e-7


@pytest.mark.parametrize(
    "field,value",
    [
        ("conformal_exponent", "hyperbolic"),  # a metric is its exponent, not a name
        ("dimension", 1),
        ("dimension", 6),
        ("sizes", (12,) * 1 + (11,)),  # odd size
        ("sizes", (16, 16)),  # not strictly increasing
        ("sizes", (4, 8)),  # below minimum
        ("ranks", (0,)),
        ("ranks", (1, 1)),
        ("ranks", (7,)),
        ("seed", -1),
        ("suites", ("identity", "mystery")),
        ("suites", ("kernel", "kernel")),
        ("conformal_exponent", "cos("),
        ("field_count", 0),
    ],
)
def test_validation_rejects(field, value):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: value})


def test_metric_preset_is_not_a_key():
    with pytest.raises(ConfigError, match="unknown key 'metric.preset'"):
        parse_config_text("metric.preset = flat\n", source="inline")


def test_overrides_merge_and_validate():
    cfg = parse_config_text(MINIMAL, source="inline")
    out = apply_overrides(cfg, ["ranks=[1,2]", "seed=9", "suites=kernel,identity"])
    assert out.ranks == (1, 2)
    assert out.seed == 9
    assert out.suites == ("kernel", "identity")
    # original untouched (configs are frozen values, not shared state)
    assert cfg.seed == 0
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["seed"])  # missing '='


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("metric.conformal = 0\nseed = 5\n")
    cfg = load_config(path)
    assert cfg.seed == 5


sizes_strategy = st.lists(
    st.sampled_from([8, 10, 12, 16, 20, 24, 32, 48, 64]),
    min_size=1, max_size=4, unique=True,
).map(lambda s: tuple(sorted(s)))

ranks_strategy = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=3, unique=True,
).map(tuple)

@st.composite
def configs(draw):
    suites = draw(st.sampled_from([("identity",), ("kernel",), ("identity", "kernel"),
                                   ("identity", "kernel", "convergence")]))
    # the convergence suite needs three sizes; the others take any count
    sizes = draw(sizes_strategy.filter(lambda s: "convergence" not in suites or len(s) >= 3))
    return ExperimentConfig(
        conformal_exponent=draw(st.sampled_from(
            ["0", "0.1*cos(x1)", "0.2*sin(x2)", "0.05*cos(x1 + x2)"])),
        dimension=draw(st.integers(min_value=2, max_value=5)),
        sizes=sizes,
        ranks=draw(ranks_strategy),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        suites=suites,
        field_count=draw(st.integers(min_value=1, max_value=12)),
    )


@settings(deadline=None, max_examples=60)
@given(cfg=configs())
def test_format_parse_round_trip(cfg):
    text = config_text({key: getattr(cfg, attr) for key, (attr, _) in VALID_KEYS.items()})
    assert parse_config_text(text, source="round-trip") == cfg


def test_config_is_hashable_value_object():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a == b
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
