"""Config-layer tests: the flat key=value grammar, line-numbered diagnostics,
validation of grid/rank/suite/tolerance settings, override merging, and the
format/parse round trip that keeps configs reproducible on disk."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlab.config import (
    DEFAULT_TOLERANCES,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    format_config,
    load_config,
    parse_config_text,
)

MINIMAL = "metric.preset = flat\n"


def test_defaults_from_minimal_text():
    cfg = parse_config_text(MINIMAL, source="inline")
    assert cfg.metric == "flat"
    assert cfg.dimension == 2
    assert cfg.sizes == (16, 32)
    assert cfg.ranks == (1, 2)
    assert cfg.method == "spectral"
    assert cfg.suites == ("identity",)


def test_every_key_parses():
    text = "\n".join([
        "metric.preset = conformal",
        "metric.conformal = 0.2*sin(x2)",
        "grid.dimension = 3",
        "grid.sizes = 8, 12, 16",
        "ranks = [1, 3]",
        "method = fd4",
        "seed = 42",
        "suites = identity, convergence",
        "fields.count = 2",
        "tolerances.two_route = 1e-6",
    ])
    cfg = parse_config_text(text, source="inline")
    assert cfg.metric == "conformal"
    assert cfg.conformal_exponent == "0.2*sin(x2)"
    assert cfg.dimension == 3
    assert cfg.sizes == (8, 12, 16)
    assert cfg.ranks == (1, 3)
    assert cfg.method == "fd4"
    assert cfg.seed == 42
    assert cfg.suites == ("identity", "convergence")
    assert cfg.field_count == 2
    assert cfg.tolerance("two_route") == 1e-6
    # untouched tolerances still resolve to defaults
    assert cfg.tolerance("reconstruction") == DEFAULT_TOLERANCES["reconstruction"]


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nmetric.preset = flat\n  # indented comment\nseed = 3\n"
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
    with pytest.raises(ConfigError) as exc:
        parse_config_text("tolerances.bogus = 1e-3\n", source="inline")
    assert "bogus" in str(exc.value)


def test_kernel_tol_is_not_a_tolerance():
    # the per-mode kernel oracle's rank cut is a constant, not a config key
    assert "kernel_tol" not in DEFAULT_TOLERANCES
    with pytest.raises(ConfigError) as exc:
        parse_config_text("tolerances.kernel_tol = 1e-10\n", source="inline")
    assert "kernel_tol" in str(exc.value)


@pytest.mark.parametrize(
    "field,value",
    [
        ("metric", "hyperbolic"),
        ("dimension", 1),
        ("dimension", 6),
        ("sizes", (12,) * 1 + (11,)),  # odd size
        ("sizes", (16, 16)),  # not strictly increasing
        ("sizes", (4, 8)),  # below minimum
        ("ranks", (0,)),
        ("ranks", (1, 1)),
        ("ranks", (7,)),
        ("method", "fem"),
        ("suites", ("identity", "mystery")),
        ("field_count", 0),
    ],
)
def test_validation_rejects(field, value):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: value})


def test_unknown_tolerance_in_constructor_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(tolerances={"nonsense": 1.0})


def test_overrides_merge_and_validate():
    cfg = parse_config_text(MINIMAL, source="inline")
    out = apply_overrides(cfg, ["ranks=[1,2]", "seed=9", "tolerances.plateau=1e-7"])
    assert out.ranks == (1, 2)
    assert out.seed == 9
    assert out.tolerance("plateau") == 1e-7
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
    path.write_text("metric.preset = flat\nseed = 5\n")
    cfg = load_config(path)
    assert cfg.seed == 5


sizes_strategy = st.lists(
    st.sampled_from([8, 10, 12, 16, 20, 24, 32, 48, 64]),
    min_size=1, max_size=4, unique=True,
).map(lambda s: tuple(sorted(s)))

ranks_strategy = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=3, unique=True,
).map(tuple)

config_strategy = st.builds(
    ExperimentConfig,
    metric=st.sampled_from(["flat", "conformal"]),
    conformal_exponent=st.sampled_from(["0.1*cos(x1)", "0.2*sin(x2)", "0.05*cos(x1)*cos(x2)"]),
    dimension=st.integers(min_value=2, max_value=5),
    sizes=sizes_strategy,
    ranks=ranks_strategy,
    method=st.sampled_from(["spectral", "fd4"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    suites=st.sampled_from([("identity",), ("kernel",), ("identity", "kernel"),
                            ("identity", "kernel", "convergence")]),
    field_count=st.integers(min_value=1, max_value=12),
    tolerances=st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)),
        st.floats(min_value=1e-14, max_value=1e-2, allow_nan=False),
        max_size=3,
    ),
)


@settings(deadline=None, max_examples=60)
@given(cfg=config_strategy)
def test_format_parse_round_trip(cfg):
    text = format_config(cfg)
    again = parse_config_text(text, source="round-trip")
    assert again == cfg
    # formatting is canonical: a second pass is byte-identical
    assert format_config(again) == text


def test_format_is_plain_key_value():
    cfg = ExperimentConfig(tolerances={"two_route": 1e-6})
    text = format_config(cfg)
    for line in text.strip().splitlines():
        assert "=" in line
    assert "tolerances.two_route" in text


def test_config_is_hashable_value_object():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a == b
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
