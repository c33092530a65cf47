"""Experiment configuration: a flat, line-oriented key=value format.

Dotted keys, '#' comments, blank lines ignored.  The grammar is kept
deliberately trivial so configs diff cleanly and the parser has no edge
cases worth testing beyond "unknown key" and "bad value".  Every field of
ExperimentConfig has exactly one key.

A config chooses what runs, never how strictly it is judged: the check
tolerances are the read-only table TOLERANCES, which no config key reaches.

The metric is one key: ``metric.conformal`` is the exponent f of
g = e^{2f} delta, and its default 0 is the flat torus.
"""

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType

from .expressions import ExpressionError, parse_trig_poly


class ConfigError(RuntimeError):
    """Malformed configuration; message carries line/key diagnostics."""


# The tolerance of every named check family; read-only, and no config sets one.
TOLERANCES = MappingProxyType({
    "reconstruction": 1e-10,
    "orthogonality": 1e-8,
    "trace_residual": 1e-10,
    "projector_match": 1e-8,
    "adjoint_formula": 1e-9,
    "adjoint_transpose": 1e-12,
    "two_route": 1e-8,
    "equivalence": 1e-10,
    "weitzenbock": 1e-8,
    "flat_curvature": 1e-9,
    "integral": 1e-9,
    "plateau": 1e-9,
    "refinement_factor": 10.0,
    "ellipticity_floor": 1e-3,
    "parallel": 1e-8,
    "control_floor": 1e-3,
    "psd": 1e-9,
})

_SUITES = ("identity", "kernel", "convergence")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on; value semantics, hashable.

    ``conformal_exponent`` is the trig polynomial f of the metric e^{2f}
    delta; "0" is the flat torus.  ``sizes`` must be even, >= 8, strictly
    increasing, and at least three when the convergence suite runs.
    """

    conformal_exponent: str = "0"
    dimension: int = 2
    sizes: tuple = (16, 32)
    ranks: tuple = (1, 2)
    seed: int = 0
    suites: tuple = ("identity",)
    field_count: int = 6

    def __post_init__(self):
        try:
            parse_trig_poly(self.conformal_exponent)
        except ExpressionError as exc:
            raise ConfigError(
                f"bad metric.conformal {self.conformal_exponent!r}: {exc}"
            ) from exc
        if not 2 <= self.dimension <= 5:
            raise ConfigError(f"grid.dimension must be in [2, 5]: {self.dimension}")
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 8 or s % 2 for s in sizes):
            raise ConfigError(f"grid.sizes must be even and >= 8: {sizes}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"grid.sizes must be strictly increasing: {sizes}")
        ranks = tuple(int(p) for p in self.ranks)
        if not ranks or any(not 1 <= p <= 6 for p in ranks):
            raise ConfigError(f"ranks must be in [1, 6]: {ranks}")
        if len(set(ranks)) != len(ranks):
            raise ConfigError(f"ranks must be distinct: {ranks}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0: {self.seed}")
        if self.field_count < 1:
            raise ConfigError(f"fields.count must be >= 1: {self.field_count}")
        suites = tuple(self.suites)
        bad = [s for s in suites if s not in _SUITES]
        if bad or not suites:
            raise ConfigError(f"suites must be a nonempty subset of {_SUITES}: {suites}")
        if len(set(suites)) != len(suites):
            raise ConfigError(f"suites must be distinct: {suites}")
        if "convergence" in suites and len(sizes) < 3:
            raise ConfigError(f"the convergence suite needs >= 3 grid sizes: {sizes}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "suites", suites)


# key -> (attribute, parser); single source of truth for the grammar
def _int_list(text):
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    items = [s.strip() for s in body.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(int(s) for s in items)


def _str_list(text):
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    return tuple(s.strip() for s in body.split(",") if s.strip())


VALID_KEYS = {
    "metric.conformal": ("conformal_exponent", str.strip),
    "grid.dimension": ("dimension", int),
    "grid.sizes": ("sizes", _int_list),
    "ranks": ("ranks", _int_list),
    "seed": ("seed", int),
    "suites": ("suites", _str_list),
    "fields.count": ("field_count", int),
}


def _fail(source, lineno, message):
    where = f"{source}:{lineno}: " if lineno else f"{source}: "
    raise ConfigError(where + message)


def _assign(line, source, lineno, values):
    """Parse one 'key = value' line into `values` (attribute -> value);
    errors name source:line and the key."""
    if "=" not in line:
        _fail(source, lineno, f"expected 'key = value', got {line!r}")
    key, _, val = line.partition("=")
    key, val = key.strip(), val.strip()
    if key not in VALID_KEYS:
        known = ", ".join(sorted(VALID_KEYS))
        _fail(source, lineno, f"unknown key {key!r}; valid keys: {known}")
    attr, parse = VALID_KEYS[key]
    try:
        values[attr] = parse(val)
    except ValueError as exc:
        _fail(source, lineno, f"bad value for {key!r}: {val!r} ({exc})")


def parse_config_text(text, source="<config>"):
    """Parse the flat key=value format into an ExperimentConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            _assign(line, source, lineno, values)
    return _validated(values, source)


def _validated(values, source):
    """ExperimentConfig(**values), its validation error prefixed by `source`."""
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def apply_overrides(cfg, pairs):
    """Apply command-line 'key=value' overrides on top of a parsed config."""
    merged = dataclasses.asdict(cfg)
    for lineno, pair in enumerate(pairs, start=1):
        _assign(pair, "<override>", lineno, merged)
    return _validated(merged, "<override>")
