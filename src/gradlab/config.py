"""Experiment configuration: a flat, line-oriented key=value format.

Dotted keys, '#' comments, blank lines ignored.  The grammar is kept
deliberately trivial so configs diff cleanly and the parser has no edge
cases worth testing beyond "unknown key" and "bad value".  Every field of
ExperimentConfig has exactly one key, so a config round-trips through
format_config/parse_config_text unchanged.
"""

import dataclasses
from dataclasses import dataclass, field


class ConfigError(RuntimeError):
    """Malformed configuration; message carries line/key diagnostics."""


# Default tolerances for every named check family.  Overridable one by one
# through ``tolerances.<name>`` keys; unknown names are rejected.
DEFAULT_TOLERANCES = {
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
    "slope_target": 4.0,
    "slope_window": 0.5,
    "ellipticity_floor": 1e-3,
    "parallel": 1e-8,
    "control_floor": 1e-3,
}

_METRICS = ("flat", "conformal")
_METHODS = ("spectral", "fd4")
_SUITES = ("identity", "kernel", "convergence")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on; value semantics, hashable-ish.

    ``sizes`` must be even, >= 8, strictly increasing (the convergence
    study additionally wants at least three).  ``tolerances`` holds only
    the overrides; resolve through :meth:`tolerance`.
    """

    metric: str = "flat"
    conformal_exponent: str = "0.1*cos(x1)"
    dimension: int = 2
    sizes: tuple = (16, 32)
    ranks: tuple = (1, 2)
    method: str = "spectral"
    seed: int = 0
    suites: tuple = ("identity",)
    field_count: int = 6
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise ConfigError(f"metric.preset must be one of {_METRICS}: {self.metric!r}")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}: {self.method!r}")
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
        for name in self.tolerances:
            if name not in DEFAULT_TOLERANCES:
                known = ", ".join(sorted(DEFAULT_TOLERANCES))
                raise ConfigError(f"unknown tolerance {name!r}; known: {known}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "suites", suites)
        object.__setattr__(self, "tolerances", dict(self.tolerances))

    def tolerance(self, name):
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}")
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


# key -> (attribute, parser, formatter); single source of truth for the grammar
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


def _fmt_list(values):
    return ",".join(str(v) for v in values)


VALID_KEYS = {
    "metric.preset": ("metric", str.strip, str),
    "metric.conformal": ("conformal_exponent", str.strip, str),
    "grid.dimension": ("dimension", int, str),
    "grid.sizes": ("sizes", _int_list, _fmt_list),
    "ranks": ("ranks", _int_list, _fmt_list),
    "method": ("method", str.strip, str),
    "seed": ("seed", int, str),
    "suites": ("suites", _str_list, _fmt_list),
    "fields.count": ("field_count", int, str),
}


def _fail(source, lineno, message):
    where = f"{source}:{lineno}: " if lineno else f"{source}: "
    raise ConfigError(where + message)


def parse_config_text(text, source="<config>"):
    """Parse the flat key=value format into an ExperimentConfig."""
    values = {}
    tolerances = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            _fail(source, lineno, f"expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key.startswith("tolerances."):
            name = key[len("tolerances."):]
            if name not in DEFAULT_TOLERANCES:
                known = ", ".join(f"tolerances.{k}" for k in sorted(DEFAULT_TOLERANCES))
                _fail(source, lineno, f"unknown key {key!r}; tolerance keys: {known}")
            try:
                tolerances[name] = float(val)
            except ValueError:
                _fail(source, lineno, f"bad float for {key!r}: {val!r}")
            continue
        if key not in VALID_KEYS:
            known = ", ".join(sorted(VALID_KEYS) + ["tolerances.<name>"])
            _fail(source, lineno, f"unknown key {key!r}; valid keys: {known}")
        attr, parse, _ = VALID_KEYS[key]
        try:
            values[attr] = parse(val)
        except ValueError as exc:
            _fail(source, lineno, f"bad value for {key!r}: {val!r} ({exc})")
    try:
        return ExperimentConfig(**values, tolerances=tolerances)
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
    tolerances = dict(cfg.tolerances)
    for lineno, pair in enumerate(pairs, start=1):
        if "=" not in pair:
            _fail("<override>", lineno, f"expected key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        key, val = key.strip(), val.strip()
        if key.startswith("tolerances."):
            name = key[len("tolerances."):]
            if name not in DEFAULT_TOLERANCES:
                _fail("<override>", lineno, f"unknown tolerance {name!r}")
            try:
                tolerances[name] = float(val)
            except ValueError:
                _fail("<override>", lineno, f"bad float for {key!r}: {val!r}")
            continue
        if key not in VALID_KEYS:
            known = ", ".join(sorted(VALID_KEYS) + ["tolerances.<name>"])
            _fail("<override>", lineno, f"unknown key {key!r}; valid keys: {known}")
        attr, parse, _ = VALID_KEYS[key]
        try:
            merged[attr] = parse(val)
        except ValueError as exc:
            _fail("<override>", lineno, f"bad value for {key!r}: {val!r} ({exc})")
    merged["tolerances"] = tolerances
    return ExperimentConfig(**merged)


def format_config(cfg):
    """Canonical text form; parse_config_text(format_config(c)) == c."""
    lines = []
    for key in sorted(VALID_KEYS):
        attr, _, fmt = VALID_KEYS[key]
        lines.append(f"{key} = {fmt(getattr(cfg, attr))}")
    for name in sorted(cfg.tolerances):
        lines.append(f"tolerances.{name} = {cfg.tolerances[name]!r}")
    return "\n".join(lines) + "\n"
