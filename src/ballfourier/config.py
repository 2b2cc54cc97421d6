"""Scenario configuration: flat key=value files plus command-line overrides.

Unknown keys are rejected (no silent ignore); flags override file values;
every default is visible in --help and echoed into results.json.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import get_type_hints


class ConfigError(ValueError):
    """Malformed or inconsistent configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int = 3
    radial_nodes: int = 96  # Gauss-Legendre nodes on [0, support radius]
    # azimuth count: disk(n) in dim 2, sphere((n + 1) // 2, n) in dim 3
    boundary_nodes: int = 256
    lambda_max: float = 24.0
    bump_radius: float = 1.0
    bump_shift: float = 0.0  # hyperbolic distance of the bump center from the origin
    bump_alpha: float = 0.0
    seed: int = 0
    out_dir: str = "out"
    timing: str = "wall"  # "zero" makes results.json byte-reproducible
    tolerances: tuple = ()  # ((check_name, tol), ...) from --tol flags

    def validate(self) -> "ScenarioConfig":
        if self.dim not in (2, 3):
            raise ConfigError(f"dim must be 2 or 3, got {self.dim}")
        for key in ("radial_nodes", "boundary_nodes"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key.replace('_', '-')} must be positive")
        for key in ("lambda_max", "bump_radius", "bump_shift", "bump_alpha"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key.replace('_', '-')} must be finite")
        for key, tol in self.tolerances:
            if not math.isfinite(tol):
                raise ConfigError(f"--tol {key} must be finite")
        if self.lambda_max <= 0:
            raise ConfigError("lambda-max must be positive")
        if self.bump_radius <= 0:
            raise ConfigError("bump-radius must be positive")
        if self.bump_shift < 0:
            raise ConfigError("bump-shift must be nonnegative")
        if abs(self.bump_alpha) > 1:
            raise ConfigError("bump-alpha must satisfy |alpha| <= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.timing not in ("wall", "zero"):
            raise ConfigError("timing must be 'wall' or 'zero'")
        return self


_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _coerce(key: str, raw: str):
    name = key.replace("-", "_")
    if name == "tolerances":
        raise ConfigError("tolerance overrides are set with --tol NAME=VALUE flags")
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key: {key}")
    try:
        return name, _FIELD_TYPES[name](raw)
    except ValueError:
        raise ConfigError(f"malformed value for {key}: {raw!r}") from None


def read_config_file(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            name, value = _coerce(key, raw)
            values[name] = value
    return values


def parse_config(overrides: dict = None, base: ScenarioConfig = None) -> ScenarioConfig:
    """Resolve configuration: base defaults, then overrides (file values merged with flags by the caller)."""
    cfg = base if base is not None else ScenarioConfig()
    if overrides:
        clean = {}
        for key, raw in overrides.items():
            name, value = _coerce(key, raw) if isinstance(raw, str) else (key.replace("-", "_"), raw)
            if name not in _FIELD_TYPES:
                raise ConfigError(f"unknown configuration key: {key}")
            clean[name] = value
        cfg = replace(cfg, **clean)
    return cfg.validate()


def config_echo(cfg: ScenarioConfig) -> dict:
    return asdict(cfg)
