"""Runtime defaults, overridable through a JSON file named by VESSELKIT_CONFIG,
and the fixed relative thresholds of the numerical guards."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

_ENV_VAR = "VESSELKIT_CONFIG"

# Relative spectral-distance threshold for resolvents and Sylvester solves.
EPS_SPEC_REL = 1e-9
# Relative positive-definiteness floor for Hermitian square roots.
EPS_PD_REL = 1e-12
# Relative floor sigma_min / sigma_max below which a coupling matrix is singular.
EPS_COUPLING_REL = 1e-10


@dataclass(frozen=True)
class Config:
    tol: float = 1e-8
    probes: int = 20
    seed: int = 0


def load_config(path: str | None = None) -> Config:
    """Defaults, overlaid with the JSON object at `path` or at $VESSELKIT_CONFIG;
    OSError for an unreadable file, ValueError for any other bad content."""
    cfg = Config()
    if path is None:
        path = os.environ.get(_ENV_VAR)
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("the config file must hold a JSON object")
    unknown = sorted(set(overrides) - {f.name for f in fields(Config)})
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return replace(cfg, **overrides)


DEFAULTS = Config()
