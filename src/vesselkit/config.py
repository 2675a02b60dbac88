"""Runtime defaults, overridable through a JSON file named by VESSELKIT_CONFIG,
and the fixed relative thresholds of the numerical guards."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace

_ENV_VAR = "VESSELKIT_CONFIG"

# Relative spectral-distance threshold for shifted solves and Sylvester solves.
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


# The keys of a config file and what each value must be (JSON true is no integer).
_VALUES = {
    "tol": ("a finite, non-negative real",
            lambda x: type(x) in (int, float) and 0.0 <= x <= sys.float_info.max),
    "probes": ("a non-negative integer", lambda x: type(x) is int and x >= 0),
    "seed": ("a non-negative integer", lambda x: type(x) is int and x >= 0),
}


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
    unknown = sorted(set(overrides) - set(_VALUES))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for key, value in overrides.items():
        what, valid = _VALUES[key]
        if not valid(value):
            raise ValueError(f"{key!r}, the default of --{key}, must be {what}, got {value!r}")
    return replace(cfg, **overrides)


DEFAULTS = Config()
