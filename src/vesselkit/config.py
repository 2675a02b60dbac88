"""Runtime defaults, overridable through a JSON file named by VESSELKIT_CONFIG."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

_ENV_VAR = "VESSELKIT_CONFIG"


@dataclass(frozen=True)
class Config:
    tol: float = 1e-8
    steps_per_unit: int = 200
    probes: int = 20
    seed: int = 0
    # Relative spectral-distance threshold for resolvents and Sylvester solves.
    eps_spec_rel: float = 1e-9
    # Relative positive-definiteness floor for Hermitian square roots.
    eps_pd_rel: float = 1e-12
    # Relative floor sigma_min / sigma_max below which a coupling matrix is singular.
    eps_coupling_rel: float = 1e-10


def load_config(path: str | None = None) -> Config:
    """Defaults, overlaid with the JSON file at `path` or at $VESSELKIT_CONFIG."""
    cfg = Config()
    if path is None:
        path = os.environ.get(_ENV_VAR)
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    known = {k: v for k, v in overrides.items() if hasattr(cfg, k)}
    unknown = set(overrides) - set(known)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return replace(cfg, **known)


DEFAULTS = Config()
