"""Numerical tolerance profile.

Fixed defaults, overridable per call or (for the CLI) through the
MATSZEGO_TOLERANCES environment variable holding a JSON object of
field overrides, e.g. '{"fact_rel": 1e-7}'.
"""

from __future__ import annotations

import dataclasses
import json
import os

from .errors import ParseError


@dataclasses.dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10          # Hermiticity defect, absolute
    sing_rel: float = 1e-12      # singularity cutoff, relative to ||A||
    norm: float = 1e-8           # normalization defect ||mu(R) - I||
    orth: float = 1e-7           # orthonormality defect of a polynomial block
    fact_rel: float = 1e-8       # factorization residual, relative to max ||w||
    pos: float = 1e-10           # Gram positivity floor in the recurrence
    rank_rel: float = 1e-10      # rank cutoff for mass weights, relative
    residue_rank_rel: float = 1e-8  # kernel cutoff in residue extraction
    kernel_angle: float = 1e-6   # residue-kernel fidelity angle


DEFAULT = Tolerances()

_ENV_VAR = "MATSZEGO_TOLERANCES"


def from_environment() -> tuple[Tolerances, dict]:
    """Return (profile, overrides): DEFAULT with the overrides read from
    the environment.

    Unknown keys or non-numeric values raise ParseError: a typo silently
    reverting to defaults would defeat the point of an override.
    """
    raw = os.environ.get(_ENV_VAR, "")
    if not raw.strip():
        return DEFAULT, {}
    try:
        overrides = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{_ENV_VAR}: invalid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ParseError(f"{_ENV_VAR}: expected a JSON object")
    known = {f.name for f in dataclasses.fields(Tolerances)}
    for key, value in overrides.items():
        if key not in known:
            raise ParseError(f"{_ENV_VAR}: unknown tolerance {key!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"{_ENV_VAR}: {key} must be a number")
    return Tolerances(**overrides), dict(overrides)
