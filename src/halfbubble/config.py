"""Run configuration shared by all CLI subcommands.

A RunConfig round-trips through JSON bit-exactly: floats are serialized
with their shortest repr and parsed back to the same IEEE value, ladders
are stored as plain lists.  Flags override file values field by field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .corrector import GridConfig
from .energy import WEYL_DENOMINATORS, check_slope_ladder
from .errors import InputFormatError, ValidationFailure
from .geometry import check_dim
from .reduction import DEFAULT_EPS_LADDER

# value types by field annotation, every float finite and every int
# nonnegative; n is left to check_dim, ladders to _checked_ladder
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def _is_a(value, kind) -> bool:
    """isinstance, except that a bool counts as no kind of number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, in one serializable record.

    h is the grid spacing of the mapped unit square; the solve uses
    round(1/h) cells per direction.  delta_ladder sets the residual-slope
    ladder only (empty: its regime-specific default; a given one must
    already have the shape a slope fit needs); the identity experiment
    always runs on its fixed ladder.
    """
    n: int = 11
    seed: int = 1
    tol_sym: float = 1e-12
    tol_solver: float = 1e-8
    t_max: float = 160.0
    r_max: float = 160.0
    h: float = 1.0 / 192.0
    delta_ladder: tuple = ()
    eps_ladder: tuple = DEFAULT_EPS_LADDER
    weyl_denominator: str = "96(n-1)^2"
    mc_samples: int = 60000
    metric_seed: int = 0
    deg3_scale: float = 5.0
    phi_bound_coeff: float = 1.0
    curvature_file: str = ""
    out_dir: str = "out"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind = _KINDS.get(f.type) if f.name != "n" else None
            if kind and not _is_a(value, kind):
                raise ValidationFailure(
                    f"{f.name} must be {f.type}, got {value!r}")
            if kind is numbers.Real and not math.isfinite(value):
                raise ValidationFailure(f"{f.name} must be finite, got {value!r}")
            if kind is numbers.Integral and value < 0:
                raise ValidationFailure(
                    f"{f.name} must be nonnegative, got {value!r}")
        for name in ("tol_sym", "tol_solver"):
            if not getattr(self, name) > 0.0:
                raise ValidationFailure(f"{name} must be positive")
        object.__setattr__(self, "n", check_dim(self.n))
        if not 0.0 < self.h <= 0.125:
            raise ValidationFailure(f"h must lie in (0, 1/8], got {self.h}")
        if self.t_max <= 8.0 or self.r_max <= 8.0:
            raise ValidationFailure("domain caps must exceed 8")
        if self.mc_samples < 1000:
            raise ValidationFailure("mc_samples below the useful minimum")
        if self.weyl_denominator not in WEYL_DENOMINATORS:
            raise ValidationFailure(
                f"weyl_denominator must be one of {WEYL_DENOMINATORS}")
        if self.deg3_scale < 0.0:
            raise ValidationFailure("deg3_scale must be nonnegative")
        if self.phi_bound_coeff <= 0.0:
            raise ValidationFailure("phi_bound_coeff must be positive")
        object.__setattr__(self, "delta_ladder",
                           _checked_ladder("delta_ladder", self.delta_ladder,
                                           allow_empty=True))
        if self.delta_ladder:
            check_slope_ladder(self.delta_ladder)
        object.__setattr__(self, "eps_ladder",
                           _checked_ladder("eps_ladder", self.eps_ladder,
                                           allow_empty=False))

    def grid(self) -> GridConfig:
        cells = int(round(1.0 / self.h))
        return GridConfig(n_t=cells, n_r=cells,
                          t_max=self.t_max, r_max=self.r_max)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["delta_ladder"] = list(self.delta_ladder)
        d["eps_ladder"] = list(self.eps_ladder)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - names)
        if unknown:
            raise InputFormatError(f"unknown config fields: {unknown}")
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(
                f"config is not valid JSON: line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise InputFormatError("config JSON must be an object")
        return cls.from_dict(payload)


def _checked_ladder(name: str, values, allow_empty: bool) -> tuple:
    if not (isinstance(values, (list, tuple))
            and all(_is_a(v, numbers.Real) for v in values)):
        raise ValidationFailure(
            f"{name} must be a list of numbers, got {values!r}")
    ladder = tuple(float(v) for v in values)
    if not ladder:
        if allow_empty:
            return ladder
        raise ValidationFailure(f"{name} must not be empty")
    arr = np.asarray(ladder)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValidationFailure(f"{name} entries must lie in (0, 1)")
    if len(ladder) > 1 and not np.all(np.diff(arr) > 0.0):
        raise ValidationFailure(f"{name} must be strictly increasing")
    return ladder
