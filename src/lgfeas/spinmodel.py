"""Cosine-model correlators and inequality sweeps over measurement spacing.

The model fixes C_ij = cos(omega * (t_j - t_i)).  Sweeps use equally
spaced times and scan the spacing tau over a uniform grid with both
endpoints excluded (tau = 0 is the degenerate coincident-measurement
point).  Two regimes control how the grid relates to n:

* ``extend``: the spacing grid is the same for every n, so the total
  window (n-1)*tau grows with n; default grid span (0, 2*pi/omega), one
  full period of the slack functions.
* ``fixed_window``: the swept quantity is the total window T with
  tau = T/(n-1); the grid is stored in tau (uniform there too) and the
  default window span is (0, 1.5*pi/omega).

``nu`` is the fraction of grid points at which at least one distinct
family member is violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import CorrelatorSet, DimensionError, ValidationError, _check_integer, _check_real
from .inequalities import (
    InequalityFamily,
    distinct_under_equal_spacing,
    gap_weights,
    lg_family,
    ngon_family,
)

DEFAULT_STEPS = 2048
EXTEND_SPAN = 2.0 * math.pi
FIXED_WINDOW_SPAN = 1.5 * math.pi


def cosine_correlators(omega: float, times: Sequence[float]) -> CorrelatorSet:
    """Complete correlator set C_ij = cos(omega*(t_j - t_i)) for the given times."""
    _check_real("omega", omega)
    times = [_check_real("time", t) for t in times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError("measurement times must be strictly increasing")
    n = len(times)
    entries = {
        (i, j): math.cos(omega * (times[j - 1] - times[i - 1]))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return CorrelatorSet(n, entries)


@dataclass(frozen=True)
class SpinSweepConfig:
    """Grid description for one sweep.

    ``tau_min``/``tau_max`` bound the spacing grid.  Spacings are
    positive, so ``tau_min`` must be >= 0; the default 0 is the degenerate
    coincident point, which the grid excludes.  Leaving ``tau_max`` unset
    picks the regime default (a full period for ``extend``, a
    1.5*pi/omega window span divided by n-1 for ``fixed_window``).
    """

    n: int
    omega: float = 1.0
    tau_min: float = 0.0
    tau_max: float | None = None
    steps: int = DEFAULT_STEPS
    regime: str = "extend"
    family: str = "lg"

    def __post_init__(self) -> None:
        if not 3 <= _check_integer("n", self.n) <= 20:
            raise DimensionError(f"n must be in [3, 20], got {self.n}")
        for name in ("omega", "tau_min") + (("tau_max",) if self.tau_max is not None else ()):
            _check_real(name, getattr(self, name))
        if self.omega <= 0:
            raise ValidationError("omega must be positive")
        if self.tau_min < 0:
            raise ValidationError("tau_min must be >= 0: spacings are positive")
        if _check_integer("steps", self.steps) < 2:
            raise ValidationError("steps must be >= 2")
        if self.regime not in ("extend", "fixed_window"):
            raise ValidationError(f"unknown regime {self.regime!r}")
        if self.family not in ("lg", "ngon"):
            raise ValidationError(f"sweep family must be lg or ngon, got {self.family!r}")
        if self.tau_max is not None and self.tau_max <= self.tau_min:
            raise ValidationError("need tau_min < tau_max")

    def tau_bounds(self) -> tuple[float, float]:
        if self.tau_max is not None:
            return self.tau_min, self.tau_max
        if self.regime == "extend":
            return self.tau_min, EXTEND_SPAN / self.omega
        return self.tau_min, FIXED_WINDOW_SPAN / (self.omega * (self.n - 1))

    def window_bounds(self) -> tuple[float, float]:
        lo, hi = self.tau_bounds()
        return (self.n - 1) * lo, (self.n - 1) * hi

    def grid(self) -> np.ndarray:
        """Uniform interior points: both endpoints excluded."""
        lo, hi = self.tau_bounds()
        k = np.arange(1, self.steps + 1)
        return lo + k * (hi - lo) / (self.steps + 1)


@dataclass(frozen=True, eq=False)
class SweepResult:
    config: SpinSweepConfig
    grid: np.ndarray
    labels: tuple[str, ...]
    slacks: np.ndarray  # (members, grid points)
    any_violation: np.ndarray
    nu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.nu <= 1.0:
            raise ValidationError(f"nu must lie in [0, 1], got {self.nu}")
        if self.slacks.shape != (len(self.labels), self.grid.size):
            raise ValidationError("slack array shape does not match labels and grid")


def _family_for(config: SpinSweepConfig) -> InequalityFamily:
    family = lg_family(config.n) if config.family == "lg" else ngon_family(config.n)
    return distinct_under_equal_spacing(family)


def sweep(config: SpinSweepConfig) -> SweepResult:
    """Evaluate every distinct member of the chosen family on the grid."""
    family = _family_for(config)
    weights = gap_weights(family).astype(np.float64)
    grid = config.grid()
    gaps = np.arange(1, config.n)
    cosines = np.cos(config.omega * np.outer(gaps, grid))  # (gaps, points)
    slacks = weights @ cosines - family.bounds[:, None]
    any_violation = (slacks > 0.0).any(axis=0)
    return SweepResult(
        config=config,
        grid=grid,
        labels=tuple(family.labels()),
        slacks=slacks,
        any_violation=any_violation,
        nu=float(any_violation.mean()),
    )


def nu_versus_n(
    n_min: int,
    n_max: int,
    regime: str = "extend",
    omega: float = 1.0,
    *,
    steps: int = DEFAULT_STEPS,
    family: str = "lg",
    tau_min: float = 0.0,
    tau_max: float | None = None,
) -> list[tuple[int, float]]:
    """The violated-fraction curve nu(n) for n in [n_min, n_max]."""
    for name, value in (("n_min", n_min), ("n_max", n_max)):
        _check_integer(name, value)
    if not 3 <= n_min <= n_max <= 20:
        raise DimensionError(f"need 3 <= n_min <= n_max <= 20, got [{n_min}, {n_max}]")
    out = []
    for n in range(n_min, n_max + 1):
        config = SpinSweepConfig(
            n=n, omega=omega, tau_min=tau_min, tau_max=tau_max,
            steps=steps, regime=regime, family=family,
        )
        out.append((n, sweep(config).nu))
    return out


def nu_convergence(config: SpinSweepConfig) -> tuple[float, float, float]:
    """nu at the configured resolution and at double resolution, with the
    absolute change; the default 2048-point grid moves by well under 1e-3."""
    coarse = sweep(config).nu
    fine = sweep(replace(config, steps=2 * config.steps)).nu
    return coarse, fine, abs(fine - coarse)
