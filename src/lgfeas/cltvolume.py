"""Violation-volume estimates for sum-of-correlator inequalities.

Treating each correlator in an inequality as an independent uniform draw
from [-1, 1], the chance that a sum of j of them exceeds the bound b is
exactly the parameter-space fraction that violates the inequality.  Three
estimators of that fraction live here:

* ``clt_violation_fraction``: the normal-limit closed form
  V = (1 - erf(sqrt(3/2) * b / sqrt(j))) / 2, with ``v_lg`` and
  ``v_ngon`` specializing (b, j) to the chain and sign-vector families;
* ``mc_violation_fraction``: seeded Monte Carlo with binomial error bars;
* ``exact_violation_fraction``: the exact piecewise-polynomial uniform-sum
  tail (Irwin-Hall after rescaling), evaluated in rational arithmetic so
  it can arbitrate the other two.

``erf`` is the standard library's ``math.erf``, re-exported under the
package name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import erf

import numpy as np

from .core import ValidationError, _check_integer, _check_real
from .inequalities import LinearInequality


@dataclass(frozen=True)
class VolumeEstimate:
    """A violating-fraction value tagged with how it was obtained."""

    value: float
    method: str
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("clt", "monte_carlo", "exact_convolution"):
            raise ValidationError(f"unknown method {self.method!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"fraction must lie in [0, 1], got {self.value}")
        if (self.stderr is not None) != (self.method == "monte_carlo"):
            raise ValidationError("stderr is present exactly for monte_carlo estimates")

    def to_json_dict(self) -> dict:
        payload: dict = {"value": self.value, "method": self.method}
        if self.stderr is not None:
            payload["stderr"] = self.stderr
        if self.samples is not None:
            payload["samples"] = self.samples
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload


def clt_violation_fraction(b: float, j: int) -> VolumeEstimate:
    """Normal-limit fraction of [-1,1]^j with a coordinate sum above b."""
    if _check_integer("j", j) < 1:
        raise ValidationError("j must be >= 1")
    if _check_real("bound", b) < 0:
        raise ValidationError("bound must be >= 0")
    value = 0.5 * (1.0 - erf(math.sqrt(1.5) * b / math.sqrt(j)))
    return VolumeEstimate(value, "clt")


def v_lg(n: int) -> VolumeEstimate:
    """Chain-family estimate: j = n correlators against bound n - 2."""
    if _check_integer("n", n) < 3:
        raise ValidationError("n must be >= 3")
    return clt_violation_fraction(float(n - 2), n)


def v_ngon(n: int) -> VolumeEstimate:
    """Sign-vector-family estimate: j = n(n-1)/2 correlators against bound
    n/2 (n even) or (n-1)/2 (n odd); the value tends to (1 - erf(sqrt(3)/2))/2."""
    if _check_integer("n", n) < 3:
        raise ValidationError("n must be >= 3")
    b = n / 2.0 if n % 2 == 0 else (n - 1) / 2.0
    return clt_violation_fraction(b, n * (n - 1) // 2)


_MC_CHUNK = 1 << 16


def mc_violation_fraction(ineq: LinearInequality, samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo violating fraction for one inequality.

    Each correlator appearing in the terms is drawn independently and
    uniformly from [-1, 1]; linear terms (one-time averages) are treated
    as zero, matching evaluation against bare correlator data.  Chunk k of
    the stream uses the generator seeded with (seed, k), so results do not
    depend on how the chunks are scheduled.
    """
    _check_integer("samples", samples)
    _check_integer("seed", seed)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    coeffs = np.array(list(ineq.terms.values()), dtype=np.float64)
    hits = 0
    done = 0
    chunk_index = 0
    while done < samples:
        take = min(_MC_CHUNK, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        draws = rng.uniform(-1.0, 1.0, size=(take, coeffs.size))
        hits += int(np.count_nonzero(draws @ coeffs - ineq.bound > 0.0))
        done += take
        chunk_index += 1
    p_hat = hits / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return VolumeEstimate(p_hat, "monte_carlo", stderr=stderr, samples=samples, seed=seed)


def exact_uniform_sum_tail(bound: Fraction | float, j: int) -> Fraction:
    """P(U_1 + ... + U_j > bound) for independent uniforms on [-1, 1],
    exactly, via the rescaled uniform-sum (Irwin-Hall) distribution.

    The shifted sum (sum + j)/2 lives on (0, j) with CDF
    F(x) = (1/j!) * sum_{k<=floor(x)} (-1)^k C(j,k) (x-k)^j; everything is
    kept rational so the result out-ranks floating error.
    """
    if _check_integer("j", j) < 1:
        raise ValidationError("j must be >= 1")
    x = (Fraction(_check_real("bound", bound)) + j) / 2
    if x <= 0:
        return Fraction(1)
    if x >= j:
        return Fraction(0)
    cdf = Fraction(0)
    for k in range(int(math.floor(x)) + 1):
        cdf += (-1) ** k * math.comb(j, k) * (x - k) ** j
    cdf /= math.factorial(j)
    return 1 - cdf


def exact_violation_fraction(bound: float, j: int) -> VolumeEstimate:
    """Exact violating fraction for a sum of j unit-coefficient correlators."""
    return VolumeEstimate(float(exact_uniform_sum_tail(bound, j)), "exact_convolution")
