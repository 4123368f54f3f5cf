"""Random inputs (harvests, channel gains) and deterministic expectations.

Every random quantity in a run is drawn from its own `Stream`, keyed by the
run seed plus a small integer tuple naming what the draws are for (for
example ``(0, node)`` for a node's harvest, ``(1, tx, rx)`` for a link's
fading).  Streams with different keys are statistically independent and do
not share state, so adding a node or link to a network never perturbs the
draws seen by the others.

The uniform source is pinned down so runs are reproducible across platforms:
a PCG64 generator seeded through `numpy.random.SeedSequence(seed, spawn_key)`
produces 53-bit uniform doubles, and exponential variates are obtained by
inverting the CDF (``-mean * log1p(-u)``) rather than through any library
sampler whose algorithm might change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

__all__ = [
    "ConstantProcess",
    "ExponentialProcess",
    "QuadratureError",
    "Stream",
    "expectation_quadrature",
    "exponential_pdf",
    "max_exponential_pdf",
]


class Stream:
    """Deterministic uniform source for one purpose within a seeded run."""

    def __init__(self, seed: int, key: tuple[int, ...]):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniforms(self, n: int) -> np.ndarray:
        """Next `n` uniform doubles in [0, 1); consecutive calls continue."""
        return self._gen.random(int(n))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(seed={self.seed}, key={self.key})"


@dataclass(frozen=True)
class ExponentialProcess:
    """I.i.d. exponential draws with the given mean, one per slot.

    Models both harvested power and squared channel gains (Rayleigh fading
    with average power `mean`).
    """

    mean: float

    def __post_init__(self) -> None:
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise ValueError(f"mean must be finite and > 0, got {self.mean}")

    def sample(self, stream: Stream, n: int) -> np.ndarray:
        u = stream.uniforms(n)
        return -self.mean * np.log1p(-u)


@dataclass(frozen=True)
class ConstantProcess:
    """Degenerate process: the same value every slot.  Consumes no draws."""

    value: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"value must be finite and >= 0, got {self.value}")

    @property
    def mean(self) -> float:
        return self.value

    def sample(self, stream: Stream, n: int) -> np.ndarray:
        return np.full(int(n), self.value)


# ---------------------------------------------------------------------------
# Deterministic expectations over the gain densities
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Raised when the adaptive quadrature cannot certify its tolerance."""


def exponential_pdf(mean: float) -> Callable[[float], float]:
    """Density of an exponential with the given mean."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValueError(f"mean must be finite and > 0, got {mean}")

    def pdf(g: float) -> float:
        return math.exp(-g / mean) / mean if g >= 0.0 else 0.0

    return pdf


def max_exponential_pdf(mean: float, count: int) -> Callable[[float], float]:
    """Density of the maximum of `count` i.i.d. exponentials."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValueError(f"mean must be finite and > 0, got {mean}")
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    def pdf(g: float) -> float:
        if g < 0.0:
            return 0.0
        e = math.exp(-g / mean)
        return count / mean * e * (1.0 - e) ** (count - 1)

    return pdf


def expectation_quadrature(
    f: Callable[[float], float],
    pdf: Callable[[float], float],
    lower: float = 0.0,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
) -> float:
    """Evaluate ``integral of f(g) * pdf(g) over [lower, inf)`` adaptively.

    Raises `QuadratureError` unless the error estimate is below `abs_tol`
    (or, for large integrals where that would exceed double precision,
    below ``rel_tol * |value|``).
    """
    result = integrate.quad(
        lambda g: f(g) * pdf(g),
        lower,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
        full_output=1,
    )
    value, abserr = result[0], result[1]
    if abserr > max(abs_tol, rel_tol * abs(value)):
        # quad adds a fourth item, its warning, when it flagged a problem;
        # its lines are joined so the CLI still reports one line
        detail = ": " + " ".join(result[3].split()) if len(result) > 3 else ""
        raise QuadratureError(
            f"quadrature error estimate {abserr:.2e} exceeds tolerance{detail}"
        )
    return value
