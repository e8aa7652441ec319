"""Observed time-series data and observation-noise descriptions.

A series also carries what every likelihood evaluation on it needs and
what depends on the times alone: the matrix of pairwise distances
|t_i - t_j| (:attr:`TimeSeries.distances`).  It is computed once per series,
on first use, because a fit evaluates the likelihood a hundred or more
times and at n <= 15 rebuilding the matrix costs about as much as a
kernel evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["TimeSeries", "NoiseModel"]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _grid_gaps(times: np.ndarray) -> np.ndarray:
    """Consecutive gaps of a valid time grid: finite times over a span
    t[-1] - t[0] that is a finite float, strictly increasing, with no gap
    below the smallest normal float (a subnormal gap's Nyquist frequency
    0.5 / gap can overflow).  Raises ValueError otherwise, before any
    arithmetic that could overflow."""
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not math.isfinite(float(times[-1]) - float(times[0])):
        raise ValueError("times must span a finite t[-1] - t[0]")
    if np.any(times[1:] <= times[:-1]):
        raise ValueError("times must be strictly increasing")
    gaps = np.diff(times)
    if np.any(gaps < np.finfo(float).tiny):
        raise ValueError("times must be at least the smallest normal float apart")
    return gaps


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered (time, value) observations with optional per-point noise variances.

    ``times`` must be strictly increasing, no gap below the smallest normal
    float, over a span t[-1] - t[0] that is a finite float; use
    :meth:`from_unordered` to canonicalize jointly-permuted data.
    ``noise_variances``, when present, holds one non-negative
    observation-noise variance per point and enables fixed-noise fitting.
    """

    times: np.ndarray
    values: np.ndarray
    noise_variances: np.ndarray | None = None
    id: str = ""

    def __post_init__(self) -> None:
        times = _readonly(np.atleast_1d(self.times))
        values = _readonly(np.atleast_1d(self.values))
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if times.shape != values.shape:
            raise ValueError(
                f"times ({times.shape[0]}) and values ({values.shape[0]}) "
                "must have equal length"
            )
        if times.shape[0] < 1:
            raise ValueError("a series needs at least one observation")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        _grid_gaps(times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if self.noise_variances is not None:
            nv = _readonly(np.atleast_1d(self.noise_variances))
            if nv.shape != times.shape:
                raise ValueError("noise_variances must match times in length")
            if not np.all(np.isfinite(nv)) or np.any(nv < 0.0):
                raise ValueError("noise_variances must be finite and >= 0")
            object.__setattr__(self, "noise_variances", nv)

    @classmethod
    def from_unordered(
        cls,
        times,
        values,
        noise_variances=None,
        id: str = "",
    ) -> "TimeSeries":
        """Build a series from jointly-permuted (time, value) pairs."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        order = np.argsort(times, kind="stable")
        values = np.atleast_1d(np.asarray(values, dtype=float))[order]
        nv = None
        if noise_variances is not None:
            nv = np.atleast_1d(np.asarray(noise_variances, dtype=float))[order]
        return cls(times[order], values, nv, id)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def span(self) -> float:
        """Observation window length t_last - t_first."""
        return float(self.times[-1] - self.times[0])

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only n x n matrix of |t_i - t_j|, computed on first use."""
        t = self.times
        r = np.abs(t[:, None] - t[None, :])
        r.setflags(write=False)
        return r

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable; the cached distances rely
        # on the times never changing, and a cached matrix must stay
        # read-only too.
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Observation-noise description: a single estimated variance or fixed
    per-point variances (e.g. carried over from upstream preprocessing)."""

    kind: str  # "estimated" | "fixed"
    variance: float | None = None
    variances: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind == "estimated":
            if self.variance is None or not self.variance > 0.0:
                raise ValueError("estimated noise variance must be > 0")
        elif self.kind == "fixed":
            if self.variances is None:
                raise ValueError("fixed noise needs per-point variances")
            nv = _readonly(np.atleast_1d(self.variances))
            if not np.all(np.isfinite(nv)) or np.any(nv < 0.0):
                raise ValueError("fixed noise variances must be finite and >= 0")
            object.__setattr__(self, "variances", nv)
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @classmethod
    def estimated(cls, variance: float) -> "NoiseModel":
        return cls(kind="estimated", variance=float(variance))

    @classmethod
    def fixed(cls, variances) -> "NoiseModel":
        return cls(kind="fixed", variances=np.asarray(variances, dtype=float))

    @property
    def is_estimated(self) -> bool:
        return self.kind == "estimated"

    def diagonal(self, n: int) -> np.ndarray:
        """Noise variances as a length-n diagonal."""
        if self.kind == "estimated":
            return np.full(n, float(self.variance))
        if self.variances.shape[0] != n:
            raise ValueError(
                f"fixed noise has {self.variances.shape[0]} variances "
                f"but the series has {n} points"
            )
        return np.array(self.variances, copy=True)
