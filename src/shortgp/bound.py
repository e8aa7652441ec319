"""Nyquist spectral-energy lower bound on the kernel length-scale.

Sampling a process at interval dt makes frequencies above the Nyquist
frequency f_n = 1/(2 dt) unidentifiable; f_n is derived from dt alone
(:attr:`SamplingInfo.nyquist_frequency`).  Requiring that a fraction alpha of
the kernel's spectral energy lies inside [-f_n, f_n] therefore yields a
lower bound a_l(alpha) on the length-scale: shorter length-scales would put
identifiable weight on frequencies the sampling grid cannot resolve, which
is the signature of an over-fitted model.

For the squared exponential the band energy has the closed form
erf(pi l / (sqrt(2) dt)) and the bound inverts analytically to

    a_l(alpha) = sqrt(2) erfinv(alpha) / pi * dt    (about 0.8199 dt at 0.99).

For the Matern family the unit-variance spectral density (Rasmussen &
Williams 2006, eq. 4.15) is proportional to

    (1 + t^2 / (2 nu))^-(nu + 1/2),  t = 2 pi l s,

a Student-t density in t with 2 nu degrees of freedom.  The band
|s| <= f_n is |t| <= x with x = pi l / dt, so the band energy is the
two-sided Student-t probability

    P(|t| <= x) = I(x^2 / (x^2 + 2 nu); 1/2, nu),

and the bound inverts the upper tail I(w; nu, 1/2) = 1 - alpha in closed
form, with w = 2 nu / (2 nu + x^2):

    a_l(alpha) = dt / pi * sqrt(2 nu (1 - w) / w),  w = I^-1(1 - alpha; nu, 1/2).

Here I is the regularized incomplete beta function.  (The paper's
hypergeometric expression for the band energy is four times too large; the
test suite pins that erratum.)

``erfinv``, ``betainc`` and ``betaincinv`` are scipy's ufuncs, from the
extension module that :func:`shortgp._compiled.extension` loads without the
``scipy.special`` package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from ._compiled import extension
from .series import _grid_gaps

_ufuncs = extension("special", "_ufuncs")
betainc, betaincinv, erfinv = _ufuncs.betainc, _ufuncs.betaincinv, _ufuncs.erfinv

__all__ = [
    "SamplingInfo",
    "BoundError",
    "delta_t_from_times",
    "se_energy_fraction",
    "matern_energy_fraction",
    "length_scale_bound",
]

DEFAULT_ALPHA = 0.99

_UNIFORM_RTOL = 1e-9
_TAIL_RTOL = 1e-9


class BoundError(RuntimeError):
    """The length-scale bound is not representable in double precision."""


@dataclass(frozen=True)
class SamplingInfo:
    """Sampling interval summary for a time grid.

    The Nyquist frequency is derived from ``delta_t``, not stored.  ``rule``
    records how ``delta_t`` was chosen: ``"min_gap"`` (default, the
    conservative choice yielding the least restrictive bound) or
    ``"median_gap"`` (an optional heuristic; downstream reports flag it as
    a non-default rule).
    """

    delta_t: float
    uniform: bool
    rule: str = "min_gap"

    @property
    def nyquist_frequency(self) -> float:
        """f_n = 1/(2 delta_t), as 0.5 / delta_t: the same bits, and no
        overflow in 2 delta_t for delta_t near the largest float."""
        return 0.5 / self.delta_t


def delta_t_from_times(times, rule: str = "min_gap") -> SamplingInfo:
    """Sampling interval of a strictly increasing time grid (n >= 2).

    The grid must pass the checks of ``TimeSeries`` times: finite, over a
    finite span, strictly increasing.  Non-uniform grids use the shortest
    consecutive gap by default, which is the conservative rule (the least
    restrictive length-scale bound).
    """
    if rule not in ("min_gap", "median_gap"):
        raise ValueError(f"unknown gap rule {rule!r}")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.shape[0] < 2:
        raise ValueError("need at least two observation times")
    gaps = _grid_gaps(t)
    gmin = float(np.min(gaps))
    gmax = float(np.max(gaps))
    uniform = (gmax - gmin) <= _UNIFORM_RTOL * gmax
    dt = gmin if rule == "min_gap" else float(np.median(gaps))
    return SamplingInfo(delta_t=dt, uniform=uniform, rule=rule)


def _clamp_unit(v: float) -> float:
    return min(max(v, 5e-324), float(np.nextafter(1.0, 0.0)))


def se_energy_fraction(length_scale: float, delta_t: float) -> float:
    """Fraction of squared-exponential spectral energy below Nyquist.

    Equals erf(pi * l / (sqrt(2) * dt)); strictly increasing in the
    length-scale and clamped to the open unit interval.
    """
    if not length_scale > 0.0:
        raise ValueError("length_scale must be > 0")
    if not 0.0 < delta_t < math.inf:
        raise ValueError("delta_t must be finite and > 0")
    x = math.pi * length_scale / (math.sqrt(2.0) * delta_t)
    return _clamp_unit(math.erf(x))


def matern_energy_fraction(nu: float, length_scale: float, delta_t: float) -> float:
    """Fraction of Matern spectral energy below Nyquist.

    The two-sided Student-t probability I(x^2 / (x^2 + 2 nu); 1/2, nu) with
    x = pi l / dt; strictly increasing in the length-scale and clamped to
    the open unit interval.
    """
    if not nu > 0.0:
        raise ValueError("nu must be > 0")
    if not length_scale > 0.0:
        raise ValueError("length_scale must be > 0")
    if not 0.0 < delta_t < math.inf:
        raise ValueError("delta_t must be finite and > 0")
    x2 = (math.pi * length_scale / delta_t) ** 2
    return _clamp_unit(float(betainc(0.5, nu, x2 / (x2 + 2.0 * nu))))


@lru_cache(maxsize=256)
def _matern_tail_point(nu: float, alpha: float) -> float:
    """w = I^-1(1 - alpha; nu, 1/2), which does not depend on dt: cached,
    so series of many sampling intervals invert the tail once per
    (nu, alpha).  A BoundError is raised, and not cached, on every call."""
    tail = 1.0 - alpha
    w = float(betaincinv(nu, 0.5, tail))
    # betaincinv saturates silently (at the smallest normal double) when the
    # tail point underflows, as for very rough kernels; a forward evaluation
    # catches that.
    if not abs(float(betainc(nu, 0.5, w)) - tail) <= _TAIL_RTOL * tail:
        raise BoundError(
            f"Matern(nu={nu!r}) bound at alpha={alpha!r} is beyond double "
            "precision"
        )
    return w


def _matern_bound(nu: float, alpha: float, delta_t: float) -> float:
    w = _matern_tail_point(nu, alpha)
    return delta_t / math.pi * math.sqrt(2.0 * nu * (1.0 - w) / w)


def length_scale_bound(
    family: str,
    alpha: float,
    delta_t: float,
    nu: float | None = None,
) -> float:
    """Smallest length-scale that keeps a fraction ``alpha`` of the spectral
    energy below the Nyquist frequency of a grid sampled at ``delta_t``.

    Both families invert in closed form (see the module docstring), and the
    bound scales linearly in ``delta_t``.  Raises BoundError when the Matern
    bound cannot be represented in double precision.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < delta_t < math.inf:
        raise ValueError("delta_t must be finite and > 0")
    if family == kernels.SQUARED_EXPONENTIAL:
        return math.sqrt(2.0) * float(erfinv(alpha)) / math.pi * delta_t
    if family == kernels.MATERN:
        if nu is None or not nu > 0.0:
            raise ValueError("Matern bound needs nu > 0")
        return _matern_bound(float(nu), alpha, delta_t)
    raise ValueError(f"unknown kernel family {family!r}")
