"""Stationary covariance functions, their length-scale derivative and spectral
densities.

Two families are provided: the squared exponential

    k(r) = sf2 * exp(-r^2 / (2 l^2))

and the Matern class

    k(r) = sf2 * 2^(1-nu)/Gamma(nu) * (sqrt(2 nu) r / l)^nu * K_nu(sqrt(2 nu) r / l)

with signal variance ``sf2``, length-scale ``l`` and smoothness ``nu``.
One dispatch on (family, nu), :func:`_evaluate`, serves every kernel: the
elementary closed forms for nu in {1/2, 3/2, 5/2}, the orders supported for
likelihood fitting, and for any other nu > 0 scipy's exponentially scaled
Bessel function in log space (with its small-argument series where the
Bessel function overflows).  Where a Matern decay underflows, K and dK/dl
are exactly 0 (:func:`_zero_where`).

Spectral densities are returned for unit signal variance (sf2 scales the
covariance and the density by the same factor, so it cancels in every
band-energy fraction).

:func:`factor_covariance` calls LAPACK ``dpotrf`` directly rather than
``scipy.linalg.cholesky``: at the n <= 15 this package fits, the wrapper's
validation and batch dispatch cost more than the factorization itself.  The
routine and its arguments are the ones the wrapper would pass, so the factor
is bitwise the same; the square and finite checks are kept explicitly.
``dpotrf`` and ``kve`` come from scipy's extension modules as
:func:`shortgp._compiled.extension` loads them, without the ``scipy.linalg``
and ``scipy.special`` packages.

For the same reason every family evaluates the covariance and its
length-scale derivative in one pass, and takes the distance matrix from the
caller, which computes it once per series
(:attr:`~shortgp.series.TimeSeries.distances`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._compiled import extension
from .series import NoiseModel

dpotrf = extension("linalg", "_flapack").dpotrf
kve = extension("special", "_ufuncs").kve

__all__ = [
    "SQUARED_EXPONENTIAL",
    "MATERN",
    "FITTING_NUS",
    "KernelSpec",
    "FactorizationError",
    "covariance",
    "covariance_matrix",
    "spectral_density",
    "factor_covariance",
]

SQUARED_EXPONENTIAL = "se"
MATERN = "matern"
FITTING_NUS = (0.5, 1.5, 2.5)

_JITTER_INITIAL = 1e-10
_JITTER_MAX = 1e-4


class FactorizationError(RuntimeError):
    """Covariance matrix stayed non-positive-definite after jitter escalation."""


@dataclass(frozen=True)
class KernelSpec:
    """Covariance family plus hyperparameters (immutable value object)."""

    family: str
    signal_variance: float
    length_scale: float
    nu: float | None = None

    def __post_init__(self) -> None:
        if self.family not in (SQUARED_EXPONENTIAL, MATERN):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.signal_variance > 0.0:
            raise ValueError("signal_variance must be > 0")
        if not self.length_scale > 0.0:
            raise ValueError("length_scale must be > 0")
        if self.family == MATERN:
            if self.nu is None or not self.nu > 0.0:
                raise ValueError("Matern kernels need nu > 0")
        elif self.nu is not None:
            raise ValueError("nu applies only to the Matern family")

    @classmethod
    def se(cls, signal_variance: float, length_scale: float) -> "KernelSpec":
        return cls(SQUARED_EXPONENTIAL, signal_variance, length_scale)

    @classmethod
    def matern(
        cls, nu: float, signal_variance: float, length_scale: float
    ) -> "KernelSpec":
        return cls(MATERN, signal_variance, length_scale, nu=float(nu))


def _log_bessel_k(order: float, u):
    """log K_order(u) for u > 0, as log kve(order, u) - u.

    Finite for any order at magnitudes where K itself would overflow or
    underflow; K_(-order) = K_order.  Where kve overflows (a large order at
    a small u) it is the small-argument series of
    :func:`_log_bessel_k_series`.  Off the domain (u <= 0 or NaN) the result
    is non-finite, so callers pass only positive distances; beyond kve's
    argument range (u > 2^30 - 1/2, or inf) it is NaN.
    """
    u = np.asarray(u, dtype=float)
    out = np.array(np.log(kve(order, u)) - u)
    over = np.isposinf(out) & (u > 0.0)
    if over.any():
        out[over] = _log_bessel_k_series(abs(order), u[over])
    return out


def _log_bessel_k_series(order: float, u: np.ndarray) -> np.ndarray:
    """log K_order(u) from 1/2 Gamma(nu) (2/u)^nu sum_k (-u^2/4)^k
    Gamma(nu - k) / (Gamma(nu) k!), nu = order, summed until a term falls
    below machine epsilon of the sum (and for k < nu - 1, short of Gamma's
    poles).  The part of K this leaves out is smaller by about (u/2)^(2 nu),
    below any float wherever kve overflows.  At an order in the hundreds,
    where kve starts to overflow, the terms grow before they decay; a sum
    that cancels to no positive value leaves the result +inf, as kve's was.
    """
    ratio = -0.25 * u * u
    term = np.ones_like(u)
    total = np.ones_like(u)
    k = 0
    while k + 1 < order and (np.abs(term) > np.finfo(float).eps * np.abs(total)).any():
        term = term * ratio / ((order - k - 1.0) * (k + 1.0))
        total += term
        k += 1
    log_total = np.full(u.shape, np.inf)
    np.log(total, out=log_total, where=total > 0.0)
    return math.log(0.5) + math.lgamma(order) + order * (math.log(2.0) - np.log(u)) + log_total


def _cov_and_dcov_dl(spec: KernelSpec, r: np.ndarray, d_length_scale: bool = True):
    """:func:`_evaluate` of ``spec``."""
    return _evaluate(spec.family, spec.nu, spec.signal_variance, spec.length_scale,
                     r, d_length_scale)


def _power(l, k: int):
    """``l ** k``, taken per element as Python floats when ``l`` is an array:
    numpy's array power differs from the float power in the last bit for
    about one l in twenty."""
    if isinstance(l, np.ndarray):
        return np.array([v**k for v in l.ravel().tolist()]).reshape(l.shape)
    return l**k


def _evaluate(
    family: str,
    nu: float | None,
    sf2,
    l,
    r: np.ndarray,
    d_length_scale: bool = True,
    spread: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The covariance over ``r`` and, if ``d_length_scale``, its derivative
    in l (else None), from raw hyperparameters, in one pass: the closed forms
    from one ``exp``, the general order from one u and log u.  Each is
    bitwise what its formula gives on its own.

    ``sf2`` and ``l`` are floats or, for SE and the fitting orders, arrays:
    of shape (B, 1, 1), which give one (B, n, n) covariance per member, or
    of shape (B,) with ``spread``, the number of entries of a flat ``r``
    that each member owns, in order (the ragged batch of
    :func:`shortgp.gp._lml_and_grad_batch`).  A member's own arithmetic (a
    power of l, sqrt(3) / l) runs on its value before it is spread, so every
    element is bitwise what the float call for its member gives.
    """

    def at(x):
        return x if spread is None else np.repeat(x, spread)

    d_l = None
    if family == SQUARED_EXPONENTIAL:
        k = at(sf2) * np.exp(-0.5 * (r / at(l)) ** 2)
        if d_length_scale:
            d_l = k * r * r / at(_power(l, 3))
    elif nu == 0.5:
        k = at(sf2) * np.exp(-r / at(l))
        if d_length_scale:
            d_l = k * r / at(_power(l, 2))
    elif nu == 1.5:
        s = at(sf2)
        u = at(math.sqrt(3.0) / l) * r
        decay = np.exp(-u)
        decayed = None if decay.all() else decay == 0.0
        k = _zero_where(s * (1.0 + u) * decay, decayed)
        if d_length_scale:
            d_l = _zero_where(s * 3.0 * r * r / at(_power(l, 3)) * decay, decayed)
    elif nu == 2.5:
        s = at(sf2)
        u = at(math.sqrt(5.0) / l) * r
        decay = np.exp(-u)
        decayed = None if decay.all() else decay == 0.0
        k = _zero_where(s * (1.0 + u + u * u / 3.0) * decay, decayed)
        if d_length_scale:
            d_l = _zero_where(
                s * (5.0 * r * r / at(3.0 * _power(l, 3))) * (1.0 + u) * decay, decayed
            )
    else:
        # k = c u^nu K_nu(u) with c = sf2 2^(1-nu) / Gamma(nu) and, from
        # d/du [u^nu K_nu(u)] = -u^nu K_(nu-1)(u), dk/dl = c u^(nu+1)
        # K_(nu-1)(u) / l; in log space, so that extreme intermediate
        # magnitudes stay representable.  u = 0 (r = 0, or an r so small
        # that u underflows) gives sf2 and 0; a NaN distance stays NaN.
        u = (math.sqrt(2.0 * nu) / l) * r
        pos = u != 0.0
        u = u[pos]
        log_u = np.log(u)
        log_c = math.log(sf2) + (1.0 - nu) * math.log(2.0) - math.lgamma(nu)
        log_bessel = _log_bessel_k(nu, u)
        decayed = np.isnan(log_bessel) & ~np.isnan(u)
        k = np.full(r.shape, sf2, dtype=float)
        k[pos] = _zero_where(np.exp(log_c + nu * log_u + log_bessel), decayed)
        if d_length_scale:
            d_l = np.zeros(r.shape)
            d_l[pos] = _zero_where(
                np.exp(log_c + (nu + 1.0) * log_u + _log_bessel_k(nu - 1.0, u)) / l,
                decayed,
            )
    return k, d_l


def _cov_array(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """The covariance alone, without the RuntimeWarnings of the entries that
    :func:`_zero_where` zeroes (fits evaluate under their own errstate)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _cov_and_dcov_dl(spec, r, d_length_scale=False)[0]


def _zero_where(values: np.ndarray, decayed: np.ndarray | None) -> np.ndarray:
    """``values`` (K or dK/dl) with 0 where the mask ``decayed`` says the
    Matern decay underflowed: exp(-u) = 0 at orders 3/2 and 5/2, u beyond
    kve's argument range 2^30 - 1/2 at any other order.  There a polynomial
    in u may be inf (inf * 0 is NaN) or kve NaN, while the true value is
    below the smallest float (K < 1e-400000000 for any order up to 1e6).
    ``decayed`` is None where no decay underflowed and no mask was built;
    ``values`` are then left as they are."""
    if decayed is not None:
        values[decayed] = 0.0
    return values


def covariance(spec: KernelSpec, r):
    """Covariance k(r) at separation ``r`` (scalar or array, r >= 0).

    Equals sf2 at r = 0 and decreases monotonically with distance.
    """
    arr = np.abs(np.asarray(r, dtype=float))
    out = _cov_array(spec, np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def covariance_matrix(
    spec: KernelSpec, times, noise: NoiseModel | None = None
) -> np.ndarray:
    """Gram matrix of the kernel over ``times`` plus the noise diagonal.

    ``times`` may contain coincident entries (the result is then merely
    positive semi-definite; see :func:`factor_covariance` for the jitter
    policy applied at factorization time).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    r = np.abs(t[:, None] - t[None, :])
    k = _cov_array(spec, r)
    if noise is not None:
        k[np.diag_indices_from(k)] += noise.diagonal(t.shape[0])
    return k


def factor_covariance(
    matrix: np.ndarray, signal_variance: float
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``matrix`` under the jitter policy.

    Jitter starts at 1e-10 * sf2 on the diagonal and escalates tenfold up to
    1e-4 * sf2; returns (L, jitter_used) or raises FactorizationError once
    the ladder is exhausted.  A matrix that is not square or not finite
    raises ValueError.  Scaling the jitter by the signal variance
    keeps the kernel block of the matrix proportional to sf2, which the
    likelihood gradients rely on.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("covariance matrix must not contain infs or NaNs")
    chol, info = dpotrf(a, lower=1, clean=1)
    if info == 0:
        return chol, 0.0
    jitter = _JITTER_INITIAL
    eye = np.eye(a.shape[0])
    while jitter <= _JITTER_MAX * 1.0000001:
        chol, info = dpotrf(a + jitter * signal_variance * eye, lower=1, clean=1)
        if info == 0:
            return chol, jitter * signal_variance
        jitter *= 10.0
    raise FactorizationError(
        "covariance matrix not positive definite even with jitter "
        f"{_JITTER_MAX:g} * signal_variance"
    )


def spectral_density(spec: KernelSpec, s):
    """Spectral density of the kernel at frequency ``s`` (one input dimension).

    Returned for unit signal variance; multiply by sf2 for the full density.
    The density is even in s and integrates to one over the real line, so
    band integrals are directly interpretable as energy fractions.

    Squared exponential:  S(s) = sqrt(2 pi) l exp(-2 pi^2 l^2 s^2).
    Matern:  S(s) = 2 sqrt(pi) Gamma(nu + 1/2) (2 nu)^nu / (Gamma(nu) l^(2 nu))
                    * (2 nu / l^2 + 4 pi^2 s^2)^-(nu + 1/2).
    """
    arr = np.asarray(s, dtype=float)
    ss = np.atleast_1d(arr)
    l = spec.length_scale
    if spec.family == SQUARED_EXPONENTIAL:
        out = math.sqrt(2.0 * math.pi) * l * np.exp(-2.0 * (math.pi * l * ss) ** 2)
    else:
        nu = spec.nu
        log_norm = (
            math.log(2.0)
            + 0.5 * math.log(math.pi)
            + math.lgamma(nu + 0.5)
            - math.lgamma(nu)
            + nu * math.log(2.0 * nu)
            - 2.0 * nu * math.log(l)
        )
        base = 2.0 * nu / l**2 + 4.0 * (math.pi * ss) ** 2
        out = np.exp(log_norm - (nu + 0.5) * np.log(base))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
