"""Exact Gaussian-process regression: marginal likelihood, gradients,
posterior prediction and the held-out evaluation metrics.

The latent function has zero prior mean; observations add i.i.d. Gaussian
noise described by a :class:`~shortgp.series.NoiseModel`.  All solves go
through a Cholesky factorization with the kernels module jitter policy, and
the log-determinant comes from the factor diagonal.  Series of a handful of
points are the design target, so everything is dense.

The solves call LAPACK (``dpotrs``, ``dtrtrs``) directly on the factor
rather than through ``scipy.linalg.cho_solve`` and ``solve_triangular``.
At n <= 15 the wrappers' finiteness checks and batch dispatch cost more
than the arithmetic, and a fit evaluates the likelihood a few hundred
times.  The routines and their arguments are the ones the wrappers pass, so
every result is bitwise the same.  The factor comes from a finite matrix
(:func:`~shortgp.kernels.factor_covariance` checks it), the observations
are finite by construction, and the cross-covariance at query times is
checked here.

For the same reason a likelihood call does only the work that depends on
the hyperparameters.  The distance matrix is the series' own, computed once
per series (:attr:`~shortgp.series.TimeSeries.distances`); the identity
that K^-1 is solved from is one cached read-only array per n; K and dK/dl
come from one exponential; estimated noise is added to the diagonal as a
scalar; and without jitter the Gram matrix itself is dK/dlog sf2.  Each of
these gives the bits the direct computation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

from .kernels import KernelSpec, _cov_and_dcov_dl, _cov_array, factor_covariance
from .series import NoiseModel, TimeSeries

__all__ = [
    "Posterior",
    "log_marginal_likelihood",
    "log_marginal_likelihood_and_gradient",
    "posterior_at",
    "predictive_log_likelihood",
    "mse",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Floor applied to predictive variances before taking logs; exact
# interpolation of noise-free data yields variances of zero.
PREDICTIVE_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class Posterior:
    """Posterior moments evaluated at query times.

    ``variance_latent`` is the variance of the noise-free latent function;
    ``variance_observed`` adds the estimated observation-noise variance
    (fixed per-point noise belongs to the training observations, not to new
    query points, so in fixed mode the two coincide).
    """

    times: np.ndarray
    mean: np.ndarray
    variance_latent: np.ndarray
    variance_observed: np.ndarray


@lru_cache(maxsize=32)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _factorize(
    series: TimeSeries, kernel: KernelSpec, noise: NoiseModel, d_length_scale: bool = False
):
    """(gram, dK/dl or None, Cholesky factor of gram + noise, jitter)."""
    n = len(series)
    gram, d_l = _cov_and_dcov_dl(kernel, series.distances, d_length_scale)
    k = gram.copy()
    k.ravel()[:: n + 1] += noise.variance if noise.is_estimated else noise.diagonal(n)
    chol, jitter = factor_covariance(k, kernel.signal_variance)
    return gram, d_l, chol, jitter


def _solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the lower Cholesky factor of K."""
    return dpotrs(chol, b, lower=1)[0]


def _value_and_alpha(y: np.ndarray, chol: np.ndarray) -> tuple[float, np.ndarray]:
    """log p(y) and alpha = K^-1 y from the lower Cholesky factor of K."""
    alpha = _solve(chol, y)
    logdet = 2.0 * float(np.log(chol.diagonal()).sum())
    return float(-0.5 * y @ alpha - 0.5 * logdet - 0.5 * len(y) * _LOG_2PI), alpha


def log_marginal_likelihood(
    series: TimeSeries, kernel: KernelSpec, noise: NoiseModel
) -> float:
    """log p(y) = -1/2 y^T K^-1 y - 1/2 log|K| - n/2 log(2 pi)."""
    chol = _factorize(series, kernel, noise)[2]
    return _value_and_alpha(series.values, chol)[0]


def log_marginal_likelihood_and_gradient(
    series: TimeSeries, kernel: KernelSpec, noise: NoiseModel
) -> tuple[float, np.ndarray]:
    """Marginal likelihood and its gradient in log-parameter coordinates.

    Gradient components are ordered (d/dlog sf2, d/dlog l) plus
    d/dlog sn2 when the noise variance is estimated.  Any jitter added
    during factorization scales with sf2, so the sf2 component stays exact.
    """
    gram, d_l, chol, jitter = _factorize(series, kernel, noise, d_length_scale=True)
    value, alpha = _value_and_alpha(series.values, chol)

    eye = _identity(len(series))
    k_inv = _solve(chol, eye)
    # d log p / d theta = 1/2 tr((alpha alpha^T - K^-1) dK/dtheta)
    inner = alpha[:, None] * alpha - k_inv

    # dK/dlog sf2 is the whole sf2-scaled block, jitter included; gram
    # has no -0.0 entries, so gram + 0 * eye would be gram bit for bit.
    d_sf2 = gram + jitter * eye if jitter else gram
    d_l = kernel.length_scale * d_l
    grad = [0.5 * float((inner * d_sf2).sum()), 0.5 * float((inner * d_l).sum())]
    if noise.is_estimated:
        grad.append(0.5 * noise.variance * float(inner.trace()))
    return value, np.array(grad)


def posterior_at(
    series: TimeSeries,
    kernel: KernelSpec,
    noise: NoiseModel,
    query_times,
) -> Posterior:
    """Posterior mean and variances of the latent function at ``query_times``."""
    q = np.atleast_1d(np.asarray(query_times, dtype=float))
    chol = _factorize(series, kernel, noise)[2]
    alpha = _solve(chol, series.values)
    r_cross = np.abs(q[:, None] - series.times[None, :])
    k_cross = _cov_array(kernel, r_cross)
    if not np.isfinite(k_cross).all():
        raise ValueError("cross-covariance at query_times must be finite")
    mean = k_cross @ alpha
    v = dtrtrs(chol, k_cross.T, lower=1)[0]
    var_latent = np.maximum(kernel.signal_variance - (v * v).sum(axis=0), 0.0)
    var_observed = var_latent + (noise.variance if noise.is_estimated else 0.0)
    return Posterior(
        times=q, mean=mean, variance_latent=var_latent, variance_observed=var_observed
    )


def predictive_log_likelihood(
    series: TimeSeries,
    kernel: KernelSpec,
    noise: NoiseModel,
    test_times,
    test_values,
) -> float:
    """Sum of Gaussian log-densities of ``test_values`` under the latent posterior.

    Scores the noise-free posterior (the targets are true function values,
    not noisy observations).  Variances are floored at
    ``PREDICTIVE_VARIANCE_FLOOR`` before the log.
    """
    post = posterior_at(series, kernel, noise, test_times)
    y = np.atleast_1d(np.asarray(test_values, dtype=float))
    if y.shape != post.mean.shape:
        raise ValueError("test_times and test_values must have equal length")
    var = np.maximum(post.variance_latent, PREDICTIVE_VARIANCE_FLOOR)
    return float(
        np.sum(-0.5 * np.log(2.0 * math.pi * var) - (y - post.mean) ** 2 / (2.0 * var))
    )


def mse(
    series: TimeSeries,
    kernel: KernelSpec,
    noise: NoiseModel,
    test_times,
    true_values,
) -> float:
    """Mean squared difference between posterior mean and true values."""
    post = posterior_at(series, kernel, noise, test_times)
    y = np.atleast_1d(np.asarray(true_values, dtype=float))
    if y.shape != post.mean.shape:
        raise ValueError("test_times and true_values must have equal length")
    return float(np.mean((post.mean - y) ** 2))
