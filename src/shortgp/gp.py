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
checked here (a general-order Matern covariance at a tiny distance rounds an
sf2 near the largest float past it, to inf).  The routines, ``dpotrf``
among them, come from scipy's LAPACK extension as
:func:`shortgp._compiled.extension` loads it, without the ``scipy.linalg``
package.

For the same reason a likelihood call does only the work that depends on
the hyperparameters.  The distance matrix is the series' own, computed once
per series (:attr:`~shortgp.series.TimeSeries.distances`); the identity
that K^-1 is solved from is one cached read-only array per n; K and dK/dl
come from one exponential; estimated noise is added to the diagonal as a
scalar; and without jitter the Gram matrix itself is dK/dlog sf2.  Each of
these gives the bits the direct computation gives.

A fit runs its starts in lockstep (:mod:`~shortgp.fitting`), and so do
the fits of one scenario of many series of one length.
:func:`_lml_and_grad_batch` evaluates the points they ask for together, as
one (B, n, n) problem, from one (B, 2 or 3) array of raw hyperparameters
and the per-member series data (distances, values and fixed variances,
each member's own): no :class:`~shortgp.kernels.KernelSpec` or
:class:`NoiseModel` is built per point.  The kernel, the noise diagonal,
the finiteness check and the reductions run batched; ``dpotrf``,
``dpotrs`` and ``y @ alpha`` run per member, because their batched
counterparts do not give the per-call bits, so no member's bits depend on
its batch-mates.  Each member solves for alpha and K^-1 in one ``dpotrs``
call on [y | I], whose columns each have the bits of their own solve.  A
member whose K is not finite, or whose first factorization fails, is left
to :func:`log_marginal_likelihood_and_gradient`, which owns the jitter
ladder and the errors, so each of them exists once.  Both functions end in
:func:`_value_and_gradient`, the per-call one as a batch of one, and
:func:`log_marginal_likelihood` takes its value from the same solve and
reduction (:func:`_solve_and_value`), so the formula of the value and the
gradient exists once too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compiled import extension
from .kernels import KernelSpec, _cov_and_dcov_dl, _cov_array, _evaluate, factor_covariance
from .series import NoiseModel, TimeSeries

_flapack = extension("linalg", "_flapack")
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs

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
    """(gram, dK/dl or None, Cholesky factor of gram + noise, jitter); only
    the fits, which run under their own errstate, ask for dK/dl."""
    n = len(series)
    if d_length_scale:
        gram, d_l = _cov_and_dcov_dl(kernel, series.distances)
    else:
        gram, d_l = _cov_array(kernel, series.distances), None
    k = gram.copy()
    k.ravel()[:: n + 1] += noise.variance if noise.is_estimated else noise.diagonal(n)
    chol, jitter = factor_covariance(k, kernel.signal_variance)
    return gram, d_l, chol, jitter


def log_marginal_likelihood(
    series: TimeSeries, kernel: KernelSpec, noise: NoiseModel
) -> float:
    """log p(y) = -1/2 y^T K^-1 y - 1/2 log|K| - n/2 log(2 pi)."""
    chol = _factorize(series, kernel, noise)[2]
    return float(_solve_and_value(series.values[None], chol[None])[1][0])


def log_marginal_likelihood_and_gradient(
    series: TimeSeries, kernel: KernelSpec, noise: NoiseModel
) -> tuple[float, np.ndarray]:
    """Marginal likelihood and its gradient in log-parameter coordinates.

    Gradient components are ordered (d/dlog sf2, d/dlog l) plus
    d/dlog sn2 when the noise variance is estimated.  Any jitter added
    during factorization scales with sf2, so the sf2 component stays exact.
    """
    gram, d_l, chol, jitter = _factorize(series, kernel, noise, d_length_scale=True)
    # dK/dlog sf2 is the whole sf2-scaled block, jitter included; gram
    # has no -0.0 entries, so gram + 0 * eye would be gram bit for bit.
    d_sf2 = gram + jitter * _identity(len(series)) if jitter else gram
    values, grads = _value_and_gradient(
        series.values[None],
        chol[None],
        d_sf2[None],
        (kernel.length_scale * d_l)[None],
        [noise.variance] if noise.is_estimated else None,
    )
    return float(values[0]), grads[0]


def _lml_and_grad_batch(
    family: str,
    nu: float | None,
    params: np.ndarray,
    distances: np.ndarray,
    ys: np.ndarray,
    variances: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[bool]]:
    """:func:`log_marginal_likelihood_and_gradient` of B members at once.

    ``params`` is a (B, 2 or 3) array of positive (sf2, l[, sn2]), the
    hyperparameters of an SE or half-integer Matern kernel.  Each member
    has its own series of n points, which may be another member's: its
    distance matrix (B, n, n), its values (B, n) and, for two columns (fixed
    noise), its per-point variances (B, n).  Returns the values (B,), the
    gradients (B, 2 or 3) and, as a list, a mask of the members evaluated
    here.  A member outside the mask has a K that is not finite, or one that
    needs jitter; its row holds no result, and the caller evaluates it
    through :func:`log_marginal_likelihood_and_gradient`.  Every row inside
    the mask is bitwise that function's result on the member's series.
    Raises OverflowError, as that function does, when a member's l^3 or l^2
    overflows a float.
    """
    b, n = ys.shape
    sf2, ls = params[:, :2].T.reshape(2, b, 1, 1)
    sn2 = params[:, 2] if params.shape[1] == 3 else None
    gram, d_l = _evaluate(family, nu, sf2, ls, distances)
    k = gram.copy()
    k.reshape(b, n * n)[:, :: n + 1] += variances if sn2 is None else sn2[:, None]
    ok = np.isfinite(k).all(axis=(1, 2)).tolist()

    # K is exactly symmetric, so each member of the transpose is its own K
    # in Fortran order, which dpotrf factors in place.
    chols = k.transpose(0, 2, 1)
    for i in range(b):
        if ok[i]:
            ok[i] = not dpotrf(chols[i], lower=1, clean=1, overwrite_a=1)[1]
        if not ok[i]:
            # Neutral rows, so that the arithmetic below warns nothing.
            k[i] = _identity(n)
            gram[i] = 0.0
            d_l[i] = 0.0
    values, grads = _value_and_gradient(ys, chols, gram, ls * d_l, sn2)
    return values, grads, ok


def _solve_and_value(ys: np.ndarray, chols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[y | I] solved for each of B members (B, n + 1, n), and log p(y) (B,),
    from their values (B, n) and the lower Cholesky factors of their K
    (B, n, n).

    ``dpotrs`` and ``y @ alpha`` run per member, because their batched
    counterparts do not give the bits of one member's call; the rest runs
    batched.  Each member solves [y | I] in one ``dpotrs`` call, in place,
    in a Fortran-ordered block filled with them beforehand (the assignment
    then copies nothing): alpha = K^-1 y is row 0 of its solution and K^-1
    the rest, transposed.  Each column of a multi-column solve has the bits
    of its own solve.
    """
    b, n = chols.shape[:2]
    half_ys = -0.5 * ys
    solved = np.empty((b, n + 1, n))
    solved[:, 0] = ys
    solved[:, 1:] = _identity(n)
    blocks = solved.transpose(0, 2, 1)
    y_alpha = np.empty(b)
    for i in range(b):
        blocks[i] = dpotrs(chols[i], blocks[i], lower=1, overwrite_b=1)[0]
        y_alpha[i] = half_ys[i] @ solved[i, 0]
    logdet = 2.0 * np.log(chols.diagonal(axis1=1, axis2=2)).sum(axis=1)
    return solved, y_alpha - 0.5 * logdet - 0.5 * n * _LOG_2PI


def _value_and_gradient(
    ys: np.ndarray, chols: np.ndarray, d_sf2: np.ndarray, d_l: np.ndarray, sn2
) -> tuple[np.ndarray, np.ndarray]:
    """log p(y) (B,) and its gradient in log coordinates (B, 2 or 3) for B
    members, from their values (B, n), the lower Cholesky factors of their
    K (B, n, n), dK/dlog sf2 and dK/dlog l; ``sn2`` is the B estimated noise
    variances, or None for fixed noise.  The solves and the value are
    :func:`_solve_and_value`'s.
    """
    b, n = chols.shape[:2]
    solved, values = _solve_and_value(ys, chols)
    alphas = solved[:, 0]
    k_invs = solved.transpose(0, 2, 1)[:, :, 1:]
    # d log p / d theta = 1/2 tr((alpha alpha^T - K^-1) dK/dtheta)
    inner = alphas[:, :, None] * alphas[:, None, :] - k_invs
    grads = np.empty((b, 2 if sn2 is None else 3))
    grads[:, 0] = 0.5 * (inner * d_sf2).reshape(b, n * n).sum(axis=1)
    grads[:, 1] = 0.5 * (inner * d_l).reshape(b, n * n).sum(axis=1)
    if sn2 is not None:
        grads[:, 2] = 0.5 * np.asarray(sn2) * inner.diagonal(axis1=1, axis2=2).sum(axis=1)
    return values, grads


def posterior_at(
    series: TimeSeries,
    kernel: KernelSpec,
    noise: NoiseModel,
    query_times,
) -> Posterior:
    """Posterior mean and variances of the latent function at ``query_times``."""
    q = np.atleast_1d(np.asarray(query_times, dtype=float))
    if not np.isfinite(q).all():
        raise ValueError("query_times must be finite")
    chol = _factorize(series, kernel, noise)[2]
    alpha = dpotrs(chol, series.values, lower=1)[0]
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
    return _held_out_scores(post, test_values, "test_values")[0]


def mse(
    series: TimeSeries,
    kernel: KernelSpec,
    noise: NoiseModel,
    test_times,
    true_values,
) -> float:
    """Mean squared difference between posterior mean and true values."""
    post = posterior_at(series, kernel, noise, test_times)
    return _held_out_scores(post, true_values, "true_values")[1]


def _held_out_scores(post: Posterior, values, name: str) -> tuple[float, float]:
    """(:func:`predictive_log_likelihood`, :func:`mse`) of ``values`` under
    the posterior ``post`` at the test times; ValueError, naming the
    argument ``name``, unless ``values`` has one value per test time."""
    y = np.atleast_1d(np.asarray(values, dtype=float))
    if y.shape != post.mean.shape:
        raise ValueError(f"test_times and {name} must have equal length")
    var = np.maximum(post.variance_latent, PREDICTIVE_VARIANCE_FLOOR)
    log_density = float(
        np.sum(-0.5 * np.log(2.0 * math.pi * var) - (y - post.mean) ** 2 / (2.0 * var))
    )
    return log_density, float(np.mean((post.mean - y) ** 2))
