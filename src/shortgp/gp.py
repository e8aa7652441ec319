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
the fits of one scenario of many series, of any lengths.
:func:`_lml_and_grad_batch` evaluates the points they ask for together,
from one (B, 2 or 3) array of raw hyperparameters and a ragged batch
(:class:`_Batch`) of exactly those B members, which holds their series
data (distances, values and fixed variances, each member's own) and which
the lockstep lays out anew only when the points asked for change: no
:class:`~shortgp.kernels.KernelSpec` or :class:`NoiseModel` is built per
point.  The members are ordered by n, and their n x n blocks lie end to
end in one flat array (:class:`_Ragged`), so the kernel, the noise
diagonal, the finiteness check, alpha alpha^T - K^-1 and the elementwise
products run once over all of them.  Each reduction runs once per run of
members of equal n, as the row sum of a (b_n, n^2) or (b_n, n) view, which
is the row sum of one member's own call; a segmented sum over the flat
array (``np.add.reduceat``) adds in another order and changes bits.
``dpotrf``, ``dpotrs`` and ``y @ alpha`` run per member, because their
batched counterparts do not give the per-call bits, so no member's bits
depend on its batch-mates.  Each member solves for alpha and K^-1 in one
``dpotrs`` call on [y | I], whose columns each have the bits of their own
solve.  A member whose K is not finite, or whose first factorization
fails, keeps neutral blocks in the batch and is left to
:func:`log_marginal_likelihood_and_gradient`, which owns the jitter ladder
and the errors, so each of them exists once.  Both functions end in
:func:`_value_and_gradient`, the per-call one as a batch of one, and
:func:`log_marginal_likelihood` takes its value from the same solve
(:func:`_solve`) and reduction (:func:`_value`), so the formula of the
value and the gradient exists once too.
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
    layout, chol = _ragged((len(series),)), _flat(_factorize(series, kernel, noise)[2])
    y_alpha = _solve(layout, series.values, chol)[1]
    log_diagonal = layout.sums(np.log(chol[layout.diagonal])[None], vectors=True)
    return float(_value(layout, y_alpha, log_diagonal[0])[0])


def _flat(chol: np.ndarray) -> np.ndarray:
    """A lower Cholesky factor as the flat block of a ragged batch: its
    transpose in C order, which is the factor itself in Fortran order."""
    return chol.T.ravel()


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
        _ragged((len(series),)),
        series.values,
        _flat(chol),
        d_sf2.ravel(),
        (kernel.length_scale * d_l).ravel(),
        [noise.variance] if noise.is_estimated else None,
    )
    return float(values[0]), grads[0]


class _Ragged:
    """Where the arrays of B members, of n_1 <= ... <= n_B points, lie in a
    ragged batch.

    Each member's n x n blocks (K and its factor, the Gram matrix, dK/dl,
    the gradient's products) lie end to end in one flat array, each in C
    order; so do its n-vectors (y, alpha, the diagonals), and its
    (n + 1) x n solve of [y | I]: alpha, then K^-1 by columns.  The index
    arrays map one layout to another, so that the kernel, the noise
    diagonal, alpha alpha^T - K^-1 and the products run once on the flat
    arrays.  A reduction runs per run of members of equal n, as a row sum of
    a (b_n, n^2) or (b_n, n) view: the row sum of the call of one member,
    so each member keeps its own bits (``np.add.reduceat`` sums in another
    order).
    """

    def __init__(self, sizes: tuple[int, ...]):
        ns = np.array(sizes)
        b = len(ns)
        sizes = list(sizes)
        self.n = ns
        # entries per member of a block, and the n of each vector entry's
        # member: the repeat counts that spread a member's value over them
        self.squares = ns * ns
        self.vector_n = np.repeat(ns, ns)
        # offsets of each member's block, vector and solve, and one past
        self.blocks = np.concatenate([[0], np.cumsum(self.squares)])
        self.vectors = np.concatenate([[0], np.cumsum(ns)])
        solves = self.blocks + self.vectors
        # per entry of a block: row a and column c; alpha[a] is the
        # vector entry repeated n times, alpha[c] and K^-1[a, c] gathers
        member = np.repeat(np.arange(b), self.squares)
        n_of = ns[member]
        a, c = np.divmod(np.arange(self.blocks[-1]) - self.blocks[member], n_of)
        self.cols = self.vectors[member] + c
        self.k_inv = solves[member] + (c + 1) * n_of + a
        # per entry of a vector: its index i
        i = np.arange(self.vectors[-1]) - np.repeat(self.vectors[:-1], ns)
        self.diagonal = np.repeat(self.blocks[:-1], ns) + i * (self.vector_n + 1)
        self.alpha = np.repeat(solves[:-1], ns) + i
        self.eye = self.alpha + (i + 1) * self.vector_n
        self.solves = solves
        # each member's n and offsets, as Python ints
        self.offsets = list(zip(sizes, self.blocks.tolist(), self.vectors.tolist(), solves.tolist()))
        # each run of equal n: its members [first, end), n, and its span of
        # the blocks and of the vectors
        firsts = [j for j in range(b) if j == 0 or sizes[j] != sizes[j - 1]]
        blocks, vectors = self.blocks.tolist(), self.vectors.tolist()
        self.runs = [
            (first, end, sizes[first], blocks[first], blocks[end], vectors[first], vectors[end])
            for first, end in zip(firsts, [*firsts[1:], b])
        ]

    def sums(self, flat: np.ndarray, vectors: bool = False) -> np.ndarray:
        """The row sums (m, B) of ``flat`` (m, total), whose rows hold one
        block per member, or one vector with ``vectors``: per run of equal
        n, the sum of a (m, b_n, width) view over its last axis."""
        out = np.empty((flat.shape[0], len(self.n)))
        for first, end, n, lo, hi, vector_lo, vector_hi in self.runs:
            if vectors:
                lo, hi, width = vector_lo, vector_hi, n
            else:
                width = n * n
            np.add.reduce(
                flat[:, lo:hi].reshape(-1, end - first, width), axis=2, out=out[:, first:end]
            )
        return out


@lru_cache(maxsize=32)
def _ragged(sizes: tuple[int, ...]) -> _Ragged:
    """The layout of one member of n points, for the per-call likelihood."""
    return _Ragged(sizes)


class _Batch:
    """The series of B members of a ragged batch, laid out once
    (:class:`_Ragged`, in the order of n): their distance matrices, values
    and fixed variances, flat.  A lockstep lays out the problems whose
    points one call of :func:`_lml_and_grad_batch` evaluates."""

    def __init__(self, distances, ys, variances=None):
        sizes = [len(y) for y in ys]
        # the member given at each layout position, and the layout
        # position of each member given
        self.order = sorted(range(len(ys)), key=sizes.__getitem__)
        self.slot = np.argsort(self.order).tolist()
        self.layout = _Ragged(tuple(sizes[i] for i in self.order))
        self.distances = np.concatenate([np.ravel(distances[i]) for i in self.order])
        self.ys = np.concatenate([ys[i] for i in self.order])
        self.variances = (
            None if variances is None else np.concatenate([variances[i] for i in self.order])
        )


def _lml_and_grad_batch(
    family: str, nu: float | None, params: np.ndarray, batch: _Batch
) -> tuple[np.ndarray, np.ndarray, list[bool]]:
    """:func:`log_marginal_likelihood_and_gradient` of the B members of
    ``batch`` at once.

    The members may have any lengths; each has its own series, which may
    be another member's.  ``params`` is a (B, 2 or 3) array of positive
    (sf2, l[, sn2]), one row per member in the order the batch was built
    from, the hyperparameters of an SE or half-integer Matern kernel; two
    columns mean fixed noise, the batch's variances.  Returns the values
    (B,), the gradients (B, 2 or 3) and, as a list, a mask of the members
    evaluated here.  A member outside the mask has a K that is not finite,
    or one that needs jitter; its row holds no result, and the caller
    evaluates it through :func:`log_marginal_likelihood_and_gradient`.
    Every row inside the mask is bitwise that function's result on the
    member's series.  Raises OverflowError, as that function does, when a
    member's l^3 or l^2 overflows a float.

    The kernel, the noise diagonal, the finiteness check, alpha alpha^T -
    K^-1 and the products run once over the whole batch, the reductions
    once per run of equal n (:class:`_Ragged`); ``dpotrf``, ``dpotrs`` and
    ``y @ alpha`` run per member, because their batched counterparts do not
    give the per-call bits.  A member outside the mask keeps neutral blocks
    (K = I, zero derivatives), so that the arithmetic after its
    factorization warns nothing.
    """
    layout = batch.layout
    ordered = params[batch.order]
    sf2, ls = ordered[:, 0], ordered[:, 1]
    sn2 = ordered[:, 2] if params.shape[1] == 3 else None
    gram, d_l = _evaluate(family, nu, sf2, ls, batch.distances, spread=layout.squares)
    k = gram.copy()
    k[layout.diagonal] += batch.variances if sn2 is None else np.repeat(sn2, layout.n)
    # K >= 0, so a finite sum means every entry is finite; otherwise each
    # member is checked (a sum of finite entries may overflow, too)
    finite = (
        None if math.isfinite(np.add.reduce(k))
        else np.logical_and.reduceat(np.isfinite(k), layout.blocks[:-1]).tolist()
    )

    # K is exactly symmetric, so each member's block, in C order, is its
    # own K in Fortran order, which dpotrf factors in place.
    ok = []
    for j, (n, lo, _, _) in enumerate(layout.offsets):
        block = slice(lo, lo + n * n)
        done = (finite is None or finite[j]) and not dpotrf(
            k[block].reshape(n, n).T, lower=1, clean=1, overwrite_a=1
        )[1]
        if not done:
            k[block] = _identity(n).ravel()
            gram[block] = 0.0
            d_l[block] = 0.0
        ok.append(done)
    values, grads = _value_and_gradient(
        layout, batch.ys, k, gram, np.repeat(ls, layout.squares) * d_l, sn2
    )
    return values[batch.slot], grads[batch.slot], [ok[j] for j in batch.slot]


def _solve(layout: _Ragged, ys: np.ndarray, chols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[y | I] solved for each of B members (flat, in ``layout``'s solve
    blocks), and -1/2 y^T alpha (B,), from their values and the lower
    Cholesky factors of their K, flat in ``layout``.

    ``dpotrs`` and ``y @ alpha`` run per member, because their batched
    counterparts do not give the bits of one member's call.  Each member
    solves [y | I] in one ``dpotrs`` call, in place, in a Fortran-ordered
    block filled with them beforehand: alpha = K^-1 y is its first column
    and K^-1 the rest.  Each column of a multi-column solve has the bits of
    its own solve.
    """
    solved = np.zeros(layout.solves[-1])
    solved[layout.alpha] = ys
    solved[layout.eye] = 1.0
    half_ys = -0.5 * ys
    y_alpha = np.empty(len(layout.n))
    for j, (n, lo, v, s) in enumerate(layout.offsets):
        block = solved[s : s + (n + 1) * n]
        dpotrs(chols[lo : lo + n * n].reshape(n, n).T, block.reshape(n + 1, n).T,
               lower=1, overwrite_b=1)
        y_alpha[j] = half_ys[v : v + n] @ block[:n]
    return solved, y_alpha


def _value(layout: _Ragged, y_alpha: np.ndarray, log_diagonal: np.ndarray) -> np.ndarray:
    """log p(y) (B,) from -1/2 y^T alpha and the sums of the log of each
    factor's diagonal: log|K| is twice that sum."""
    return y_alpha - 0.5 * (2.0 * log_diagonal) - 0.5 * layout.n * _LOG_2PI


def _value_and_gradient(
    layout: _Ragged, ys: np.ndarray, chols: np.ndarray, d_sf2: np.ndarray,
    d_l: np.ndarray, sn2
) -> tuple[np.ndarray, np.ndarray]:
    """log p(y) (B,) and its gradient in log coordinates (B, 2 or 3) for B
    members, from their values, the lower Cholesky factors of their K,
    dK/dlog sf2 and dK/dlog l, all flat in ``layout``; ``sn2`` is the B
    estimated noise variances, or None for fixed noise.  The solves are
    :func:`_solve`'s, and the reductions run once per run of equal n.
    """
    solved, y_alpha = _solve(layout, ys, chols)
    alphas = solved[layout.alpha]
    # d log p / d theta = 1/2 tr((alpha alpha^T - K^-1) dK/dtheta)
    inner = np.repeat(alphas, layout.vector_n) * alphas[layout.cols] - solved[layout.k_inv]
    products = np.empty((2, len(inner)))
    np.multiply(inner, d_sf2, out=products[0])
    np.multiply(inner, d_l, out=products[1])
    diagonals = np.empty((1 if sn2 is None else 2, len(ys)))
    np.log(chols[layout.diagonal], out=diagonals[0])
    if sn2 is not None:
        diagonals[1] = inner[layout.diagonal]
    diagonal_sums = layout.sums(diagonals, vectors=True)
    grads = np.empty((len(layout.n), 2 if sn2 is None else 3))
    grads[:, :2] = (0.5 * layout.sums(products)).T
    if sn2 is not None:
        grads[:, 2] = 0.5 * np.asarray(sn2) * diagonal_sums[1]
    return _value(layout, y_alpha, diagonal_sums[0]), grads


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
