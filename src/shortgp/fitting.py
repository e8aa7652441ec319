"""Bounded maximum-likelihood hyperparameter estimation.

Each fit maximizes the log marginal likelihood over z = log(sf2, l[, sn2])
with L-BFGS-B.  The scenario's box on each parameter is handed to L-BFGS-B
as the log of that box (no bound where the box edge is 0 or infinity), so
an optimum on a face of the box is reached, not approached.  The likelihood
gradient is already in log coordinates, so the objective needs no chain
factor.  Mapped back to natural units, a z on a face (or within 1e-6 of it)
gives exactly that bound and any other z its exp, so every returned
parameter lies inside its box exactly, and one that sits on a bound sits on
it exactly.  Starts, convergence thresholds and tie-breaking are all
deterministic: no fit draws a random number.

The likelihood of a short series is multimodal, so the start decides which
optimum a fit finds.  A fit starts from the argmax of a 64 x 64 grid of
length-scale and noise-to-signal ratio lambda = sn2 / sf2
(:func:`_grid_starts`).  One ``eigh`` of the correlation matrix per grid
length-scale serves every ratio, every series and every length-scale box
of one time grid: a box reads the grid's length-scales inside it, plus one
length-scale at each finite, nonzero edge (the Nyquist floor a_l).  With
estimated or bounded noise the grid profiles sf2 in closed form per cell;
with fixed per-point noise it stands their mean d for the noise, so sf2 =
d / lambda, which is exact when every variance is d.  L-BFGS-B then
polishes the grid's best cell on the exact likelihood.  A fit can be
given ``extra_starts`` too; each runs as a problem of its own (see below).
The eigendecompositions, and each series' quadratic forms over the grid,
can be kept in a dict (``spectra``) that later fits of the same time grid
reuse; the harness keeps one per group of series.  The grid also gives
:func:`likelihood_surface` its profiled signal variance.

Each run drives L-BFGS-B's reverse-communication routine ``setulb``
directly (:func:`_lbfgsb`) rather than through ``scipy.optimize.minimize``.
At n <= 15 the wrapper's per-call bookkeeping (its scalar-function object,
gradient memo and array checks) cost more than the likelihood itself.  The
loop mirrors scipy's ``_minimize_lbfgsb`` for this problem: the same memory,
line-search limit, tolerances, bound encoding, start clipping and memo of
the last evaluated point, so iterates, ``nit`` and ``nfev`` are scipy's.
``setulb`` is loaded from its extension file
(:func:`shortgp._compiled.extension`), so no module imports the
``scipy.optimize`` package and its solvers.

Runs go in lockstep (:func:`_minimize_lockstep`): one ``setulb`` state
per run, advanced together round by round.  Each round every running
member goes on until it asks for a new point or stops, and the points
asked for are evaluated by one objective.  It maps each point to natural
units once and hands two or more of them to
:func:`shortgp.gp._lml_and_grad_batch` as one parameter array, which
shares the Python glue and the small-array work of a likelihood call among
the members.  The batch gives each member the bits a
call of its own gives, so every run takes the path it takes alone.  A lone
point, and a member whose K is not finite or needs jitter, go to
:func:`shortgp.gp.log_marginal_likelihood_and_gradient`: a batch of one
costs more than a call, and that function owns the jitter ladder and the
errors.

The lockstep runs over problems: :func:`_lockstep` fits any number of
(series, scenario) problems at once, one start and one L-BFGS-B run per
problem.  A problem starts from its grid argmax, taken from the spectra of
its time grid and box edges, or from a start the caller gives, and a
round's points from series of one length and one noise mode go to one
batched call.  :func:`fit` makes one problem for its grid start and one
sibling problem (same series and scenario) per extra start, in one
lockstep, and keeps the best run.  The harness makes one call per stage, to
:func:`_fit_problems`: one scenario of many series of one length, with one
dict of spectra for all the stages of a group.  An evaluation that
overflows a float (a power of a huge length-scale) is a failed evaluation;
a batched call that overflows leaves its members to the per-call path, so
that only the members that overflow there fail.

Three paths are kept for the benchmark's spans (``bench/spans.py``), which
wrap ``fit``, ``minimize`` and the per-call likelihood by name: a lone
problem goes through :func:`fit`, a lone point through the per-call
likelihood (cheaper, too, than a batch of one), and :func:`minimize`, which
no fit calls, is the lockstep's one-member case.  They can go once the
benchmark times the engine's stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import bound, gp
from ._compiled import extension
from .kernels import (
    FITTING_NUS,
    MATERN,
    SQUARED_EXPONENTIAL,
    FactorizationError,
    KernelSpec,
    _evaluate,
)
from .series import NoiseModel, TimeSeries

__all__ = [
    "Scenario",
    "FitResult",
    "Diagnostics",
    "AllStartsFailedError",
    "fit",
    "diagnose",
    "make_scenarios",
    "make_expression_scenarios",
    "SCENARIO_SETS",
    "result_noise_model",
    "likelihood_surface",
]

NOISE_ESTIMATED = "estimated"
NOISE_BOUNDED = "bounded"
NOISE_FIXED = "fixed"

SYNTHETIC_NOISE_BOUNDS = (0.01, 0.1)
DEFAULT_RESTARTS = 1

_MAX_ITER = 500
_GRAD_TOL = 1e-6
_OBJ_REL_TOL = 1e-10
_TIE_TOL = 1e-10
_FAILED_OBJECTIVE = 1e25
_ACTIVE_RTOL = 1e-6
_LBFGS_MEMORY = 10  # scipy's maxcor
_MAX_LINE_SEARCH = 20  # scipy's maxls
_MAX_FUN = 15000  # scipy's maxfun
# setulb's bound type per (has lower, has upper)
_NBD = {(False, False): 0, (True, False): 1, (True, True): 2, (False, True): 3}


# L-BFGS-B's reverse-communication routine, of scipy's C translation (scipy
# >= 1.15: integer task and ln_task, no csave or iprint).  The module is
# private; tests/test_fit.py::TestDriverMatchesScipyMinimize guards it: every
# fit's runs must equal scipy.optimize.minimize's bitwise.
_setulb = extension("optimize", "_lbfgsb").setulb


class AllStartsFailedError(RuntimeError):
    """Every start's run hit a factorization failure or returned no optimum."""


@dataclass(frozen=True)
class Scenario:
    """One constraint configuration for maximum-likelihood fitting.

    ``length_scale_lower`` of 0 means positivity only; ``noise_mode`` is one
    of "estimated" (free sn2 > 0), "bounded" (sn2 in
    [noise_lower, noise_upper]) or "fixed" (per-point variances taken from
    the series).

    The scenario's box (:attr:`box`) is the (lower, upper) interval of the
    length-scale, then of the noise variance unless the series fixes the
    noise: (0, inf) for estimated noise, (noise_lower, noise_upper) for
    bounded noise.  A lower edge of 0 and an upper edge of inf are no bound.
    Fitting optimizes inside this box, and a fit of one scenario serves
    another exactly when it lies in that scenario's box.
    """

    label: str
    length_scale_lower: float = 0.0
    length_scale_upper: float = math.inf
    noise_mode: str = NOISE_ESTIMATED
    noise_lower: float | None = None
    noise_upper: float | None = None

    def __post_init__(self) -> None:
        if self.length_scale_lower < 0.0:
            raise ValueError("length-scale lower bound must be >= 0")
        if not self.length_scale_upper > self.length_scale_lower:
            raise ValueError("length-scale bounds give an empty interval")
        if self.noise_mode not in (NOISE_ESTIMATED, NOISE_BOUNDED, NOISE_FIXED):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.noise_mode == NOISE_BOUNDED:
            if self.noise_lower is None or self.noise_upper is None:
                raise ValueError("bounded noise needs both bounds")
            if not 0.0 < self.noise_lower < self.noise_upper:
                raise ValueError("bounded noise needs 0 < lower < upper")

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        """The (lower, upper) interval of l, then of sn2 unless it is fixed."""
        length_scale = (self.length_scale_lower, self.length_scale_upper)
        if self.noise_mode == NOISE_FIXED:
            return (length_scale,)
        if self.noise_mode == NOISE_BOUNDED:
            return (length_scale, (self.noise_lower, self.noise_upper))
        return (length_scale, (0.0, math.inf))

    def holds(self, length_scale: float, noise_variance: float | None) -> bool:
        """Whether a fit of the same series, with ``noise_variance`` None
        for the series' own fixed noise, is a point of this box."""
        point = (length_scale,) if noise_variance is None else (length_scale, noise_variance)
        return len(point) == len(self.box) and all(
            lo <= value <= hi for value, (lo, hi) in zip(point, self.box)
        )

    def contains(self, other: "Scenario") -> bool:
        """Whether this box contains ``other``'s box; fixed noise contains
        only fixed noise, and is contained only by it."""
        return len(self.box) == len(other.box) and all(
            lo <= inner_lo and inner_hi <= hi
            for (lo, hi), (inner_lo, inner_hi) in zip(self.box, other.box)
        )


@dataclass(frozen=True)
class FitResult:
    """Best constrained maximum-likelihood solution among a fit's runs.

    ``restarts_used`` counts the runs that ended on a usable point: at most
    1, the grid start's, plus one per extra start."""

    kernel: KernelSpec
    noise_variance: float | None  # None when the scenario fixes per-point noise
    log_marginal_likelihood: float
    bound_lower_active: dict[str, bool]
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class Diagnostics:
    """Over-fit symptoms of a fitted model."""

    length_scale_below_bound: bool
    tiny_noise: bool
    thresholds: dict[str, float] = field(default_factory=dict)


def _make_kernel(family: str, nu: float | None, sf2: float, l: float) -> KernelSpec:
    if family == MATERN:
        return KernelSpec.matern(nu, sf2, l)
    return KernelSpec.se(sf2, l)


def _check_family(family: str, nu: float | None) -> None:
    """Raise ValueError unless :func:`fit` supports the kernel family and nu."""
    if family == MATERN:
        if nu not in FITTING_NUS:
            raise ValueError(
                f"Matern fitting supports nu in {FITTING_NUS}; got {nu!r}"
            )
    elif family != SQUARED_EXPONENTIAL:
        raise ValueError(f"unknown kernel family {family!r}")
    elif nu is not None:
        raise ValueError("nu applies only to the Matern family")


def _no_fit_reason(series: TimeSeries, scenario: Scenario) -> str | None:
    """Why ``scenario`` has no maximum-likelihood fit on ``series``, or None.

    A series of fewer than two points has no sampling interval, and fixed
    noise needs the series' per-point variances.  On a constant series
    (var y = 0, tested as all values equal, which the rounding of a computed
    variance could miss) estimated noise has no maximum: the likelihood
    grows without bound as sn2 -> 0 and l -> inf (for y = 0, as sf2 and
    sn2 -> 0 at any l), and a fit would report wherever its ascent stalled.
    Bounded and fixed noise, and a finite length-scale box on a nonzero
    constant, keep the likelihood bounded.  Values whose sample variance
    overflows a float (about 1e154 or larger) have no starting point: their
    squares, and so the quadratic forms of the start's grid, overflow.
    """
    if len(series) < 2:
        return "fitting needs at least two observations"
    if scenario.noise_mode == NOISE_FIXED and series.noise_variances is None:
        return "scenario fixes per-point noise but the series has no variances"
    if series.sample_variance == math.inf:
        return "the sample variance of the values overflows a float"
    y = series.values
    if (
        scenario.noise_mode == NOISE_ESTIMATED
        and np.ptp(y) == 0.0
        and (scenario.length_scale_upper == math.inf or y[0] == 0.0)
    ):
        return "estimated noise has no maximum-likelihood fit on a constant series"
    return None


def fit(
    series: TimeSeries,
    family: str,
    scenario: Scenario,
    nu: float | None = None,
    restarts: int = DEFAULT_RESTARTS,
    extra_starts=(),
    *,
    spectra: dict | None = None,
) -> FitResult:
    """Constrained maximum-likelihood fit of (sf2, l[, sn2]) for one series.

    Runs L-BFGS-B ascents in the log box of ``scenario``, each from a start
    clipped into the box: the argmax of the likelihood over a grid of
    length-scale and noise-to-signal ratio (:func:`_grid_starts`), and any
    ``extra_starts``, given as (sf2, l, sn2) triples in natural space (sn2
    ignored for fixed noise).  Each start is one problem of one
    :func:`_lockstep`, with one run: the grid start's, and a sibling
    problem of the same series and scenario per extra start.  ``spectra``,
    a dict, keeps the grid's eigendecompositions for later fits of the same
    time grid (see :func:`_grid_starts`); it changes no bit of the fit.
    ``restarts`` is accepted only for the benchmark's spans, which read it;
    it changes no fit.  A length-scale or noise variance within a relative
    1e-6 of a bound is returned as exactly that bound.  The best run wins;
    likelihood ties below 1e-10 go to the smaller length-scale, then the
    smaller noise variance, so the result does not depend on enumeration
    order.  Deterministic given (series, scenario).

    An evaluation whose factorization fails, whose likelihood is not
    finite, that overflows a float (l^3, or l^2 under Matern 1/2, beyond
    the largest float: l of about 5.6e102, or 1.3e154, or more) or whose
    point z is NaN (an L-BFGS-B step that overflowed) is a failed
    evaluation, of a value worse than any likelihood, and a run that
    ends on such a point is dropped.
    An infinite coordinate of z is no failure: like any other z beyond 230
    in size, it is evaluated at exp(+-230), or at the box's bound where the
    box lies beyond.  So the parameters are not unit-free: on values around
    1e100 or larger, sf2 (at most e^230, about 7.7e99) cannot reach var(y),
    and every run fails; so does every run of a scenario whose
    length-scale floor overflows, as the Nyquist floor of times about 1e103
    or more apart does.
    Raises AllStartsFailedError when no run ends on a usable point, and
    ValueError for a series the scenario cannot be fitted to: fewer
    than two points, fixed noise without per-point variances, values whose
    sample variance overflows a float, or estimated noise on a constant
    series, whose likelihood has no maximum; and for an extra start whose
    sf2 or l, or whose sn2 where the noise is estimated, is not finite and
    > 0 (such a start could only fail, or be clipped into the box).  Each
    of these is raised before any grid is built or run started.
    """
    starts = [None, *extra_starts]
    runs = _lockstep([(series, scenario)] * len(starts), family, nu, spectra, starts)
    usable = [run for run in runs if run is not None]
    if not usable:
        raise AllStartsFailedError(
            f"all {len(starts)} starts failed for scenario {scenario.label!r}"
        )
    best = usable[0]
    for run in usable[1:]:
        if _beats(run, best):
            best = run
    return replace(best, restarts_used=len(usable))


def _beats(a: FitResult, b: FitResult) -> bool:
    """Whether fit ``a`` wins over ``b``, of the same problem: a higher
    likelihood by more than 1e-10, or within 1e-10 a smaller length-scale,
    then a smaller noise variance."""
    if abs(a.log_marginal_likelihood - b.log_marginal_likelihood) > _TIE_TOL:
        return a.log_marginal_likelihood > b.log_marginal_likelihood
    return (a.kernel.length_scale, a.noise_variance or 0.0) < (
        b.kernel.length_scale, b.noise_variance or 0.0
    )


class _Problem:
    """The set-up of one (series, scenario) of :func:`_lockstep`: the box
    in natural units and its log, the one start, and the map of a point z
    back into the box."""

    def __init__(self, series, family, scenario, nu, start=None):
        reason = _no_fit_reason(series, scenario)
        if reason is not None:
            raise ValueError(reason)
        _check_family(family, nu)
        self.series = series
        self.scenario = scenario
        # The box of each optimized parameter in natural units, and its log.
        self.boxes = [(0.0, math.inf), *scenario.box]
        self.estimate_noise = scenario.noise_mode != NOISE_FIXED
        self.fixed_noise = (
            None if self.estimate_noise else NoiseModel.fixed(series.noise_variances)
        )
        self.log_box = [
            (math.log(lo) if lo > 0.0 else None, math.log(hi) if hi < math.inf else None)
            for lo, hi in self.boxes
        ]
        # (sf2, l, sn2) in natural units, or None until _lockstep puts the
        # grid start here (_grid_starts).
        if start is not None:
            sf2, l, sn2 = start
            given = [sf2, l] + ([sn2] if self.estimate_noise and sn2 is not None else [])
            if not all(0.0 < float(v) < math.inf for v in given):
                raise ValueError(
                    f"start {tuple(start)!r}: sf2, l and an estimated sn2 must be finite and > 0"
                )
            start = (float(sf2), float(l), float(sn2) if sn2 is not None else 1e-2)
        self.start = start

    def z0(self) -> np.ndarray:
        """The start as a point z, clipped into the box."""
        return np.array([
            math.log(min(max(v, lo, 1e-300), hi, 1e300))
            for v, (lo, hi) in zip(self.start, self.boxes)
        ])

    def natural(self, z: np.ndarray) -> list[float] | None:
        """(sf2, l[, sn2]) at z, or None for a NaN z: a failed evaluation.

        A z on a face of the log box, or within _ACTIVE_RTOL of it, is
        exactly that bound, not the exp of its log, which rounds to either
        side of it.  L-BFGS-B's projected-gradient test can stop within gtol
        of a face without reaching it; the band puts such a stop on the
        face, so a fit that lower_bounds_active calls active is on it.  Any
        other z lies more than the band inside the box, and so does its exp.
        A z beyond 230 in size is taken as +-230, and a box beyond e^+-230
        takes the bound nearest e^+-230, so that the point stays in the box.
        """
        out = []
        for zi, (lo, hi), (zlo, zhi) in zip(z.tolist(), self.boxes, self.log_box):
            if zlo is not None and zi <= zlo + _ACTIVE_RTOL:
                out.append(lo)
            elif zhi is not None and zi >= zhi - _ACTIVE_RTOL:
                out.append(hi)
            elif -230.0 <= zi <= 230.0:
                out.append(math.exp(zi))
            elif math.isnan(zi):
                return None
            else:
                out.append(min(max(math.exp(math.copysign(230.0, zi)), lo), hi))
        return out

    def result(self, run, family: str, nu: float | None) -> FitResult | None:
        """The fit that the problem's run ended on, or None when that point
        is not usable."""
        params = self.natural(run.x)
        if params is None or not math.isfinite(run.fun) or run.fun >= _FAILED_OBJECTIVE * 0.5:
            return None
        sf2, l, *sn2 = params
        sn2 = sn2[0] if self.estimate_noise else None
        return FitResult(
            kernel=_make_kernel(family, nu, sf2, l),
            noise_variance=sn2,
            log_marginal_likelihood=-float(run.fun),
            bound_lower_active=lower_bounds_active(self.scenario, l, sn2),
            restarts_used=1,
            converged=bool(run.success),
        )


def _failed(size: int) -> tuple[float, np.ndarray]:
    """The (value, gradient) of a failed evaluation."""
    return _FAILED_OBJECTIVE, np.zeros(size)


def _fit_problems(
    problems, family: str, nu: float | None, spectra: dict | None = None
) -> list:
    """The own fit of every (series, scenario) in ``problems``, None where
    every run failed, in one :func:`_lockstep` that reads and fills
    ``spectra``.  A lone problem goes through :func:`fit`, with the same
    bits: the benchmark's spans wrap ``fitting.fit``, and every stage of
    ``bench/test_bench.py``'s runs is a lone problem, as they hold one
    series per length."""
    if len(problems) > 1:
        return _lockstep(problems, family, nu, spectra=spectra)
    [(series, scenario)] = problems
    try:
        return [fit(series, family, scenario, nu=nu, spectra=spectra)]
    except AllStartsFailedError:
        return [None]


# The likelihood grid of a fit's start: _GRID_SIZE length-scales of the
# time grid, log-spaced from a twentieth of its smallest gap to _GRID_SPANS
# spans, by _GRID_SIZE noise-to-signal ratios lambda = sn2 / sf2.
_GRID_SIZE = 64
_GRID_SPANS = 100.0
_GRID_RATIOS = np.logspace(-8.0, 3.0, _GRID_SIZE)


def _grid_length_scales(series: TimeSeries) -> np.ndarray:
    """The start grid's length-scales on ``series``' time grid."""
    lo = series.sampling.delta_t / 20.0
    hi = min(_GRID_SPANS * series.span, 1e300)
    return np.geomspace(lo, max(hi, lo), _GRID_SIZE)


def _correlation_eigh(family: str, nu: float | None, distances, length_scales):
    """The eigenvalues e, clipped at 0, and eigenvectors V of the
    unit-variance correlation matrix C_l = V diag(e) V^T at each of L
    length-scales, from one batched ``eigh``: (L, n) and (L, n, n)."""
    with np.errstate(over="ignore", invalid="ignore"):
        corr = _evaluate(family, nu, 1.0, length_scales[:, None, None], distances, False)[0]
    e, v = np.linalg.eigh(corr)
    return np.maximum(e, 0.0), v


@dataclass
class _Spectrum:
    """What the start grid needs of one time grid at L length-scales: the
    length-scales (L,), the eigenvalues e (L, n) and eigenvectors V
    (L, n, n) of C_l, log|C_l + lambda I| (L, lambda), and each series'
    q = y^T (C_l + lambda I)^-1 y (L, lambda), keyed by the bytes of its
    values.  A time grid has one at the grid's 64 length-scales, and one at
    each length-scale box edge that its problems read (see
    :func:`_grid_starts`).

    q is cached per series because every scenario of the series reads it.
    Computing q per problem, from a reciprocal array kept here or rebuilt
    per call, gives the same bits but lost about 7 % of ``batch`` fits/s
    (2-core VM).  The cache costs 64 x 64 floats per series, and 64 per
    series and box edge, for a group's life: ``run_batch`` of 256 series of
    15 points on one time grid (the ``synthetic`` set, one group) peaks at
    62.2 MB RSS, against 63.5 MB when q was kept per series and
    length-scale box (``resource.getrusage`` in a fresh interpreter)."""

    length_scales: np.ndarray
    e: np.ndarray
    v: np.ndarray
    logdet: np.ndarray
    q: dict = field(default_factory=dict)

    @classmethod
    def build(cls, family: str, nu: float | None, series: TimeSeries,
              length_scales: np.ndarray) -> "_Spectrum":
        """The spectrum of ``series``' time grid at ``length_scales``; q is
        filled later."""
        e, v = _correlation_eigh(family, nu, series.distances, length_scales)
        # log|C_l + lambda I| one eigenvalue at a time, so that the grid's
        # one (l, i, lambda) array is 1 / (e_i + lambda)
        logdet = np.log(e[:, 0, None] + _GRID_RATIOS)
        term = np.empty_like(logdet)
        for i in range(1, len(series)):
            np.add(e[:, i, None], _GRID_RATIOS, out=term)
            logdet += np.log(term, out=term)
        return cls(length_scales, e, v, logdet)

    def fill(self, series_set) -> None:
        """q of every series of ``series_set`` that has none yet.  The
        (l, i, lambda) array of 1 / (e_i + lambda) is built only here, and
        not kept.  Per series, so that its bits do not depend on the other
        series; values near the largest float overflow q, and such cells
        lose."""
        missing = {
            key: s.values for s in series_set if (key := s.values.tobytes()) not in self.q
        }
        if not missing:
            return
        inverse = self.e[:, :, None] + _GRID_RATIOS
        np.reciprocal(inverse, out=inverse)
        with np.errstate(over="ignore", invalid="ignore"):
            for key, y in missing.items():
                p2 = (y @ self.v) ** 2
                self.q[key] = (p2[:, None, :] @ inverse)[:, 0]


def _grid_starts(
    setups: list[_Problem], family: str, nu: float | None, spectra: dict | None = None
) -> list[tuple]:
    """The start (sf2, l, sn2) of each problem, with the grid's log
    marginal likelihood there as a fourth element: the argmax over the
    length-scales of its box by ``_GRID_RATIOS``.

    With lambda = sn2 / sf2, K = sf2 (C_l + lambda I).  With
    C_l = V diag(e) V^T and p = V^T y, y^T (C_l + lambda I)^-1 y is
    q = sum p_i^2 / (e_i + lambda) and log|C_l + lambda I| is
    sum log(e_i + lambda).  At fixed (l, lambda) the likelihood is unimodal
    in sf2, with its maximum at q / n, so in a noise box [a, b] (sn2 =
    lambda sf2) the best sf2 is q / n clipped to [a / lambda, b / lambda].
    Fixed per-point noise D shares no eigenbasis with C_l, so its cells
    stand the mean variance d for D: sf2 = d / lambda, exact when every
    variance is d.  Where d is 0 they take the estimated-noise profile
    sf2 = q / n.

    One ``eigh`` per grid length-scale thus serves every ratio, every
    series and every length-scale box of one time grid.  A box [lo, hi]
    reads the grid's length-scales that lie in it, and one length-scale at
    each of its edges that is finite and nonzero (the floor a_l, and the
    ceiling of a box with a finite upper edge), in ascending order.  The
    :class:`_Spectrum` of each time grid, and of each (time grid, edge), is
    kept in ``spectra`` (a dict, or a new one), so a later call reuses it,
    and each series' q in it.  A start depends on its own series and
    scenario alone, not on its group-mates or on what ``spectra`` held;
    ties go to the smaller l, then the smaller lambda.
    """
    if spectra is None:
        spectra = {}
    # The keys of the spectra each problem reads, in ascending l: its
    # floor's (when the box has one), its time grid's, its ceiling's (when
    # the box has one).  An edge's key ends with its length-scale.
    keys = []
    members: dict[tuple, list[TimeSeries]] = {}
    for setup in setups:
        grid = (family, nu, setup.series.times.tobytes())
        lo, hi = setup.scenario.box[0]
        floor = [(*grid, lo)] if lo > 0.0 else []
        ceiling = [(*grid, hi)] if hi < math.inf else []
        keys.append([*floor, grid, *ceiling])
        for key in keys[-1]:
            members.setdefault(key, []).append(setup.series)
    for key, series_set in members.items():
        if key not in spectra:
            first = series_set[0]
            ls = np.array(key[3:]) if key[3:] else _grid_length_scales(first)
            spectra[key] = _Spectrum.build(family, nu, first, ls)
        spectra[key].fill(series_set)
    starts = []
    for own, setup in zip(keys, setups):
        series, scenario = setup.series, setup.scenario
        n = len(series)
        lo, hi = scenario.box[0]
        y = series.values.tobytes()
        parts = []
        for key in own:
            spectrum = spectra[key]
            ls = spectrum.length_scales
            # the rows in [lo, hi], as ls ascends
            rows = slice(np.searchsorted(ls, lo), np.searchsorted(ls, hi, "right"))
            parts.append((ls[rows], spectrum.logdet[rows], spectrum.q[y][rows]))
        ls, logdet, q = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mean_noise = 0.0 if setup.estimate_noise else float(np.mean(series.noise_variances))
            if mean_noise > 0.0:
                sf2 = np.broadcast_to(mean_noise / _GRID_RATIOS, q.shape)
            else:
                sf2 = q / n
            if scenario.noise_mode == NOISE_BOUNDED:
                sf2 = np.clip(sf2, scenario.noise_lower / _GRID_RATIOS,
                              scenario.noise_upper / _GRID_RATIOS)
            lml = -0.5 * (q / sf2 + n * np.log(sf2) + logdet + n * gp._LOG_2PI)
        lml[np.isnan(lml)] = -np.inf
        j, k = divmod(int(np.argmax(lml)), _GRID_SIZE)
        best = float(sf2[j, k])
        starts.append(
            (best, float(ls[j]), float(_GRID_RATIOS[k] * best), float(lml[j, k]))
        )
    return starts


def _lockstep(
    problems, family: str, nu: float | None, spectra: dict | None = None, starts=None
) -> list[FitResult | None]:
    """The fit of every (series, scenario) in ``problems``, one L-BFGS-B run
    each, all in one lockstep; None where the run ended on no usable point.
    Raises ValueError where :func:`fit` does, before any grid is built or
    run started.

    ``starts`` holds one start per problem, an (sf2, l, sn2) triple in
    natural space (sn2 ignored for fixed noise), or None for the problem's
    grid start (:func:`_grid_starts`, which reads and fills ``spectra``);
    without ``starts`` every problem starts from its grid.  The problems'
    series have one length, and their scenarios one noise mode (fixed or
    estimated); else ValueError.  A problem's start depends on its own
    series and scenario alone.  Each round, the points asked for are mapped
    to natural units once and go to the batched likelihood as one call,
    whatever problem they come from; a member gets the bits of its own
    evaluation, so each result is that of the problem's run alone.  A lone
    point, and a member that the batch leaves (K not finite, or jitter
    needed), go to :func:`shortgp.gp.log_marginal_likelihood_and_gradient`,
    which owns the jitter ladder and the errors.  A batched call that
    overflows a float leaves every member to it, so that only the members
    that overflow there fail.
    """
    setups = [
        _Problem(series, family, scenario, nu, start)
        for (series, scenario), start in zip(problems, starts or [None] * len(problems))
    ]
    if len({(len(setup.series), setup.estimate_noise) for setup in setups}) > 1:
        raise ValueError("problems of one lockstep need one series length and noise mode")
    gridded = [setup for setup in setups if setup.start is None]
    for setup, start in zip(gridded, _grid_starts(gridded, family, nu, spectra)):
        setup.start = start[:3]
    # The series data of the batched likelihood, one row per problem.
    distances = np.array([setup.series.distances for setup in setups])
    ys = np.array([setup.series.values for setup in setups])
    variances = (
        None
        if setups[0].estimate_noise
        else np.array([setup.series.noise_variances for setup in setups])
    )

    def objective(members: list[int], zs: list[np.ndarray]) -> list:
        # (-log p, -gradient) at each member's z, each z mapped once.
        params = [setups[m].natural(z) for m, z in zip(members, zs)]
        batched = [i for i, p in enumerate(params) if p is not None]
        out = [None] * len(zs)
        if len(batched) > 1:
            rows = [members[i] for i in batched]
            try:
                values, grads, ok = gp._lml_and_grad_batch(
                    family,
                    nu,
                    np.array([params[i] for i in batched]),
                    distances.take(rows, 0),
                    ys.take(rows, 0),
                    None if variances is None else variances.take(rows, 0),
                )
            except OverflowError:
                pass
            else:
                for i, value, grad, done in zip(batched, (-values).tolist(), -grads, ok):
                    if done:
                        out[i] = (value, grad) if math.isfinite(value) else _failed(len(grad))
        # The rest go through the per-call entry, which owns the jitter
        # ladder and the errors, and whose calls the benchmark's spans time.
        for i, (m, p) in enumerate(zip(members, params)):
            if out[i] is not None:
                continue
            setup = setups[m]
            if p is not None:
                noise = NoiseModel.estimated(p[2]) if setup.estimate_noise else setup.fixed_noise
                try:
                    value, grad = gp.log_marginal_likelihood_and_gradient(
                        setup.series, _make_kernel(family, nu, p[0], p[1]), noise
                    )
                except (FactorizationError, OverflowError):
                    pass
                else:
                    if math.isfinite(value):
                        out[i] = (-value, -grad)
                        continue
            out[i] = _failed(len(setup.boxes))
        return out

    # A Matern length-scale probed near e^-230 overflows in K and dK/dl; the
    # kernel masks those entries, so the warnings carry nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        runs = _minimize_lockstep(
            objective, [setup.z0() for setup in setups], [setup.log_box for setup in setups]
        )
    return [setup.result(run, family, nu) for setup, run in zip(setups, runs)]


def minimize(fun, x0: np.ndarray, bounds) -> SimpleNamespace:
    """Minimize ``fun(x) -> (value, gradient)`` from ``x0`` inside ``bounds``,
    a (lower, upper) pair per coordinate with None for no bound.

    The one-member case of :func:`_minimize_lockstep`, so iterates, ``nit``,
    ``nfev`` and ``success`` are those of
    ``scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", ...)``
    with maxiter=_MAX_ITER, ftol=_OBJ_REL_TOL and gtol=_GRAD_TOL.  No fit
    calls it; it stays because the benchmark's spans (``bench/spans.py``)
    wrap it by name.
    """
    return _minimize_lockstep(lambda _, xs: [fun(x) for x in xs], [x0], [bounds])[0]


def _minimize_lockstep(fun_batch, x0s, boxes) -> list[SimpleNamespace]:
    """:func:`minimize` from each start in ``x0s`` inside its box in
    ``boxes``, all in lockstep.

    Each round, every running member advances until it asks for a new point
    or stops; ``fun_batch(members, xs)`` then evaluates the points ``xs``
    asked for by the members ``members`` (indices into ``x0s``), in member
    order, and returns their (value, gradient) pairs.  It must give each
    point what it gives that point alone, so that each result is that of
    the member's own :func:`minimize`.
    """
    runs = [_lbfgsb(x0, box) for x0, box in zip(x0s, boxes)]
    pending = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        evaluated = fun_batch(list(pending), list(pending.values()))
        asked, pending = pending, {}
        for i, value in zip(asked, evaluated):
            try:
                pending[i] = runs[i].send(value)
            except StopIteration as stop:
                results[i] = stop.value
    return results


def _lbfgsb(x0: np.ndarray, bounds):
    """One L-BFGS-B run as a generator: it yields each point whose
    (value, gradient) it needs, is sent that pair, and returns the
    result: ``x``, ``fun``, ``nit``, ``nfev`` and ``success``, as in
    scipy's OptimizeResult.

    Drives ``setulb`` the way scipy's ``_minimize_lbfgsb`` does, with the
    memo of the last evaluated point inside the run, so a repeated point is
    not yielded and counts no evaluation.
    """
    lb = np.array([-math.inf if lo is None else lo for lo, _ in bounds])
    ub = np.array([math.inf if hi is None else hi for _, hi in bounds])
    x = np.clip(np.asarray(x0, dtype=np.float64), lb, ub)
    has_lo, has_hi = np.isfinite(lb), np.isfinite(ub)
    nbd = np.array([_NBD[key] for key in zip(has_lo, has_hi)], np.int32)
    low = np.where(has_lo, lb, 0.0)
    up = np.where(has_hi, ub, 0.0)
    n = len(x)
    f = np.array(0.0)
    g = np.zeros(n)
    m = _LBFGS_MEMORY
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = _OBJ_REL_TOL / np.finfo(float).eps
    # scipy evaluates x0 once before the loop; the memo makes the first
    # request for it (and any repeat of the last x) a lookup.  Comparing
    # lists of floats is np.array_equal here (NaN never matches) at a tenth
    # of its cost.
    x_seen = x.tolist()
    f_seen, g_seen = yield x.copy()
    nfev, nit = 1, 0
    while True:
        # g is copied before every call, as scipy does, so setulb never
        # writes into the memo.
        g = np.array(g, dtype=np.float64)
        _setulb(m, x, low, up, nbd, f, g, factr, _GRAD_TOL, wa, iwa, task,
                lsave, isave, dsave, _MAX_LINE_SEARCH, ln_task)
        state = task[0]
        if state == 3:
            x_now = x.tolist()
            if x_now != x_seen:
                x_seen = x_now
                f_seen, g_seen = yield x.copy()
                nfev += 1
            f, g = f_seen, g_seen
        elif state == 1:
            nit += 1
            if nit >= _MAX_ITER:
                task[:] = 5, 504
            elif nfev > _MAX_FUN:
                task[:] = 5, 502
        else:
            break
    return SimpleNamespace(x=x, fun=f, nit=nit, nfev=nfev, success=bool(task[0] == 4))


def lower_bounds_active(
    scenario: Scenario, length_scale: float, noise_variance: float | None
) -> dict[str, bool]:
    """Which lower bounds of ``scenario`` a solution sits on (within a
    relative 1e-6); the ``bound_lower_active`` field of a FitResult.  A
    lower edge of 0, and fixed noise, is never active."""
    lowers = [lo for lo, _ in scenario.box] + [0.0]
    return {
        key: lo > 0.0 and value - lo <= _ACTIVE_RTOL * lo
        for key, value, lo in zip(
            ("length_scale", "noise_variance"), (length_scale, noise_variance), lowers
        )
    }


def result_noise_model(result: FitResult, series: TimeSeries) -> NoiseModel:
    """Noise model implied by a fit result (estimated value or the series'
    own fixed per-point variances)."""
    if result.noise_variance is not None:
        return NoiseModel.estimated(result.noise_variance)
    if series.noise_variances is None:
        raise ValueError("fixed-noise result but the series has no variances")
    return NoiseModel.fixed(series.noise_variances)


def diagnose(
    result: FitResult,
    sampling: bound.SamplingInfo,
    alpha: float = bound.DEFAULT_ALPHA,
    noise_threshold: float = 1e-4,
) -> Diagnostics:
    """Over-fit flags for a fit: length-scale below the spectral bound, or
    estimated noise variance below ``noise_threshold``.

    The default threshold 1e-4 matches the synthetic benchmark protocol;
    expression-style data conventionally uses 1e-2.  Fixed-noise fits can
    never raise the noise flag.
    """
    a_l = bound.length_scale_bound(
        result.kernel.family, alpha, sampling.delta_t, result.kernel.nu
    )
    below = result.kernel.length_scale < a_l
    tiny = result.noise_variance is not None and result.noise_variance < noise_threshold
    return Diagnostics(
        length_scale_below_bound=bool(below),
        tiny_noise=bool(tiny),
        thresholds={"length_scale_lower": a_l, "noise_variance": noise_threshold},
    )


def _four_scenarios(
    a_l: float, constrained_noise: tuple[str, float | None, float | None]
) -> list[Scenario]:
    mode, lo, hi = constrained_noise
    return [
        Scenario("no_bounds"),
        Scenario("lengthscale_bounded", a_l),
        Scenario("noise_bounded" if mode == NOISE_BOUNDED else "noise_fixed",
                 0.0, math.inf, mode, lo, hi),
        Scenario("both_bounded", a_l, math.inf, mode, lo, hi),
    ]


def make_scenarios(
    series: TimeSeries,
    family: str,
    alpha: float = bound.DEFAULT_ALPHA,
    nu: float | None = None,
    noise_bounds: tuple[float, float] = SYNTHETIC_NOISE_BOUNDS,
) -> list[Scenario]:
    """The four benchmark constraint configurations for one series:

    1. no bounds; 2. length-scale bounded below by a_l(alpha);
    3. noise variance bounded in ``noise_bounds``; 4. both.
    """
    a_l = bound.length_scale_bound(family, alpha, series.sampling.delta_t, nu)
    return _four_scenarios(a_l, (NOISE_BOUNDED, noise_bounds[0], noise_bounds[1]))


def make_expression_scenarios(
    series: TimeSeries,
    family: str,
    alpha: float = bound.DEFAULT_ALPHA,
    nu: float | None = None,
) -> list[Scenario]:
    """Variant of :func:`make_scenarios` with fixed per-point noise (taken
    from the series) in place of the bounded noise interval."""
    a_l = bound.length_scale_bound(family, alpha, series.sampling.delta_t, nu)
    return _four_scenarios(a_l, (NOISE_FIXED, None, None))


# Preset scenario sets by name: ``builder(series, family, alpha, nu)``.
SCENARIO_SETS = {"synthetic": make_scenarios, "expression": make_expression_scenarios}


# The scan of log sf2 behind the profiled signal variance of a likelihood
# surface, and the Newton steps that polish each of its local maxima.
_SCAN_LOG_SF2 = np.linspace(-25.0, 25.0, 401)
_NEWTON_STEPS = 30


def _profile_log_sf2(e: np.ndarray, p2: np.ndarray, sn2: np.ndarray) -> np.ndarray:
    """log sf2 maximizing f(sf2) = -1/2 sum p2_i / (sf2 e_i + sn2)
    - 1/2 sum log(sf2 e_i + sn2), the likelihood at one length-scale in the
    eigenbasis of its correlation matrix (eigenvalues ``e``, squared
    projections ``p2`` of y), for each noise variance of ``sn2``.

    At a fixed absolute sn2, f can have several maxima in log sf2, about one
    per scale of the eigenvalues.  So f is scanned over ``_SCAN_LOG_SF2`` in
    O(n) per point, and Newton's method on the analytic first and second
    derivatives in z = log sf2, with w_i = sf2 e_i / (sf2 e_i + sn2) and
    a_i = p2_i / (sf2 e_i + sn2),

        f' = 1/2 sum w_i (a_i - 1),  f'' = 1/2 sum w_i (a_i (1 - 2 w_i) - 1 + w_i),

    polishes every local maximum of the scan, inside the scan's range; the
    best polished point wins.
    """
    sf2 = np.exp(_SCAN_LOG_SF2)
    shifted = sf2[None, :, None] * e + sn2[:, None, None]  # (sn2, z, i)
    f = -0.5 * (p2 / shifted + np.log(shifted)).sum(axis=2)
    padded = np.pad(f, ((0, 0), (1, 1)), constant_values=-np.inf)
    rows, cols = np.nonzero((f >= padded[:, :-2]) & (f > padded[:, 2:]))
    z = _SCAN_LOG_SF2[cols]
    noise = sn2[rows, None]
    for _ in range(_NEWTON_STEPS):
        scaled = np.exp(z)[:, None] * e
        w = scaled / (scaled + noise)
        a = p2 / (scaled + noise)
        grad = 0.5 * (w * (a - 1.0)).sum(axis=1)
        if not np.any(np.abs(grad) > 1e-10):
            break
        curv = 0.5 * (w * (a * (1.0 - 2.0 * w) - 1.0 + w)).sum(axis=1)
        step = np.divide(grad, curv, out=np.zeros_like(grad), where=curv < 0.0)
        z = np.clip(z - step, _SCAN_LOG_SF2[0], _SCAN_LOG_SF2[-1])
    shifted = np.exp(z)[:, None] * e + noise
    value = -0.5 * (p2 / shifted + np.log(shifted)).sum(axis=1)
    # the best polished maximum of each row: rows ascend, values descend
    order = np.lexsort((-value, rows))
    first = np.unique(rows[order], return_index=True)[1]
    return z[order[first]]


def _profiled_signal_variances(
    series: TimeSeries, family: str, length_scales, noise_variances, nu: float | None
) -> np.ndarray:
    """The signal variance maximizing the likelihood at each (l, sn2) of the
    grid, one ``eigh`` per length-scale: rows follow ``length_scales``.
    ValueError unless every l and sn2 is > 0."""
    ls = np.asarray(length_scales, dtype=float)
    ns = np.asarray(noise_variances, dtype=float)
    if not (np.all(ls > 0.0) and np.all(ns > 0.0)):
        raise ValueError("length-scales and noise variances must be > 0")
    e, v = _correlation_eigh(family, nu, series.distances, ls)
    p2 = (series.values @ v) ** 2
    return np.exp([_profile_log_sf2(e[i], p2[i], ns) for i in range(len(ls))])


def likelihood_surface(
    series: TimeSeries,
    family: str,
    length_scales,
    noise_variances,
    nu: float | None = None,
) -> np.ndarray:
    """Log marginal likelihood over a (l, sn2) grid with sf2 profiled out
    per cell; rows follow ``length_scales``, columns ``noise_variances``.
    The profiled sf2 of each cell is :func:`_profile_log_sf2`'s, from one
    ``eigh`` per length-scale; the likelihood there is
    :func:`shortgp.gp.log_marginal_likelihood`.  ValueError, before any
    ``eigh``, unless :func:`fit` supports the kernel family and nu."""
    _check_family(family, nu)
    ls = np.asarray(length_scales, dtype=float)
    ns = np.asarray(noise_variances, dtype=float)
    sf2 = _profiled_signal_variances(series, family, ls, ns, nu)
    out = np.empty((ls.shape[0], ns.shape[0]))
    for i, l in enumerate(ls.tolist()):
        for j, sn2 in enumerate(ns.tolist()):
            spec = _make_kernel(family, nu, float(sf2[i, j]), l)
            try:
                out[i, j] = gp.log_marginal_likelihood(series, spec, NoiseModel.estimated(sn2))
            except FactorizationError:
                out[i, j] = -np.inf
    return out
