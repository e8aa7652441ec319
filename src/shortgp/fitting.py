"""Bounded maximum-likelihood hyperparameter estimation.

Each fit maximizes the log marginal likelihood over z = log(sf2, l[, sn2])
with L-BFGS-B from several seeded restarts.  The scenario's box on each
parameter is handed to L-BFGS-B as the log of that box (no bound where the
box edge is 0 or infinity), so an optimum on a face of the box is reached,
not approached.  The likelihood gradient is already in log coordinates, so
the objective needs no chain factor.  Mapped back to natural units, a z on
a face (or within 1e-6 of it) gives exactly that bound and any other z its
exp, so every returned parameter lies inside its box exactly, and one that
sits on a bound sits on it exactly.  Restart
initialization, convergence thresholds and tie-breaking are all
deterministic given the seed.

Each restart drives L-BFGS-B's reverse-communication routine ``setulb``
directly (:func:`_lbfgsb`) rather than through ``scipy.optimize.minimize``.
At n <= 15 the wrapper's per-call bookkeeping (its scalar-function object,
gradient memo and array checks) cost more than the likelihood itself.  The
loop mirrors scipy's ``_minimize_lbfgsb`` for this problem: the same memory,
line-search limit, tolerances, bound encoding, start clipping and memo of
the last evaluated point, so iterates, ``nit`` and ``nfev`` are scipy's.

The restarts of one fit run in lockstep (:func:`_minimize_lockstep`): one
``setulb`` state per start, advanced together round by round.  Each round
every running member goes on until it asks for a new point or stops, and
the points asked for are evaluated by one objective.  It maps each point
to natural units once and hands two or more of them to
:func:`shortgp.gp._lml_and_grad_batch` as one parameter array, which shares
the Python glue and the small-array work of a likelihood call among the
members.  The batch gives each member the bits a call of its own gives, so
every restart takes the path it takes alone.  A lone point, and a member
whose K is not finite or needs jitter, go to
:func:`shortgp.gp.log_marginal_likelihood_and_gradient`: a batch of one
costs more than a call, and that function owns the jitter ladder and the
errors.

The lockstep runs over problems, not only over restarts: :func:`_lockstep`
fits any number of (series, scenario, seed) problems at once, and a round's
points from series of one length and one noise mode go to one batched call.
:func:`fit` is its one-problem case, with the same bits.  The harness makes
one call per stage, to :func:`_fit_problems`: one scenario of many series
of one length.  An evaluation that overflows a float (a power of a huge
length-scale) is a failed evaluation; a batched call that overflows leaves
its members to the per-call path, so that only the members that overflow
there fail.

Three paths are kept for the benchmark's spans (``bench/spans.py``), which
wrap ``fit``, ``minimize`` and the per-call likelihood by name: a lone
problem goes through :func:`fit`, a lone point through the per-call
likelihood (cheaper, too, than a batch of one), and :func:`minimize`, which
no fit calls, is the lockstep's one-member case.  They can go once the
benchmark times the engine's stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import OptimizeResult

# L-BFGS-B's reverse-communication routine.  The module is private; this is
# the setulb of scipy's C translation (scipy >= 1.15: integer task and
# ln_task, no csave or iprint).  tests/test_fit.py::TestDriverMatchesScipyMinimize
# guards it: every fit's runs must equal scipy.optimize.minimize's bitwise.
from scipy.optimize._lbfgsb import setulb

from . import bound, gp
from .kernels import FITTING_NUS, FactorizationError, KernelSpec, MATERN, SQUARED_EXPONENTIAL
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
    "profile_signal_variance",
    "likelihood_surface",
]

NOISE_ESTIMATED = "estimated"
NOISE_BOUNDED = "bounded"
NOISE_FIXED = "fixed"

SYNTHETIC_NOISE_BOUNDS = (0.01, 0.1)
DEFAULT_RESTARTS = 5

_MAX_ITER = 500
_GRAD_TOL = 1e-6
_OBJ_REL_TOL = 1e-10
_TIE_TOL = 1e-10
_FAILED_OBJECTIVE = 1e25
_ACTIVE_RTOL = 1e-6
_FIT_STREAM = 0x464954  # "FIT": keeps restart draws apart from data streams
_LBFGS_MEMORY = 10  # scipy's maxcor
_MAX_LINE_SEARCH = 20  # scipy's maxls
_MAX_FUN = 15000  # scipy's maxfun
# setulb's bound type per (has lower, has upper)
_NBD = {(False, False): 0, (True, False): 1, (True, True): 2, (False, True): 3}


class AllStartsFailedError(RuntimeError):
    """Every restart hit a factorization failure or returned no optimum."""


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
    alpha: float = bound.DEFAULT_ALPHA

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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

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
    """Best constrained maximum-likelihood solution found by multi-start."""

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


@lru_cache(maxsize=4096)
def _reference_lower_bound(
    family: str, nu: float | None, alpha: float, delta_t: float
) -> float:
    return bound.length_scale_bound(family, alpha, delta_t, nu)


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


def _no_fit_reason(series: TimeSeries, scenario: Scenario) -> str | None:
    """Why ``scenario`` has no maximum-likelihood fit on ``series``, or None.

    A series of fewer than two points has no sampling interval, and fixed
    noise needs the series' per-point variances.  On a constant series
    (var y = 0, tested as all values equal, which the rounding of a computed
    variance could miss) estimated noise has no maximum: the likelihood
    grows without bound as sn2 -> 0 and l -> inf (for y = 0, as sf2 and
    sn2 -> 0 at any l), and a fit would report wherever its ascent stalled.
    Bounded and fixed noise, and a finite length-scale box on a nonzero
    constant, keep the likelihood bounded.
    """
    if len(series) < 2:
        return "fitting needs at least two observations"
    if scenario.noise_mode == NOISE_FIXED and series.noise_variances is None:
        return "scenario fixes per-point noise but the series has no variances"
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
    seed: int,
    nu: float | None = None,
    restarts: int = DEFAULT_RESTARTS,
    extra_starts=(),
) -> FitResult:
    """Constrained maximum-likelihood fit of (sf2, l[, sn2]) for one series.

    Runs ``restarts`` L-BFGS-B ascents in the log box of ``scenario`` from
    seeded random initializations (plus any ``extra_starts``, given as
    (sf2, l, sn2) triples in natural space, sn2 ignored for fixed noise),
    each start clipped into the box.  A length-scale or noise variance
    within a relative 1e-6 of a bound is returned as exactly that bound.
    The best optimum wins; likelihood ties below 1e-10 go to the smaller
    length-scale, then the smaller noise variance, so the result does not
    depend on enumeration order.  Deterministic given (series, scenario,
    seed).

    An evaluation whose factorization fails, whose likelihood is not
    finite, that overflows a float (l^3, or l^2 under Matern 1/2, beyond
    the largest float: l of about 5.6e102, or 1.3e154, or more) or whose
    point z is NaN (an L-BFGS-B step that overflowed) is a failed
    evaluation, of a value worse than any likelihood, and a restart that
    ends on such a point is dropped.
    An infinite coordinate of z is no failure: like any other z beyond 230
    in size, it is evaluated at exp(+-230), or at the box's bound where the
    box lies beyond.  So the parameters are not unit-free: on values around
    1e100 or larger, sf2 (at most e^230, about 7.7e99) cannot reach var(y),
    and every restart fails; so does every restart of a scenario whose
    length-scale floor overflows, as the Nyquist floor of times about 1e103
    or more apart does.
    Raises AllStartsFailedError when no restart produces a usable optimum
    and ValueError for a series the scenario cannot be fitted to: fewer
    than two points, fixed noise without per-point variances, or estimated
    noise on a constant series, whose likelihood has no maximum.

    This is the one-problem case of :func:`_lockstep`.
    """
    extra_starts = tuple(extra_starts)
    result = _lockstep([(series, scenario, seed)], family, nu, restarts, extra_starts)[0]
    if result is None:
        raise AllStartsFailedError(
            f"all {len(extra_starts) + max(restarts, 0)} starts failed for scenario "
            f"{scenario.label!r}"
        )
    return result


class _Problem:
    """The set-up of one (series, scenario, seed) of :func:`_lockstep`:
    the box in natural units and its log, the starts, and the map of a
    point z back into the box."""

    def __init__(self, series, family, scenario, seed, nu, restarts, extra_starts):
        reason = _no_fit_reason(series, scenario)
        if reason is not None:
            raise ValueError(reason)
        _check_family(family, nu)
        if restarts < 1 and not extra_starts:
            raise ValueError("need at least one start")
        self.series = series
        self.scenario = scenario
        # The box of each optimized parameter in natural units, and its log.
        self.boxes = boxes = [(0.0, math.inf), *scenario.box]
        self.estimate_noise = scenario.noise_mode != NOISE_FIXED
        self.fixed_noise = (
            None if self.estimate_noise else NoiseModel.fixed(series.noise_variances)
        )
        self.log_box = [
            (math.log(lo) if lo > 0.0 else None, math.log(hi) if hi < math.inf else None)
            for lo, hi in boxes
        ]

        # Initialization: sf2 at the sample variance; l log-uniform between a
        # tenth of the (reference) lower bound or sampling interval and the
        # observation span; sn2 log-uniform between 1e-4 and the sample
        # variance.
        info = bound.delta_t_from_times(series.times)
        if scenario.length_scale_lower > 0.0:
            a_ref = scenario.length_scale_lower
        else:
            a_ref = _reference_lower_bound(family, nu, scenario.alpha, info.delta_t)
        init_lo = max(a_ref / 10.0, info.delta_t / 10.0)
        init_hi = max(series.span, init_lo * 10.0)
        var_y = float(np.var(series.values))
        sf2_init = var_y if var_y > 0.0 else 1e-8
        sn2_hi = max(var_y, 2e-4)

        rng = Generator(Philox(key=[int(seed), _FIT_STREAM]))
        starts: list[tuple[float, float, float]] = []
        for sf2, l, sn2 in extra_starts:
            starts.append((float(sf2), float(l), float(sn2) if sn2 is not None else 1e-2))
        for _ in range(max(restarts, 0)):
            l0 = math.exp(rng.uniform(math.log(init_lo), math.log(init_hi)))
            sn0 = math.exp(rng.uniform(math.log(1e-4), math.log(sn2_hi)))
            starts.append((sf2_init, l0, sn0))
        self.z0s = [
            np.array([
                math.log(min(max(v, lo, 1e-300), hi, 1e300))
                for v, (lo, hi) in zip(start, boxes)
            ])
            for start in starts
        ]

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

    def best(self, results, family: str, nu: float | None) -> FitResult | None:
        """The winning optimum of the problem's restarts, or None when no
        restart ended on a usable point."""
        best = None
        restarts_used = 0
        for res in results:
            params = self.natural(res.x)
            if params is None or not math.isfinite(res.fun) or res.fun >= _FAILED_OBJECTIVE * 0.5:
                continue
            sf2, l, *sn2 = params
            value = -float(res.fun)
            restarts_used += 1
            cand = (value, l, sn2[0] if self.estimate_noise else 0.0, sf2, bool(res.success))
            if (
                best is None
                or cand[0] > best[0] + _TIE_TOL
                or (abs(cand[0] - best[0]) <= _TIE_TOL and cand[1:3] < best[1:3])
            ):
                best = cand
        if best is None:
            return None
        value, l, sn2, sf2, converged = best
        return FitResult(
            kernel=_make_kernel(family, nu, sf2, l),
            noise_variance=sn2 if self.estimate_noise else None,
            log_marginal_likelihood=value,
            bound_lower_active=lower_bounds_active(self.scenario, l, sn2),
            restarts_used=restarts_used,
            converged=converged,
        )


def _failed(size: int) -> tuple[float, np.ndarray]:
    """The (value, gradient) of a failed evaluation."""
    return _FAILED_OBJECTIVE, np.zeros(size)


def _fit_problems(problems, family: str, nu: float | None, restarts: int) -> list:
    """The own fit of every (series, scenario, seed) in ``problems``, None
    where every restart failed, in one :func:`_lockstep`.  A lone problem
    goes through :func:`fit`, with the same bits: the benchmark's spans wrap
    ``fitting.fit``, and every stage of ``bench/test_bench.py``'s runs is a
    lone problem, as they hold one series per length."""
    if len(problems) > 1:
        return _lockstep(problems, family, nu, restarts)
    [(series, scenario, seed)] = problems
    try:
        return [fit(series, family, scenario, seed=seed, nu=nu, restarts=restarts)]
    except AllStartsFailedError:
        return [None]


def _lockstep(
    problems, family: str, nu: float | None, restarts: int, extra_starts=()
) -> list[FitResult | None]:
    """:func:`fit` of every (series, scenario, seed) in ``problems``, all of
    their restarts in one lockstep; None where :func:`fit` raises
    AllStartsFailedError.  Raises ValueError where :func:`fit` does, before
    any restart runs.

    The problems' series have one length, and their scenarios one noise
    mode (fixed or estimated); else ValueError.  Each round, the points
    asked for are mapped to natural units once and go to the batched
    likelihood as one call, whatever series they come from; a member gets
    the bits of its own fit's evaluation, so each result is that of the
    problem's own :func:`fit`.  A lone point, and a member that the batch
    leaves (K not finite, or jitter needed), go to
    :func:`shortgp.gp.log_marginal_likelihood_and_gradient`, which owns the
    jitter ladder and the errors.  A batched call that overflows a float
    leaves every member to it, so that only the members that overflow there
    fail.
    """
    setups = [
        _Problem(series, family, scenario, seed, nu, restarts, extra_starts)
        for series, scenario, seed in problems
    ]
    if len({(len(setup.series), setup.estimate_noise) for setup in setups}) > 1:
        raise ValueError("problems of one lockstep need one series length and noise mode")
    # The series data of the batched likelihood, one row per problem.
    distances = np.array([setup.series.distances for setup in setups])
    ys = np.array([setup.series.values for setup in setups])
    variances = (
        None
        if setups[0].estimate_noise
        else np.array([setup.series.noise_variances for setup in setups])
    )
    owner = [p for p, setup in enumerate(setups) for _ in setup.z0s]
    member_setup = [setups[p] for p in owner]

    def objective(members: list[int], zs: list[np.ndarray]) -> list:
        # (-log p, -gradient) at each member's z, each z mapped once.
        params = [member_setup[m].natural(z) for m, z in zip(members, zs)]
        batched = [i for i, p in enumerate(params) if p is not None]
        out = [None] * len(zs)
        if len(batched) > 1:
            rows = [owner[members[i]] for i in batched]
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
            setup = member_setup[m]
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
        results = _minimize_lockstep(
            objective,
            [z0 for setup in setups for z0 in setup.z0s],
            [setup.log_box for setup in member_setup],
        )
    out = []
    first = 0
    for setup in setups:
        last = first + len(setup.z0s)
        out.append(setup.best(results[first:last], family, nu))
        first = last
    return out


def minimize(fun, x0: np.ndarray, bounds) -> OptimizeResult:
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


def _minimize_lockstep(fun_batch, x0s, boxes) -> list[OptimizeResult]:
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
    OptimizeResult.

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
        setulb(m, x, low, up, nbd, f, g, factr, _GRAD_TOL, wa, iwa, task,
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
    return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, success=bool(task[0] == 4))


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
    a_l = _reference_lower_bound(
        result.kernel.family, result.kernel.nu, alpha, sampling.delta_t
    )
    below = result.kernel.length_scale < a_l
    tiny = result.noise_variance is not None and result.noise_variance < noise_threshold
    return Diagnostics(
        length_scale_below_bound=bool(below),
        tiny_noise=bool(tiny),
        thresholds={"length_scale_lower": a_l, "noise_variance": noise_threshold},
    )


def _four_scenarios(
    a_l: float, alpha: float, constrained_noise: tuple[str, float | None, float | None]
) -> list[Scenario]:
    mode, lo, hi = constrained_noise
    return [
        Scenario("no_bounds", 0.0, math.inf, NOISE_ESTIMATED, None, None, alpha),
        Scenario("lengthscale_bounded", a_l, math.inf, NOISE_ESTIMATED, None, None, alpha),
        Scenario("noise_bounded" if mode == NOISE_BOUNDED else "noise_fixed",
                 0.0, math.inf, mode, lo, hi, alpha),
        Scenario("both_bounded", a_l, math.inf, mode, lo, hi, alpha),
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
    info = bound.delta_t_from_times(series.times)
    a_l = _reference_lower_bound(family, nu, alpha, info.delta_t)
    return _four_scenarios(a_l, alpha, (NOISE_BOUNDED, noise_bounds[0], noise_bounds[1]))


def make_expression_scenarios(
    series: TimeSeries,
    family: str,
    alpha: float = bound.DEFAULT_ALPHA,
    nu: float | None = None,
) -> list[Scenario]:
    """Variant of :func:`make_scenarios` with fixed per-point noise (taken
    from the series) in place of the bounded noise interval."""
    info = bound.delta_t_from_times(series.times)
    a_l = _reference_lower_bound(family, nu, alpha, info.delta_t)
    return _four_scenarios(a_l, alpha, (NOISE_FIXED, None, None))


# Preset scenario sets by name: ``builder(series, family, alpha, nu)``.
SCENARIO_SETS = {"synthetic": make_scenarios, "expression": make_expression_scenarios}


def profile_signal_variance(
    series: TimeSeries,
    family: str,
    length_scale: float,
    noise: NoiseModel,
    nu: float | None = None,
) -> float:
    """Signal variance maximizing the marginal likelihood with the other
    parameters held fixed (for likelihood-surface slices)."""
    from scipy.optimize import minimize_scalar

    def neg(log_sf2: float) -> float:
        spec = _make_kernel(family, nu, math.exp(log_sf2), length_scale)
        try:
            return -gp.log_marginal_likelihood(series, spec, noise)
        except FactorizationError:
            return _FAILED_OBJECTIVE

    res = minimize_scalar(
        neg, bounds=(-25.0, 25.0), method="bounded", options={"xatol": 1e-10}
    )
    z = float(res.x)

    def grad(log_sf2: float) -> float:
        spec = _make_kernel(family, nu, math.exp(log_sf2), length_scale)
        return gp.log_marginal_likelihood_and_gradient(series, spec, noise)[1][0]

    # Newton polish on the analytic stationarity condition; the scalar
    # minimizer alone leaves the gradient around 1e-5.
    h = 1e-5
    for _ in range(8):
        g = grad(z)
        if abs(g) <= 1e-10:
            break
        curvature = (grad(z + h) - grad(z - h)) / (2.0 * h)
        if not curvature < 0.0:
            break
        z -= g / curvature
    return math.exp(z)


def likelihood_surface(
    series: TimeSeries,
    family: str,
    length_scales,
    noise_variances,
    nu: float | None = None,
) -> np.ndarray:
    """Log marginal likelihood over a (l, sn2) grid with sf2 profiled out
    per cell; rows follow ``length_scales``, columns ``noise_variances``."""
    ls = np.asarray(length_scales, dtype=float)
    ns = np.asarray(noise_variances, dtype=float)
    out = np.empty((ls.shape[0], ns.shape[0]))
    for i, l in enumerate(ls):
        for j, sn2 in enumerate(ns):
            noise = NoiseModel.estimated(float(sn2))
            sf2 = profile_signal_variance(series, family, float(l), noise, nu)
            spec = _make_kernel(family, nu, sf2, float(l))
            try:
                out[i, j] = gp.log_marginal_likelihood(series, spec, noise)
            except FactorizationError:
                out[i, j] = -np.inf
    return out
