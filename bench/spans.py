"""In-memory spans around the layer boundaries of ``shortgp``, and the
per-layer metrics derived from them.

Spans come from wrappers that :func:`traced` installs at run time on module
attributes that one layer looks up in another (for example
``shortgp.fitting.minimize``), and on the constructors of the value objects
built on the fitting hot path.  No source file of the package is touched and
every attribute is restored on exit.  Spans carry the series id of the call,
so that the time of one series across all of its scenario fits can be
recovered.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    iteration: int
    start: float = 0.0
    end: float = 0.0
    series_id: str | None = None
    n: int | None = None
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one thread; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.iteration = 0

    def _open(self, name: str) -> Span:
        sp = Span(name, self._stack[-1] if self._stack else None, self.iteration)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` with a span around every call; ``on_call(span, args,
        kwargs, result)`` may annotate the span afterwards."""

        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if on_call is not None:
                on_call(sp, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> dict:
        """Spans as columns (index in each list = span id)."""
        return {
            "name": [s.name for s in self.spans],
            "start": [s.start for s in self.spans],
            "end": [s.end for s in self.spans],
            "parent": [s.parent for s in self.spans],
            "iteration": [s.iteration for s in self.spans],
            "series_id": [s.series_id for s in self.spans],
            "n": [s.n for s in self.spans],
            "info": [s.info for s in self.spans],
        }


def _on_series_call(sp, args, kwargs, result) -> None:
    sp.series_id = args[0].id
    sp.n = len(args[0])


@contextlib.contextmanager
def traced(tracer: Tracer, shortgp):
    """Install span wrappers on the layer boundaries of ``shortgp``."""
    gp, fitting = shortgp.gp, shortgp.fitting
    fit_signature = inspect.signature(fitting.fit)

    def on_fit(sp, args, kwargs, result):
        _on_series_call(sp, args, kwargs, result)
        call = fit_signature.bind(*args, **kwargs)
        call.apply_defaults()
        starts = max(int(call.arguments["restarts"]), 0)
        starts += len(tuple(call.arguments["extra_starts"]))
        sp.info = {"starts": starts, "restarts_used": int(result.restarts_used)}

    def on_minimize(sp, args, kwargs, result):
        sp.info = {"nit": int(result.nit), "nfev": int(result.nfev)}

    def on_factor(sp, args, kwargs, result):
        sp.info = {"jitter": bool(result[1] > 0.0)}

    patches = [
        (gp, "log_marginal_likelihood_and_gradient", "gp.lml_grad", _on_series_call),
        (gp, "factor_covariance", "kernels.factor_covariance", on_factor),
        (gp, "posterior_at", "gp.posterior_at", _on_series_call),
        (gp, "predictive_log_likelihood", "gp.predictive_log_likelihood", _on_series_call),
        (gp, "mse", "gp.mse", _on_series_call),
        (fitting, "fit", "fitting.fit", on_fit),
        (fitting, "minimize", "fitting.minimize", on_minimize),
        (shortgp.kernels.KernelSpec, "__init__", "kernels.KernelSpec", None),
        (shortgp.series.NoiseModel, "__init__", "series.NoiseModel", None),
    ]
    saved = []
    try:
        for owner, attr, name, on_call in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_call))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _per_fit(count: int, fits: int) -> float:
    return count / fits if fits else 0.0


_POSTERIOR = ("gp.posterior_at", "gp.predictive_log_likelihood", "gp.mse")


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer figures from traced spans, and the number of samples behind
    each distribution."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def named(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, [])]

    def mean_us(name: str) -> float:
        return _mean(s.duration for s in named(name)) * 1e6

    fits = named("fitting.fit")
    n_fits = len(fits)
    fit_ms = [s.duration * 1e3 for s in fits]
    fit_time = sum(s.duration for s in fits)
    lml = by_name.get("gp.lml_grad", [])
    # Every objective evaluation of these workloads happens inside ``fit``.
    lml_time = sum(spans[i].duration for i in lml)
    minimizes = named("fitting.minimize")
    starts = sum(s.info["starts"] for s in fits)

    def lml_self_us(n: int) -> float:
        return _mean(own[i] for i in lml if spans[i].n == n) * 1e6

    posterior_time = sum(
        s.duration
        for s in spans
        if s.name in _POSTERIOR
        and (s.parent is None or spans[s.parent].name not in _POSTERIOR)
    )

    # A series lasts from the first to the last outermost call made on its
    # behalf within one iteration: all of its scenario fits and scoring.
    per_series: dict[tuple, list[float]] = {}
    for s in spans:
        if s.series_id is None:
            continue
        if s.parent is not None and spans[s.parent].series_id is not None:
            continue
        lo_hi = per_series.setdefault((s.iteration, s.series_id), [s.start, s.end])
        lo_hi[0] = min(lo_hi[0], s.start)
        lo_hi[1] = max(lo_hi[1], s.end)
    series_ms = [(hi - lo) * 1e3 for lo, hi in per_series.values()]

    metrics = {
        "gp.lml_grad.us.n5": lml_self_us(5),
        "gp.lml_grad.us.n15": lml_self_us(15),
        "gp.lml_grad.calls_per_fit": _per_fit(len(lml), n_fits),
        "gp.posterior.us_per_fit": _per_fit(posterior_time * 1e6, n_fits),
        "fitting.fit.ms.p50": _percentile(fit_ms, 50),
        "fitting.fit.ms.p90": _percentile(fit_ms, 90),
        "fitting.fit.self_frac": (fit_time - lml_time) / fit_time if fit_time else 0.0,
        "fitting.minimize.nit": _mean(s.info["nit"] for s in minimizes),
        "fitting.minimize.nfev": _mean(s.info["nfev"] for s in minimizes),
        "fitting.restart_ok_ratio": _per_fit(
            sum(s.info["restarts_used"] for s in fits), starts
        ),
        "kernels.factor_covariance.us": mean_us("kernels.factor_covariance"),
        "kernels.jitter_frac": _mean(
            float(s.info["jitter"]) for s in named("kernels.factor_covariance")
        ),
        "kernels.KernelSpec.us": mean_us("kernels.KernelSpec"),
        "kernels.KernelSpec.calls_per_fit": _per_fit(
            len(by_name.get("kernels.KernelSpec", [])), n_fits
        ),
        "series.NoiseModel.us": mean_us("series.NoiseModel"),
        "series.NoiseModel.calls_per_fit": _per_fit(
            len(by_name.get("series.NoiseModel", [])), n_fits
        ),
        "harness.series.ms.p50": _percentile(series_ms, 50),
        "harness.series.ms.p90": _percentile(series_ms, 90),
        "harness.ingest_csv.ms": mean_us("harness.ingest_csv") / 1e3,
        "harness.emit_report.ms": mean_us("harness.emit_report") / 1e3,
    }
    samples = {
        "fitting.fit": n_fits,
        "fitting.minimize": len(minimizes),
        "gp.lml_grad.n5": sum(1 for i in lml if spans[i].n == 5),
        "gp.lml_grad.n15": sum(1 for i in lml if spans[i].n == 15),
        "harness.series": len(series_ms),
    }
    return metrics, samples
