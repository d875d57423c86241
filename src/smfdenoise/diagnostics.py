"""Multi-chain potential scale reduction factor and convergence verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TraceSet",
    "ConvergenceReport",
    "DegenerateTraceError",
    "PSRF_THRESHOLD",
    "psrf",
    "convergence_report",
]

PSRF_THRESHOLD = 1.2


class DegenerateTraceError(ValueError):
    """All chains constant: within-chain variance is zero."""


@dataclass(frozen=True, eq=False)
class TraceSet:
    """m parallel scalar chains of common length L, as an (m, L) array."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("traces must form a 2-D (chains, length) array")
        m, length = v.shape
        if m < 2:
            raise ValueError(f"need at least 2 chains, got {m}")
        if length < 2:
            raise ValueError(f"need chains of length >= 2, got {length}")
        if not np.all(np.isfinite(v)):
            raise ValueError("traces contain non-finite values")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def psrf(traces: TraceSet) -> float:
    """Potential scale reduction factor (1 - 1/L) + B / (L W).

    W is the mean within-chain variance (divisor L-1), B the between-chain
    term L/(m-1) * sum of squared deviations of the chain means.  The ratio
    is scale-invariant, so it is computed on the traces divided by 2^e, e
    the exponent of their largest |value|: the division is exact, so traces
    in range keep their bits, and no square of a trace near float64's top
    overflows.
    """
    v = np.ldexp(traces.values, -np.frexp(np.abs(traces.values).max())[1])
    m, length = v.shape
    s = v.var(axis=1, ddof=1)
    w = s.mean()
    if w == 0.0:
        raise DegenerateTraceError("all chains are constant; PSRF undefined")
    means = v.mean(axis=1)
    b = length / (m - 1) * float(((means - means.mean()) ** 2).sum())
    return float((1.0 - 1.0 / length) + b / (length * w))


@dataclass(frozen=True)
class ConvergenceReport:
    psrf_values: dict[str, float]
    passed: dict[str, bool]
    all_converged: bool


def convergence_report(traces: dict[str, TraceSet]) -> ConvergenceReport:
    """PSRF per named parameter; converged iff every value is below
    PSRF_THRESHOLD."""
    values: dict[str, float] = {}
    passed: dict[str, bool] = {}
    for name, t in traces.items():
        try:
            r = psrf(t)
        except DegenerateTraceError as exc:
            raise DegenerateTraceError(f"parameter {name!r}: {exc}") from exc
        values[name] = r
        passed[name] = bool(r < PSRF_THRESHOLD)
    return ConvergenceReport(
        psrf_values=values,
        passed=passed,
        all_converged=all(passed.values()) if passed else True,
    )
