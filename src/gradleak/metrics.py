"""Reconstruction-quality measurement.

MSE is reported on the 0-255 scale so numbers line up with how leaked-image
quality is usually quoted; the raw 0-1 mean squared error is also available
for precision work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor

# a reconstruction converged when its final MSE (0-255 scale) is at most this
CONVERGENCE_THRESHOLD = 5.0


@dataclass(frozen=True)
class ImagePair:
    """Ground-truth image (values in [0, 1]) and a candidate of the same shape."""

    reference: Tensor
    candidate: Tensor

    def __post_init__(self):
        if self.reference.shape != self.candidate.shape:
            raise ShapeError(
                f"image pair shapes differ: {self.reference.shape} vs {self.candidate.shape}"
            )


def mse_255(pair: ImagePair) -> float:
    """Mean of (255 * (reference - candidate))^2; the candidate is clamped
    to [0, 1] first, matching how a reconstruction would be displayed."""
    cand = np.clip(pair.candidate.array, 0.0, 1.0)
    diff = 255.0 * (pair.reference.array - cand)
    return float(np.mean(diff * diff))


def mse_unit(pair: ImagePair) -> float:
    """Plain mean squared error on the 0-1 scale, no clamping."""
    diff = pair.reference.array - pair.candidate.array
    return float(np.mean(diff * diff))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-checkpoint (iteration, distance, mse) rows plus summary flags."""

    rows: tuple[tuple[int, float, float], ...]
    monotone: bool
    final_mse: float
    converged: bool


def convergence_report(trace) -> ConvergenceReport:
    """Summarize an attack trace: checkpoint table, non-increasing-MSE flag,
    and whether the final MSE clears CONVERGENCE_THRESHOLD."""
    records = trace.records
    if not records:
        raise ContractError("convergence_report: trace is empty")
    if any(r.mse_255 is None for r in records):
        raise ContractError("convergence_report: trace has no ground-truth MSE")
    rows = tuple((r.iteration, r.distance, r.mse_255) for r in records)
    mses = [m for _, _, m in rows]
    monotone = all(b <= a for a, b in zip(mses, mses[1:]))
    final = mses[-1]
    return ConvergenceReport(
        rows=rows,
        monotone=monotone,
        final_mse=final,
        converged=final <= CONVERGENCE_THRESHOLD,
    )


def report_kv(report: ConvergenceReport) -> str:
    """Machine-readable key: value rendering, one block per checkpoint."""
    lines = []
    for iteration, distance, mse in report.rows:
        lines.append(f"checkpoint: {iteration}")
        lines.append(f"distance: {distance!r}")
        lines.append(f"mse_255: {mse!r}")
    lines.append(f"monotone_mse: {'true' if report.monotone else 'false'}")
    lines.append(f"final_mse: {report.final_mse!r}")
    lines.append(f"threshold: {CONVERGENCE_THRESHOLD!r}")
    lines.append(f"converged: {'true' if report.converged else 'false'}")
    return "\n".join(lines) + "\n"
