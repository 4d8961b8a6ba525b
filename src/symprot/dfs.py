"""Time-bin qudits over protected carriers and erasure capacities.

A logical qudit spreads one protected N-photon carrier over d time bins with
complex coefficients. A static symmetric scatterer multiplies every bin by
the same carrier eigenvalue, so the encoded state is untouched up to a
global factor: transmission fidelity stays 1 and the success probability
|lambda|^2 is independent of the logical coefficients. Scatterer drift
between bins breaks this; the decohering effect is quantified by
``drift_experiment``. Erasure (heralded photon loss) maps the encoding to an
erasure channel, with the standard capacities max(0, 1 - 2*eps) one-way and
1 - eps with two-way classical assistance.

The carrier must be normalized; certification's apply kernel
(``protect._scalar_action``) applies each distinct bin scatterer to it once,
one 2x2 mode-pair block at a time. A scatterer on another mode space than
the carrier's, or with entries outside those blocks, raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, _norm, _unit
from .fock import lift  # noqa: F401 -- a traced call site of perfbench/tracing.py
from .protect import CertificationConfig, Verdict, _scalar_action, certify
from .scatter import SymmetricScattering
from .serialize import space_to_json

__all__ = [
    "CarrierNotProtectedError",
    "TimeBinQudit",
    "ChannelOutcome",
    "time_bin_qudit",
    "transmit",
    "transmit_bins",
    "drift_experiment",
    "erasure_capacity",
]


class CarrierNotProtectedError(RuntimeError):
    """The carrier state failed protection certification."""


@dataclass(frozen=True, eq=False)
class TimeBinQudit:
    """d normalized logical coefficients over one normalized carrier state per bin."""

    coefficients: np.ndarray
    carrier: FockState

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex)
        if coeff.ndim != 1 or coeff.size < 1:
            raise ValueError("coefficients must be a non-empty vector")
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        norm = np.linalg.norm(coeff)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("coefficients must be normalized")
        if not self.carrier.is_normalized():
            raise ValueError(f"state must be normalized (norm {self.carrier.norm:.3e})")
        object.__setattr__(self, "coefficients", coeff)

    @property
    def d(self) -> int:
        return self.coefficients.size


def time_bin_qudit(
    coefficients,
    carrier: FockState,
    cfg: CertificationConfig | None = CertificationConfig(),
) -> TimeBinQudit:
    """Build a qudit, certifying the carrier's protection unless cfg is None."""
    coeff = np.asarray(coefficients, dtype=complex)
    if not np.isfinite(coeff).all():
        raise ValueError("coefficients must be finite")
    coeff = _unit(coeff, _norm(coeff))
    if coeff is None:
        raise ValueError("coefficients must not all vanish")
    if cfg is not None:
        report = certify(carrier, cfg)
        if report.verdict is not Verdict.PROTECTED:
            raise CarrierNotProtectedError(
                f"carrier failed certification (worst residual {report.worst_residual:.3e})"
            )
    return TimeBinQudit(coefficients=coeff, carrier=carrier)


@dataclass(frozen=True, eq=False)
class ChannelOutcome:
    """Transmission diagnostics of a time-bin qudit."""

    fidelity: float
    success_probability: float
    eigenvalues: np.ndarray  # per-bin carrier eigenvalue <c| lift(S_i) |c>
    worst_residual: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=complex))


def transmit_bins(
    qudit: TimeBinQudit,
    scatterings,
    residual_tol: float | None = None,
) -> ChannelOutcome:
    """Send the qudit through one scattering matrix per time bin.

    Fidelity is |<in|out>|^2 / ||out||^2 against the renormalized output and
    success probability is ||out||^2, with <in|out> = sum_i |a_i|^2 lam_i.
    Bin i maps the carrier to lam_i c plus an orthogonal part of norm r_i
    (its residual), so ||out||^2 = sum_i |a_i|^2 (|lam_i|^2 + r_i^2). When
    residual_tol is given, any bin whose image leaves the carrier ray by
    more than the tolerance raises CarrierNotProtectedError; a tolerance
    that is not finite and > 0 raises ValueError. A scatterer on another
    mode space than the carrier's raises ValueError.
    """
    if residual_tol is not None and not (math.isfinite(residual_tol) and residual_tol > 0):
        raise ValueError(f"residual_tol must be finite and > 0, got {residual_tol}")
    scatterings = list(scatterings)
    if len(scatterings) != qudit.d:
        raise ValueError(f"need one scattering per bin: {qudit.d} bins, {len(scatterings)} given")
    # each distinct scattering is lifted and applied once
    distinct = list({id(s): s for s in scatterings}.values())
    space = qudit.carrier.basis.space
    for s in distinct:
        if s.space != space:
            raise ValueError(
                f"scatterer on {space_to_json(s.space)} cannot act on a carrier on {space_to_json(space)}"
            )
    slot = {id(s): k for k, s in enumerate(distinct)}
    matrices = np.array([s.matrix for s in distinct])
    lam, residuals = _scalar_action(qudit.carrier.basis, matrices, qudit.carrier.amplitudes[:, None], {})
    bins = [slot[id(s)] for s in scatterings]
    lam, residuals = lam[bins], residuals[bins]
    if residual_tol is not None and np.any(residuals >= residual_tol):
        i = int(np.argmax(residuals >= residual_tol))
        raise CarrierNotProtectedError(
            f"bin {i}: carrier leaves its ray (residual {residuals[i]:.3e})"
        )
    weights = np.abs(qudit.coefficients) ** 2
    success = float(np.dot(weights, np.abs(lam) ** 2 + residuals**2))
    overlap = complex(np.dot(weights, lam))
    fidelity = 0.0 if success == 0.0 else float(abs(overlap) ** 2 / success)
    return ChannelOutcome(
        fidelity=fidelity,
        success_probability=success,
        eigenvalues=lam,
        worst_residual=float(residuals.max()),
    )


def transmit(
    qudit: TimeBinQudit,
    scattering: SymmetricScattering,
    residual_tol: float = 1e-10,
) -> ChannelOutcome:
    """Send the qudit through one static scatterer acting on every bin.

    Refuses (raises CarrierNotProtectedError) when the carrier is not
    protected under the given scattering; otherwise fidelity is 1 up to the
    residual tolerance and the success probability |lambda|^2 does not
    depend on the logical coefficients.
    """
    return transmit_bins(qudit, [scattering] * qudit.d, residual_tol=residual_tol)


def drift_experiment(
    qudit: TimeBinQudit,
    first: SymmetricScattering,
    second: SymmetricScattering,
) -> float:
    """Fidelity when the scatterer drifts between bins.

    Bins alternate first, second, first, ... For second = exp(i*theta) *
    first and d = 2 the fidelity is cos^2(N*theta/2); independent generic
    draws decohere the qudit and push fidelity strictly below 1.
    """
    bins = [first if i % 2 == 0 else second for i in range(qudit.d)]
    return transmit_bins(qudit, bins, residual_tol=None).fidelity


def erasure_capacity(epsilon: float, two_way: bool = False) -> float:
    """Quantum capacity of the erasure channel with loss probability epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if two_way:
        return 1.0 - epsilon
    return max(0.0, 1.0 - 2.0 * epsilon)
