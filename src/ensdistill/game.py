"""Distribution player of the distillation game.

Keeps the paired per-(sample, label) weight matrices, computes signed-residual
edges, and runs the exponential-weight (entropy mirror descent) update with
per-label normalization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ShapeError, check_finite

CHECK_PASS = "pass"
CHECK_FAIL = "fail"
CHECK_DEGENERATE = "degenerate"

# exp() overflows float64 just above 709; stay clear of it
EXP_ARG_LIMIT = 700.0


@dataclass(frozen=True)
class WeightState:
    """Paired nonnegative matrices over samples x labels.

    For every label j the combined mass sums to one:
    sum_i kplus(i,j) + kminus(i,j) == 1.
    """

    kplus: np.ndarray
    kminus: np.ndarray

    def validate(self, tol: float = 1e-9) -> None:
        for name, k in (("kplus", self.kplus), ("kminus", self.kminus)):
            check_finite(name, k)
            if k.min() < -tol or k.max() > 1.0 + tol:
                raise ValueError(f"{name} entries outside [0, 1]")
        sums = self.kplus.sum(axis=0) + self.kminus.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > tol:
            raise ValueError(f"per-label mass not 1: column sums {sums}")


@dataclass(frozen=True)
class EdgeRecord:
    """Per-round log row: the edge and normalizer per label."""

    edge_gamma: np.ndarray  # length L
    z: np.ndarray           # length L, all > 0


def init_uniform(n_samples: int, n_labels: int) -> WeightState:
    """Every entry of both matrices starts at 1/(2N)."""
    if n_samples < 1 or n_labels < 1:
        raise ValueError("need at least one sample and one label")
    k = np.full((n_samples, n_labels), 1.0 / (2.0 * n_samples))
    return WeightState(kplus=k, kminus=k.copy())


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{what}: shape {a.shape} vs {b.shape}")


def edge(state: WeightState, l: np.ndarray) -> np.ndarray:
    """Per-label signed correlation gamma(j) = sum_i (k+ - k-)(i,j) * l(i,j)."""
    _check_same_shape(state.kplus, l, "edge")
    return ((state.kplus - state.kminus) * l).sum(axis=0)


def weak_learning_check(state: WeightState, l: np.ndarray, edge_tol: float = 0.0) -> str:
    """Three-way verdict on a candidate's residuals.

    `degenerate` when kplus == kminus exactly (the initial state): every
    candidate then has gamma identically zero and strict positivity is
    unsatisfiable, so the caller must fall back to its loss-minimizing
    candidate.  Otherwise `pass` iff gamma(j) > edge_tol for every label;
    gamma exactly at the tolerance counts as fail.
    """
    if np.array_equal(state.kplus, state.kminus):
        return CHECK_DEGENERATE
    gamma = edge(state, l)
    return CHECK_PASS if np.all(gamma > edge_tol) else CHECK_FAIL


def md_update(state: WeightState, l: np.ndarray, eta: float) -> tuple[WeightState, EdgeRecord]:
    """One exponential-weight step: k+ *= exp(-eta*l), k- *= exp(+eta*l),
    then renormalize each label column to total mass one.

    The edge is recorded against the pre-update state, the normalizer against
    the post-update masses, matching the quantities in the convergence proof.
    """
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    _check_same_shape(state.kplus, l, "md_update")
    scaled = eta * np.asarray(l, dtype=np.float64)
    if np.max(np.abs(scaled)) > EXP_ARG_LIMIT:
        raise FloatingPointError(
            f"eta*|l| exceeds {EXP_ARG_LIMIT:.0f}; bound the logits before updating")
    gamma = edge(state, l)
    up = state.kplus * np.exp(-scaled)
    dn = state.kminus * np.exp(scaled)
    z = up.sum(axis=0) + dn.sum(axis=0)
    new_state = WeightState(kplus=up / z, kminus=dn / z)
    new_state.validate()
    return new_state, EdgeRecord(edge_gamma=gamma, z=z)


def normalizer_inequality_ok(edge_gamma: np.ndarray, z: np.ndarray, eta: float,
                             g_inf: float, slack: float = 1e-12) -> bool:
    """Per-round sanity from the proof: log z(j) <= -eta*gamma(j) + eta^2*G^2,
    valid whenever eta*G <= 1."""
    bound = -eta * np.asarray(edge_gamma) + (eta * g_inf) ** 2
    return bool(np.all(np.log(np.asarray(z)) <= bound + slack))

