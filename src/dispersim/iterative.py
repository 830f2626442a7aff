"""Iterative inversion of sampled LTI responses.

Given a response H, the error response E = 1 - mu*H measures its deviation
from (scaled) identity. When max|E| < 1 over the band of interest, the
geometric partial sums 1 + E + ... + E^K converge bin-wise to 1/(mu*H), so
repeatedly applying E and re-adding the input realizes an approximate
inverse of H. Everything here is diagonal in the frequency basis, so all
operations are bin-wise on sampled transfer functions.
"""

from dataclasses import dataclass

import numpy as np

from .signal import Envelope, GridMismatchError, TransferFunction, apply_tf, is_integer

#: Strictness margin for contraction tests, avoids boundary flapping.
CONTRACTION_MARGIN = 1e-9


@dataclass(frozen=True)
class IterationSpec:
    """Number of error-operator applications and the scaling factor mu."""

    k_terms: int
    mu: float = 1.0

    def __post_init__(self):
        if not is_integer(self.k_terms):
            raise ValueError("k_terms must be an integer")
        if self.k_terms < 0:
            raise ValueError("k_terms must be non-negative")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be positive")


def error_tf(h: TransferFunction, mu: float = 1.0) -> TransferFunction:
    """Error response 1 - mu*h, bin-wise."""
    return TransferFunction(h.grid, 1.0 - mu * h.values)


def neumann_sum_tf(h: TransferFunction, spec: IterationSpec) -> TransferFunction:
    """Partial geometric sum S_K = sum_{j=0..K} (1 - mu*h)^j, bin-wise.

    Convergence is not required to evaluate the sum; it is only needed for
    S_K to approximate 1/(mu*h).
    """
    for acc in partial_sums(1.0 - spec.mu * h.values, spec.k_terms):
        pass
    return TransferFunction(h.grid, acc)


def partial_sums(e: np.ndarray, k_max: int):
    """Yield S_k = S_{k-1} + e^k = sum_{j=0..k} e^j for k = 0..k_max, bin-wise.

    Each yield is a fresh array. The running power e^k is dropped before
    the last yield, so a caller that keeps only S_{k_max} holds one array less.
    """
    term = np.ones_like(e)
    acc = np.ones_like(e)
    for _ in range(k_max):
        yield acc
        term = term * e
        acc = acc + term
    del term
    yield acc


def feedback_run(
    e_in: Envelope, h: TransferFunction, spec: IterationSpec
) -> Envelope:
    """Closed-loop realization of the truncated sum.

    Starting from y = input, the loop body y <- input + E{y} runs exactly
    ``spec.k_terms`` times; the result equals applying
    :func:`neumann_sum_tf` directly.
    """
    if e_in.grid != h.grid:
        raise GridMismatchError("input and response must share a grid")
    err = error_tf(h, spec.mu)
    y = e_in
    for _ in range(spec.k_terms):
        fed_back = apply_tf(y, err)
        y = Envelope(e_in.grid, e_in.samples + fed_back.samples)
    return y
