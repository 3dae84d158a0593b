"""The sample size of priority sampling [Duffield, Lund, Thorup 2007].

The sampling itself — distributed, with and without replacement — lives in
:mod:`repro.streaming.priority_sampling`; the P3 protocols of both families
adapt it.
"""

from __future__ import annotations

import math

__all__ = ["sample_size_for_epsilon"]


def sample_size_for_epsilon(epsilon: float, constant: float = 1.0) -> int:
    """Return the paper's sample size ``s = Θ((1/ε²) log(1/ε))``.

    Parameters
    ----------
    epsilon:
        Target additive error (relative to the total weight).
    constant:
        Leading constant; 1.0 follows the paper's experimental configuration.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    log_term = max(1.0, math.log(1.0 / epsilon))
    return max(1, int(math.ceil(constant * log_term / (epsilon * epsilon))))
