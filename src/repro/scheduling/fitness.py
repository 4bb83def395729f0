"""Dynamic cost-to-fitness scaling — eq. (9).

"The cost value is then normalised to a fitness value using a dynamic
scaling technique::

    f_v^k = (f_c^max − f_c^k) / (f_c^max − f_c^min)

where f_c^max and f_c^min represent the best and worst cost value in the
scheduling set."  (In cost terms f_c^min is the *best* — lowest — cost and
f_c^max the worst; the resulting fitness is 1 for the best solution and 0
for the worst, rescaled every generation, which keeps selection pressure
constant as the population converges.)
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = ["scale_fitness"]


def scale_fitness(costs: Sequence[float]) -> np.ndarray:
    """Map population costs to fitness values in ``[0, 1]`` per eq. (9).

    When every cost is identical (a fully converged population) all
    solutions receive fitness 1.0, making selection uniform.

    Raises
    ------
    ValidationError
        If *costs* is empty or contains non-finite values.
    """
    arr = np.asarray(costs, dtype=float)
    if arr.size == 0:
        raise ValidationError("costs must not be empty")
    # max and min propagate NaN and reach ±inf, so both finite ⟺ all finite.
    worst = float(np.maximum.reduce(arr, axis=None))
    best = float(np.minimum.reduce(arr, axis=None))
    if not (math.isfinite(worst) and math.isfinite(best)):
        raise ValidationError("costs must be finite")
    if worst == best:
        ones = np.empty(arr.shape)
        ones.fill(1.0)
        return ones
    return (worst - arr) / (worst - best)
