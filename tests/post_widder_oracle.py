"""The classical Post-Widder estimator from a derivative oracle: the tests'
reference for `qlaplace.inverse.q_post_widder`, which at q = 1 is this
estimator summed over a power series.
"""

from __future__ import annotations

import math

from qlaplace.errors import DomainError, QLaplaceError
from qlaplace.qmath import _integer_arg


def classical_post_widder(F_deriv, t: float, k: int) -> float:
    """Finite-k classical estimate (-1)**k/k! * s**(k+1) * F^(k)(s) at s = k/t.

    ``F_deriv`` is a derivative oracle: a callable (k, s) -> F^(k)(s)
    backed by an exact series or a closed form (finite differences are
    hopeless at this order and are deliberately not offered).  Error
    decays like O(1/k) for smooth f.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be finite and positive, got t = {t}")
    k = _integer_arg("k", k, 1)
    s = k / t
    d = float(F_deriv(k, s))
    if not math.isfinite(d):
        raise QLaplaceError(f"derivative oracle returned non-finite value at k={k}, s={s}")
    if d == 0.0:
        return 0.0
    log_mag = math.log(abs(d)) + (k + 1) * math.log(s) - math.lgamma(k + 1)
    sign = math.copysign(1.0, d) * (-1.0 if k % 2 else 1.0)
    try:
        return sign * math.exp(log_mag)
    except OverflowError:
        raise QLaplaceError("estimate overflows double precision despite log-domain handling")

