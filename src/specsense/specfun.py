"""Scalar special-function kernel used by the closed-form sensing formulas.

Everything here is pure and stateless.  The regularized incomplete-gamma
pair and its inverse check their arguments and hand them to
``scipy.special`` (``gammaincc``, ``gammainc``, ``gammainccinv``), which
computes each of P and Q directly where it is small; against mpmath their
relative error stays below 1e-11 for s from 0.5 to 1e4
(``tests/test_specfun.py``).

``ln_bessel_k_int`` gives log K_M(x) of integer order M through the
exponentially scaled seeds ``k0e``/``k1e`` and the (stable) upward
three-term recurrence, carrying an explicit log-scale so that huge orders at
small argument neither overflow nor underflow; the averaged-detection closed
form needs it at large sample counts.
"""

from __future__ import annotations

import math

from scipy import special as _sp

_HYP_MAX_TERMS = 10_000


class ConvergenceError(RuntimeError):
    """An iterative numeric routine exhausted its iteration budget."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _finite(x: float, name: str) -> float:
    x = float(x)
    _require(math.isfinite(x), f"{name} must be finite, got {x!r}")
    return x


def _count(x, name: str, least: int = 1) -> int:
    """x as an int; ValueError, also for inf and nan, unless x is an integer >= least."""
    try:
        ok = int(x) == x and x >= least
    except (OverflowError, ValueError):  # int() of an infinity or a nan
        ok = False
    _require(ok, f"{name} must be an integer >= {least}, got {x!r}")
    return int(x)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = _finite(x, "x")
    _require(x > 0.0, f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def reg_upper_gamma(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s)."""
    s = _finite(s, "s")
    x = _finite(x, "x")
    _require(s > 0.0, f"reg_upper_gamma requires s > 0, got {s}")
    _require(x >= 0.0, f"reg_upper_gamma requires x >= 0, got {x}")
    return float(_sp.gammaincc(s, x))


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = 1 - Q(s, x)."""
    s = _finite(s, "s")
    x = _finite(x, "x")
    _require(s > 0.0, f"reg_lower_gamma requires s > 0, got {s}")
    _require(x >= 0.0, f"reg_lower_gamma requires x >= 0, got {x}")
    return float(_sp.gammainc(s, x))


def inv_reg_upper_gamma(s: float, p: float) -> float:
    """Solve Q(s, x) = p for x, with p in (0, 1); Q(s, .) is strictly decreasing."""
    s = _finite(s, "s")
    p = _finite(p, "p")
    _require(s > 0.0, f"inv_reg_upper_gamma requires s > 0, got {s}")
    _require(0.0 < p < 1.0, f"inv_reg_upper_gamma requires 0 < p < 1, got {p}")
    return float(_sp.gammainccinv(s, p))


def ln_bessel_k_int(order: int, x: float) -> float:
    """log K_M(x) for integer order M >= 0 and x > 0.

    Seeds the stable upward recurrence K_{m+1} = K_{m-1} + (2m/x) K_m with the
    exponentially scaled k0e/k1e and renormalizes on the fly, so the result is
    finite even where K_M itself overflows (large M, small x).
    """
    order = _count(order, "order", 0)
    x = _finite(x, "x")
    _require(x > 0.0, f"ln_bessel_k_int requires x > 0, got {x}")

    k_prev = float(_sp.k0e(x))  # e^x K_0(x)
    k_curr = float(_sp.k1e(x))  # e^x K_1(x)
    if order == 0:
        return math.log(k_prev) - x
    log_scale = 0.0
    for m in range(1, order):
        k_next = k_prev + (2.0 * m / x) * k_curr
        k_prev, k_curr = k_curr, k_next
        if k_curr > 1e250:
            k_prev /= 1e250
            k_curr /= 1e250
            log_scale += 250.0 * math.log(10.0)
    return math.log(k_curr) + log_scale - x


def hypergeom_1f2(a: float, b1: float, b2: float, z: float) -> float:
    """Generalized hypergeometric 1F2(a; b1, b2; z) by direct series.

    The series terminates when a term falls below 1e-14 of the running sum;
    more than 10^4 terms raises ConvergenceError.  Poles (nonpositive-integer
    b1 or b2) and a denominator that underflows to 0 raise ValueError.
    """
    a = _finite(a, "a")
    z = _finite(z, "z")
    for name, b in (("b1", b1), ("b2", b2)):
        b = _finite(b, name)
        _require(not (b <= 0.0 and abs(b - round(b)) < 1e-12),
                 f"{name}={b} is a nonpositive integer: pole of 1F2")
    term = 1.0
    total = 1.0
    for k in range(_HYP_MAX_TERMS):
        den = (b1 + k) * (b2 + k)
        if den == 0.0:
            raise ValueError(f"1F2 denominator (b1 + {k})(b2 + {k}) underflows to 0")
        term *= (a + k) * z / (den * (k + 1.0))
        total += term
        if abs(term) < 1e-14 * abs(total):
            return total
    raise ConvergenceError(
        f"1F2 series did not converge within {_HYP_MAX_TERMS} terms at z={z}")


def harmonic(q: int) -> float:
    """Q-th harmonic number, summed in increasing index order.

    Sequential summation makes harmonic(Q) - harmonic(Q-1) == 1/Q exact
    in floating point, which downstream identities rely on.
    """
    total = 0.0
    for k in range(1, _count(q, "harmonic Q") + 1):
        total += 1.0 / k
    return total


def log_binom(n: int, k: int) -> float:
    """ln C(n, k) via ln_gamma, for integers 0 <= k <= n."""
    n, k = _count(n, "log_binom N", 0), _count(k, "log_binom k", 0)
    _require(k <= n, f"log_binom requires k <= N, got k={k}, N={n}")
    return ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)
