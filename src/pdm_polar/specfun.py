"""Minimal special-function kernel: gamma, Bessel J, associated Laguerre.

Self-contained on purpose, so closed-form wavefunctions and spectra are
validated through code that shares nothing with the finite-difference
solver.  Methods are the classical ones:

* gamma: Lanczos approximation (g = 7, 9 terms) with reflection for x < 1/2,
  cf. Numerical Recipes ch. 6 / Abramowitz & Stegun 6.1.
* Bessel J: ascending power series for small argument, Miller's downward
  recurrence with sum normalization for the rest (A&S 9.12); half-integer
  orders run Miller's recurrence on the spherical j_n, normalized through
  the Legendre-at-zero sum, and are scaled by sqrt(2x/pi).
* associated Laguerre: stable three-term recurrence in the degree.

Only integer and half-integer Bessel orders are supported; that is all the
separable models ever produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError

# Lanczos coefficients for g = 7.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# beyond this the alternating series loses enough digits to cancellation to
# matter; Miller's recurrence is uniformly machine-accurate there
_SERIES_CUTOFF = 2.0
# Miller's recurrence starts above max(nu, x), so its cost grows with both;
# far past this cap a call would not end in any useful time
_ARG_MAX = 1e4


@dataclass(frozen=True)
class BesselOrder:
    """Order nu = twice_order / 2; integer and half-integer, nu >= 0."""

    twice_order: int

    def __post_init__(self):
        if self.twice_order < 0:
            raise ValueError(f"order must be >= 0, got nu = {self.twice_order}/2")

    @classmethod
    def from_value(cls, nu) -> "BesselOrder":
        two_nu = 2 * Fraction(nu) if isinstance(nu, Fraction) else round(2 * float(nu), 10)
        if float(two_nu) != int(two_nu):
            raise ValueError(f"only integer and half-integer orders supported, got nu = {nu}")
        return cls(int(two_nu))

    @property
    def value(self) -> float:
        return self.twice_order / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_order % 2 == 0


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, poles excluded.

    Raises PoleError at non-positive integers.  Good to better than ten
    significant digits on (0, 50].
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def _as_order(nu) -> BesselOrder:
    if isinstance(nu, BesselOrder):
        return nu
    return BesselOrder.from_value(nu)


def _bessel_series(nu: float, x: float, max_terms: int = 60) -> float:
    """Ascending series sum_k (-1)^k (x/2)^(2k+nu) / (k! gamma(k+nu+1))."""
    half = 0.5 * x
    term = half**nu / gamma_fn(nu + 1.0)
    total = term
    for k in range(1, max_terms):
        term *= -(half * half) / (k * (k + nu))
        total += term
        if abs(term) <= 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _miller_integer(n: int, x: float) -> float:
    """J_n(x) by downward recurrence, normalized with J_0 + 2 sum J_2k = 1."""
    m_hi = int(max(n, x) + 16 + 3.0 * math.sqrt(max(n, x) + 1.0))
    jp = 0.0
    jc = 1e-30
    total = 2.0 * jc if (m_hi % 2 == 0 and m_hi > 0) else 0.0
    result = jc if m_hi == n else 0.0
    for k in range(m_hi, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        if k - 1 == n:
            result = jc
        if (k - 1) % 2 == 0 and k - 1 > 0:
            total += 2.0 * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            total *= 1e-250
            result *= 1e-250
    total += jc  # k = 0 term
    return result / total


# P_{2k}(0) = (-1)^k (2k-1)!! / (2k)!!; used to normalize the spherical chain
# through the identity sum_k (4k+1) |P_{2k}(0)| j_2k(x) = 1.
def _miller_spherical(n: int, x: float) -> float:
    """Spherical j_n(x) by downward recurrence with the Legendre-at-zero sum."""
    m_hi = int(max(n, x) + 16 + 3.0 * math.sqrt(max(n, x) + 1.0))
    jp = 0.0
    jc = 1e-30
    result = jc if m_hi == n else 0.0
    # p2k0[k] = |P_{2k}(0)| = prod_{i=1..k} (2i-1)/(2i), one running product
    p2k0 = [1.0]
    for i in range(1, m_hi // 2 + 1):
        p2k0.append(p2k0[-1] * ((2 * i - 1) / (2 * i)))

    total = (2 * m_hi + 1) * p2k0[m_hi // 2] * jc if m_hi % 2 == 0 else 0.0
    for k in range(m_hi, 0, -1):
        jm = ((2.0 * k + 1.0) / x) * jc - jp
        jp, jc = jc, jm
        if k - 1 == n:
            result = jc
        if (k - 1) % 2 == 0:
            half = (k - 1) // 2
            total += (4 * half + 1) * p2k0[half] * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            total *= 1e-250
            result *= 1e-250
    return result / total


def bessel_j(nu, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for x >= 0.

    nu may be a BesselOrder or any number equal to an integer or
    half-integer.  Absolute accuracy is 1e-10 or better for x <= 50.
    Raises ValueError for x outside [0, 1e4], nan included, or nu > 1e4.
    """
    order = _as_order(nu)
    x = float(x)
    if not (0.0 <= x <= _ARG_MAX and order.value <= _ARG_MAX):
        raise ValueError(f"need 0 <= x <= {_ARG_MAX:g} and nu <= {_ARG_MAX:g}, "
                         f"got nu = {order.value}, x = {x}")
    v = order.value
    if x == 0.0:
        return 1.0 if order.twice_order == 0 else 0.0
    if x <= _SERIES_CUTOFF:
        return _bessel_series(v, x)
    if order.is_integer:
        return _miller_integer(int(v), x)
    n_sph = (order.twice_order - 1) // 2
    return _miller_spherical(n_sph, x) * math.sqrt(2.0 * x / math.pi)


def laguerre_assoc(n: int, alpha: float, x: float) -> float:
    """Associated Laguerre polynomial L_n^(alpha)(x), n >= 0, alpha > -1.

    Uses the three-term recurrence
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"degree must be a non-negative integer, got {n}")
    if alpha <= -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    n = int(n)
    l_prev = 1.0
    if n == 0:
        return l_prev
    l_curr = 1.0 + alpha - x
    for k in range(1, n):
        l_next = ((2.0 * k + 1.0 + alpha - x) * l_curr - (k + alpha) * l_prev) / (k + 1.0)
        l_prev, l_curr = l_curr, l_next
    return l_curr
