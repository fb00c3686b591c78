"""Minimal special-function kernel: Bessel J and associated Laguerre.

Self-contained on purpose, so closed-form wavefunctions and spectra are
validated through code that shares nothing with the finite-difference
solver.  Methods are the classical ones:

* Bessel J: ascending power series for small argument, Miller's downward
  recurrence with sum normalization for the rest (A&S 9.12); half-integer
  orders run Miller's recurrence on the spherical j_n, normalized through
  the Legendre-at-zero sum, and are scaled by sqrt(2x/pi).  The series'
  leading term (x/2)^nu / gamma(nu + 1) is a product of factors at most 1,
  so no gamma function is evaluated, and every order nu <= 1e4 gives a
  finite value at every x, 0.0 where J_nu underflows.
* associated Laguerre: stable three-term recurrence in the degree.

Only integer and half-integer Bessel orders are supported; that is all the
separable models ever produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

# beyond this the alternating series loses enough digits to cancellation to
# matter; Miller's recurrence is uniformly machine-accurate there
_SERIES_CUTOFF = 2.0
# Miller's recurrence starts above max(nu, x), so its cost grows with both;
# far past this cap a call would not end in any useful time
_ARG_MAX = 1e4
# for x <= 2 the series terms shrink like 1/(k!)^2: 13 reach 1e-18 of the sum
_SERIES_TERMS = 60


@dataclass(frozen=True)
class BesselOrder:
    """Order nu = twice_order / 2; integer and half-integer, nu >= 0."""

    twice_order: int

    def __post_init__(self):
        if self.twice_order < 0:
            raise DomainError(f"order must be >= 0, got nu = {self.twice_order}/2")

    @classmethod
    def from_value(cls, nu) -> "BesselOrder":
        two_nu = 2 * Fraction(nu) if isinstance(nu, Fraction) else round(2 * float(nu), 10)
        if float(two_nu) != int(two_nu):
            raise DomainError(f"only integer and half-integer orders supported, got nu = {nu}")
        return cls(int(two_nu))

    @property
    def value(self) -> float:
        return self.twice_order / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_order % 2 == 0


def _as_order(nu) -> BesselOrder:
    if isinstance(nu, BesselOrder):
        return nu
    return BesselOrder.from_value(nu)


def _bessel_series(order: BesselOrder, x: float) -> float:
    """Ascending series sum_k (-1)^k (x/2)^(2k+nu) / (k! gamma(k+nu+1)).

    With nu = n + s, s = 0 or 1/2, the leading term is
    c prod_{j=1..n} (x/2) / (j + s), where c = 1 for an integer order and
    sqrt(x/2) / gamma(3/2) for a half-integer one.  For x <= 2 every factor
    is at most 1, so a large order underflows to 0.0 and never overflows.
    """
    half = 0.5 * x
    n, odd = divmod(order.twice_order, 2)
    s = 0.5 * odd
    term = math.sqrt(half) * (2.0 / math.sqrt(math.pi)) if odd else 1.0
    for j in range(1, n + 1):
        term *= half / (j + s)
    nu = order.value
    total = term
    for k in range(1, _SERIES_TERMS):
        term *= -(half * half) / (k * (k + nu))
        total += term
        if abs(term) <= 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _miller(n: int, x: float, spherical: bool) -> float:
    """J_n(x), or the spherical j_n(x), by downward recurrence with sum normalization.

    J_n is normalized with J_0 + 2 sum_k J_2k = 1, and j_n with the
    Legendre-at-zero sum sum_k (4k+1) |P_2k(0)| j_2k = 1, where
    P_2k(0) = (-1)^k (2k-1)!! / (2k)!!.
    """
    m_hi = int(max(n, x) + 16 + 3.0 * math.sqrt(max(n, x) + 1.0))
    # weight[h] multiplies the even-index term 2h of the normalization sum
    if spherical:
        # |P_2h(0)| = prod_{i=1..h} (2i-1)/(2i), one running product
        p2h0 = 1.0
        weight = [1.0]
        for i in range(1, m_hi // 2 + 1):
            p2h0 *= (2 * i - 1) / (2 * i)
            weight.append((4 * i + 1) * p2h0)
    else:
        weight = [1.0] + [2.0] * (m_hi // 2)
    # the recurrence factor's numerator, 2k for J_n and 2k + 1 for j_n, exact
    # in floating point for every k the sweep reaches
    numerator = 2.0 * m_hi + (1.0 if spherical else 0.0)
    jp = 0.0
    jc = 1e-30
    total = weight[m_hi // 2] * jc if m_hi % 2 == 0 else 0.0
    result = jc if m_hi == n else 0.0
    for k in range(m_hi, 0, -1):
        jm = (numerator / x) * jc - jp
        numerator -= 2.0
        jp, jc = jc, jm
        if k - 1 == n:
            result = jc
        if (k - 1) % 2 == 0:
            total += weight[(k - 1) // 2] * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            total *= 1e-250
            result *= 1e-250
    return result / total


def bessel_j(nu, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for x >= 0.

    nu may be a BesselOrder or any number equal to an integer or
    half-integer.  Absolute accuracy is 1e-10 or better for x <= 50.  Every
    nu <= 1e4 gives a finite value at every x in [0, 1e4], and 0.0 where the
    value underflows.  Raises DomainError for x outside [0, 1e4], nan
    included, or nu > 1e4.
    """
    order = _as_order(nu)
    x = float(x)
    if not (0.0 <= x <= _ARG_MAX and order.value <= _ARG_MAX):
        raise DomainError(f"need 0 <= x <= {_ARG_MAX:g} and nu <= {_ARG_MAX:g}, "
                          f"got nu = {order.value}, x = {x}")
    v = order.value
    if x == 0.0:
        return 1.0 if order.twice_order == 0 else 0.0
    if x <= _SERIES_CUTOFF:
        return _bessel_series(order, x)
    if order.is_integer:
        return _miller(int(v), x, spherical=False)
    n_sph = (order.twice_order - 1) // 2
    return _miller(n_sph, x, spherical=True) * math.sqrt(2.0 * x / math.pi)


def laguerre_assoc(n: int, alpha: float, x: float) -> float:
    """Associated Laguerre polynomial L_n^(alpha)(x), n >= 0, alpha > -1.

    Uses the three-term recurrence
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"degree must be a non-negative integer, got {n}")
    if alpha <= -1.0:
        raise DomainError(f"alpha must be > -1, got {alpha}")
    n = int(n)
    l_prev = 1.0
    if n == 0:
        return l_prev
    l_curr = 1.0 + alpha - x
    for k in range(1, n):
        l_next = ((2.0 * k + 1.0 + alpha - x) * l_curr - (k + alpha) * l_prev) / (k + 1.0)
        l_prev, l_curr = l_curr, l_next
    return l_curr
