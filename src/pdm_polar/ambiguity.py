"""Kinetic-operator ordering exponents and the scalar combinations built from them.

A position-dependent mass enters the kinetic energy operator through three
mass powers m^gamma grad m^beta . grad m^alpha (symmetrized), constrained by
alpha + beta + gamma = -1.  Different admissible choices of the triple are
known in the literature under the names collected in :class:`Ordering`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ConfigError

CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True)
class AmbiguitySet:
    """A validated ordering triple (alpha, beta, gamma) with alpha+beta+gamma = -1."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        total = self.alpha + self.beta + self.gamma
        if abs(total + 1.0) > CONSTRAINT_TOL:
            raise ConfigError(
                f"ordering exponents must sum to -1, got {total!r} "
                f"for ({self.alpha}, {self.beta}, {self.gamma})"
            )


class Ordering(Enum):
    """Named orderings from the literature, stored as exact rationals."""

    GORA_WILLIAMS = (Fraction(-1), Fraction(0), Fraction(0))
    BENDANIEL_DUKE = (Fraction(0), Fraction(-1), Fraction(0))
    ZHU_KROEMER = (Fraction(-1, 2), Fraction(0), Fraction(-1, 2))
    LI_KUHN = (Fraction(0), Fraction(-1, 2), Fraction(-1, 2))
    MUSTAFA_MAZHARIMOUSAVI = (Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 4))

    @property
    def triple(self) -> tuple[Fraction, Fraction, Fraction]:
        return self.value

    @property
    def token(self) -> str:
        return self.name.lower().replace("_", "-")

    def ambiguity(self) -> AmbiguitySet:
        a, b, g = self.value
        return AmbiguitySet(float(a), float(b), float(g))


_TOKEN_MAP = {o.token: o for o in Ordering}


def make_ambiguity(alpha: float, beta: float, gamma: float) -> AmbiguitySet:
    """Validate and return the ordering triple.

    Raises ConfigError when |alpha+beta+gamma+1| > 1e-12.  The
    tolerance admits decimal literals while still catching typos.
    """
    return AmbiguitySet(float(alpha), float(beta), float(gamma))


def parse_ordering_token(token: str) -> AmbiguitySet:
    """Resolve a CLI ordering token.

    Accepted forms: the named tokens (``gora-williams``, ``bendaniel-duke``,
    ``zhu-kroemer``, ``li-kuhn``, ``mustafa-mazharimousavi``) or
    ``custom:ALPHA,BETA,GAMMA``.
    """
    token = token.strip().lower()
    if token in _TOKEN_MAP:
        return _TOKEN_MAP[token].ambiguity()
    if token.startswith("custom:"):
        body = token[len("custom:"):]
        parts = body.split(",")
        if len(parts) != 3:
            raise ConfigError(f"custom ordering needs three comma-separated values, got {body!r}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"cannot parse custom ordering {body!r}") from exc
        return make_ambiguity(*values)
    raise ConfigError(
        f"unknown ordering token {token!r}; expected one of "
        f"{sorted(_TOKEN_MAP)} or custom:ALPHA,BETA,GAMMA"
    )


def xi(a: AmbiguitySet) -> float:
    """alpha(alpha-1) + gamma(gamma-1) - beta(beta+1)."""
    return (
        a.alpha * (a.alpha - 1.0)
        + a.gamma * (a.gamma - 1.0)
        - a.beta * (a.beta + 1.0)
    )


def bracket(a: AmbiguitySet) -> float:
    """alpha^2 + gamma^2 - beta(beta+1).

    This is the constant angular weight for a flat mass profile and the
    subtractive term in every closed-form energy of the flat-profile models.
    """
    return a.alpha * a.alpha + a.gamma * a.gamma - a.beta * (a.beta + 1.0)


def constraint27_expression(a: AmbiguitySet) -> float:
    """alpha(alpha-1/2) + gamma(gamma-1/2) - beta(beta+1)."""
    return (
        a.alpha * (a.alpha - 0.5)
        + a.gamma * (a.gamma - 0.5)
        - a.beta * (a.beta + 1.0)
    )


def check_constraint27(a: AmbiguitySet) -> bool:
    """True when the triple also satisfies the zero-potential angular gate.

    The gate requires alpha(alpha-1/2)+gamma(gamma-1/2)-beta(beta+1) = 5/8;
    together with lambda = -3/4 it removes the angular effective potential of
    the cos^2 mass profile entirely.
    """
    return abs(constraint27_expression(a) - 0.625) <= CONSTRAINT_TOL


def swap_alpha_gamma(a: AmbiguitySet) -> AmbiguitySet:
    """The triple with alpha and gamma exchanged; still a valid ordering."""
    return AmbiguitySet(a.gamma, a.beta, a.alpha)
