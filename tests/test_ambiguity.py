"""Ordering triples, their scalar combinations, and the named catalog."""

import pytest

from pdm_polar import (
    Ordering,
    bracket,
    check_constraint27,
    constraint27_expression,
    make_ambiguity,
    parse_ordering_token,
    swap_alpha_gamma,
    xi,
)
from pdm_polar.errors import ConfigError

from conftest import random_ordering


def test_named_orderings_are_valid():
    for ordering in Ordering:
        a = ordering.ambiguity()
        assert a.alpha + a.beta + a.gamma == -1.0


def test_named_ordering_exact_triples():
    zk = Ordering.ZHU_KROEMER.ambiguity()
    assert (zk.alpha, zk.beta, zk.gamma) == (-0.5, 0.0, -0.5)
    mm = Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity()
    assert (mm.alpha, mm.beta, mm.gamma) == (-0.25, -0.5, -0.25)


def test_make_ambiguity_accepts_catalog_values():
    assert make_ambiguity(-0.25, -0.5, -0.25) is not None
    assert make_ambiguity(0.0, -1.0, 0.0) is not None


def test_make_ambiguity_rejects_bad_sum():
    with pytest.raises(ConfigError, match="must sum to -1"):
        make_ambiguity(0.0, 0.0, 0.0)


def test_constraint_tolerance_edges():
    make_ambiguity(-0.25 + 5e-13, -0.5, -0.25)  # within 1e-12
    with pytest.raises(ConfigError, match="must sum to -1"):
        make_ambiguity(-0.25 + 5e-12, -0.5, -0.25)


@pytest.mark.parametrize(
    "ordering, expected",
    [
        (Ordering.BENDANIEL_DUKE, 0.0),
        (Ordering.MUSTAFA_MAZHARIMOUSAVI, 7.0 / 8.0),
        (Ordering.ZHU_KROEMER, 1.5),
        (Ordering.GORA_WILLIAMS, 2.0),
        (Ordering.LI_KUHN, 1.0),
    ],
)
def test_xi_values(ordering, expected):
    assert xi(ordering.ambiguity()) == expected


@pytest.mark.parametrize(
    "ordering, expected",
    [
        (Ordering.BENDANIEL_DUKE, 0.0),
        (Ordering.MUSTAFA_MAZHARIMOUSAVI, 3.0 / 8.0),
        (Ordering.GORA_WILLIAMS, 1.0),
        (Ordering.ZHU_KROEMER, 0.5),
        (Ordering.LI_KUHN, 0.5),
    ],
)
def test_bracket_values(ordering, expected):
    assert bracket(ordering.ambiguity()) == expected


def test_constraint27_gate():
    assert check_constraint27(Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity())
    for other in (
        Ordering.BENDANIEL_DUKE,
        Ordering.ZHU_KROEMER,
        Ordering.GORA_WILLIAMS,
        Ordering.LI_KUHN,
    ):
        assert not check_constraint27(other.ambiguity())


def test_constraint27_expression_values():
    assert constraint27_expression(Ordering.BENDANIEL_DUKE.ambiguity()) == 0.0
    assert constraint27_expression(Ordering.ZHU_KROEMER.ambiguity()) == 1.0


def test_alpha_gamma_swap_symmetry(rng):
    for _ in range(300):
        a = random_ordering(rng)
        b = swap_alpha_gamma(a)
        assert xi(a) == xi(b)
        assert bracket(a) == bracket(b)
        assert check_constraint27(a) == check_constraint27(b)


def test_bracket_minus_xi_is_alpha_plus_gamma(rng):
    for _ in range(300):
        a = random_ordering(rng)
        assert abs((bracket(a) - xi(a)) - (a.alpha + a.gamma)) <= 1e-12


def test_parse_ordering_tokens():
    for ordering in Ordering:
        parsed = parse_ordering_token(ordering.token)
        assert parsed == ordering.ambiguity()
    custom = parse_ordering_token("custom:-0.5,0,-0.5")
    assert custom == Ordering.ZHU_KROEMER.ambiguity()


def test_parse_ordering_rejects_junk():
    with pytest.raises(ConfigError):
        parse_ordering_token("weyl")
    with pytest.raises(ConfigError):
        parse_ordering_token("custom:1,2")
    with pytest.raises(ConfigError, match="must sum to -1"):
        parse_ordering_token("custom:0,0,0")
