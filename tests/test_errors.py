"""One error type per exit code: each refusal raises the type the CLI maps to it."""

import math

import numpy as np
import pytest

from pdm_polar import (
    CosSquaredProfile,
    Grid,
    Ordering,
    TabulatedProfile,
    discretize,
    make_ambiguity,
    pct_map,
    w_eff,
)
from pdm_polar.errors import ConfigError, DomainError

MM = Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity()


def non_uniform_table():
    phi = np.linspace(0.0, 2.0 * math.pi, 64)
    phi[10] += 1e-3
    return TabulatedProfile(phi, np.ones(64), np.zeros(64), np.zeros(64))


@pytest.mark.parametrize("refusal, error, message", [
    (lambda: w_eff(CosSquaredProfile(), MM, 0.0, math.pi / 2.0), DomainError, "is below 1e-08"),
    (lambda: pct_map(CosSquaredProfile(), 1.6), DomainError, "crosses the mass zero"),
    (non_uniform_table, DomainError, "phi grid must be uniform and increasing"),
    (lambda: discretize(lambda x: np.full_like(x, np.inf), Grid(0.0, 1.0, 31)),
     DomainError, "potential is inf at x = 0.03125"),
    (lambda: make_ambiguity(0.0, 0.0, 0.0), ConfigError, "must sum to -1"),
], ids=["w-eff-mass-zero", "pct-map-across-mass-zero", "tabulated-non-uniform",
        "discretize-singular", "ordering-sum"])
def test_refusal_raises_the_type_of_its_exit_code(refusal, error, message):
    with pytest.raises(error, match=message) as caught:
        refusal()
    assert type(caught.value) is error
    # a domain error is a ValueError too; a configuration error is not
    assert isinstance(caught.value, ValueError) == (error is DomainError)
