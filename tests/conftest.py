"""Shared fixtures and references: named orderings, random ordering draws,
model files, the zero-potential records of the scan ring, and the
plain-Python solver references the tests compare against (a Sturm count, a
node count and the operator's product)."""

import json
import struct

import numpy as np
import pytest

from pdm_polar import Ordering, QuantumNumbers, SpectrumRecord, make_ambiguity
from pdm_polar.eigensolve import PERIODIC
from pdm_polar.models import scan_level


@pytest.fixture
def named_orderings():
    return {o.token: o.ambiguity() for o in Ordering}


@pytest.fixture
def rng():
    return np.random.default_rng(20101029)


def random_ordering(rng, scale=2.0):
    """A valid random triple: alpha, gamma free, beta fixed by the sum rule."""
    alpha = float(rng.uniform(-scale, scale))
    gamma = float(rng.uniform(-scale, scale))
    return make_ambiguity(alpha, -1.0 - alpha - gamma, gamma)


def zero_zeta_records(m_max, n_points):
    """Records (n_rho = 0, m), |m| <= m_max, of the scan ring's levels at the
    paper's zero-potential point, the gate ordering at lambda = -3/4, each
    set against its closed value m^2/2.

    The levels ascend as m = 0, -1, 1, -2, 2, ...: index j has
    |m| = (j + 1) // 2, so +m and -m read two different levels.
    """
    gate = Ordering.MUSTAFA_MAZHARIMOUSAVI.ambiguity()
    records = []
    for j in range(2 * m_max + 1):
        m = (-1) ** j * ((j + 1) // 2)
        numeric = scan_level(gate, -0.75, state_index=j, n_points=n_points)
        records.append(SpectrumRecord(qn=QuantumNumbers(0, m), lam=-0.75,
                                      energy_closed=0.5 * m * m, energy_numeric=numeric))
    return records


def float_bits(values) -> list[bytes]:
    """The IEEE bytes of each float, so that equality also tells -0.0 from 0.0."""
    return [struct.pack("<d", value) for value in values]


def write_model(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.fixture
def coulomb_model_file(tmp_path):
    return write_model(
        tmp_path,
        "coulomb.json",
        {
            "f": "flat",
            "potential": {"coulomb_like": {"omega": 1.0 / 3.0}},
            "ordering": "bendaniel-duke",
        },
    )


@pytest.fixture
def oscillator_model_file(tmp_path):
    return write_model(
        tmp_path,
        "oscillator.json",
        {
            "f": "flat",
            "potential": {"oscillator_like": {"a": 1.0, "d": 4.0}},
            "ordering": "bendaniel-duke",
        },
    )


@pytest.fixture
def flat_model_file(tmp_path):
    return write_model(
        tmp_path,
        "flat.json",
        {"f": "flat", "ordering": "bendaniel-duke"},
    )


@pytest.fixture
def cos2_model_file(tmp_path):
    return write_model(
        tmp_path,
        "cos2.json",
        {
            "f": "cos2",
            "potential": {"power_well": {"v0": 1.0, "k": 1}},
            "ordering": "mustafa-mazharimousavi",
        },
    )


def sturm_count_below(diagonal, off_diagonal, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below x.

    Classic negative-pivot count of the shifted LDL^T recurrence: the count
    oracle for the solver's LAPACK Sturm counts.
    """
    count = 0
    q = float(diagonal[0]) - x
    if q < 0.0:
        count += 1
    tiny = 1e-300
    for i in range(1, len(diagonal)):
        if q == 0.0:
            q = tiny
        q = (float(diagonal[i]) - x) - float(off_diagonal[i - 1]) ** 2 / q
        if q < 0.0:
            count += 1
    return count


def sign_changes(v) -> int:
    """Count strict sign alternations of a vector, ignoring entries below
    1e-8 of its largest magnitude."""
    cutoff = 1e-8 * float(np.max(np.abs(v)))
    signs = np.sign(v[np.abs(v) > cutoff])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def matvec(op, v):
    """The product of a DiscretizedOperator and a vector; a ring's corner
    entries equal ``off_diagonal[0]``."""
    out = op.diagonal * v
    out[:-1] += op.off_diagonal * v[1:]
    out[1:] += op.off_diagonal * v[:-1]
    if op.grid.boundary == PERIODIC:
        out[0] += op.off_diagonal[0] * v[-1]
        out[-1] += op.off_diagonal[0] * v[0]
    return out
