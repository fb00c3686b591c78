"""Separable position-dependent-mass models in plane polar coordinates."""

from .ambiguity import (
    AmbiguitySet,
    Ordering,
    bracket,
    check_constraint27,
    constraint27_expression,
    make_ambiguity,
    parse_ordering_token,
    swap_alpha_gamma,
    xi,
)
from .eigensolve import (
    DIRICHLET,
    PERIODIC,
    DiscretizedOperator,
    EigenResult,
    Grid,
    discretize,
    eigen_lowest,
    observed_order,
    refine,
)
from .models import (
    QuantumNumbers,
    SpectrumRecord,
    all_within,
    coulomb_energy,
    coulomb_numeric_level,
    degeneracy_report,
    flat_energy,
    heun_regime_scan,
    oscillator_energy,
    oscillator_numeric_level,
    scan_curve,
    toy_radial_solution,
    verify_coulomb,
    verify_oscillator,
)
from .separation import (
    AngularProblem,
    CosSquaredProfile,
    CoulombLike,
    ExactRadial,
    FlatProfile,
    OscillatorLike,
    PowerWell,
    RadialProblem,
    SeparableModel,
    TabulatedProfile,
    angular_problem,
    angular_wavefunction_recompose,
    coulomb_lambda,
    load_model,
    model_from_dict,
    oscillator_lambda,
    pct_map,
    radial_problem,
    radial_to_R,
    w_eff,
    w_tilde,
    zeta_coefficients,
)
from .specfun import BesselOrder, bessel_j, laguerre_assoc

__version__ = "0.1.0"
