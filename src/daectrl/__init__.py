"""Exact-arithmetic controllability analysis for linear DAE systems
d/dt(Ex) = Ax + Bu, plus seeded Monte Carlo genericity surveys."""

from .algebra import (
    Poly,
    hurwitz_stable,
    poly_eval,
    poly_gcd,
    resultant,
    sylvester,
)
from .criteria import (
    AS_WRITTEN,
    WITH_E,
    Concept,
    ConceptReport,
    DaeTriple,
    SystemInvariants,
    analyse,
    behaviourally_controllable,
    behaviourally_stabilizable,
    completely_controllable,
    completely_stabilizable,
    evaluate,
    freely_initializable,
    genericity_predicted,
    impulse_controllable,
    kalman_controllable,
    strongly_controllable,
    strongly_stabilizable,
)
from .experiment import (
    FrequencyRow,
    RunConfig,
    SampleSpec,
    cross_validate,
    estimate_frequency,
    run_survey,
    sample_triple,
    write_survey,
)
from .gauss import TDomainReport, apply_T, backsub_kernel, t_step
from .matrix import RatMatrix, enumerate_selections, hconcat
from .pencil import (
    PolyMatrix,
    build_pencil,
    generic_rank,
    minor_gcd,
    rank_attained,
)

__version__ = "0.1.0"
