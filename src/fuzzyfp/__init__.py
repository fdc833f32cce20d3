"""Fuzzy nearness spaces, t-norms, and coupled fixed-point iteration.

The library models degree-of-nearness functions mu(x, y, t) over desk-scale
carriers, checks the defining axioms by seeded sampling, estimates the best
contraction constant of coupled map pairs and quadruples over finite
samples, runs the constructive iteration schemes to their related fixed
points, and verifies the claimed conclusion identities numerically.
"""

from .axioms import AxiomReport, Violation, check_fm_axioms, check_tnorm_axioms
from .errors import (
    CodomainError,
    ConfigError,
    DomainError,
    EmptySampleError,
    UsageError,
)
from .harness import Instance, InstanceSpec, SuiteVerdict, gen_instance, run_suite
from .hypotheses import (
    HypothesisReport,
    RecurrenceReport,
    SampleSet,
    check_recurrence_pair,
    check_recurrence_quad,
    estimate_k_pair,
    estimate_k_pair_dual,
    estimate_k_quad,
    estimate_k_self_quad,
)
from .mappings import (
    AffineMap,
    ComposedMap,
    ConstantMap,
    MapPair,
    MapQuadruple,
    TableMap,
)
from .metrics import (
    ExponentialFuzzyMetric,
    FuzzyMetric,
    StandardFuzzyMetric,
    TableFuzzyMetric,
    TGrid,
    induced_exponential,
    induced_standard,
)
from .rng import GENERATOR_NAME, SplitMix64
from .sequences import SequenceTrace, chain_lower_bound, is_cauchy, is_convergent
from .solver import (
    FixedPointResult,
    SolveConfig,
    UniquenessReport,
    solve,
    uniqueness_probe,
    verify_conclusions_pair,
    verify_conclusions_quadruple,
)
from .spaces import DELTA_PT, BoxSpace, FiniteSpace
from .tnorms import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    TNorm,
    lukasiewicz,
    minimum,
    product,
    tnorm_apply,
)

__version__ = "0.1.0"
