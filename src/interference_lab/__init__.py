"""Exact desk-scale analysis of randomized experiments on networks.

The package enumerates small designs exactly: assignment laws and their
support as blocks of int64 assignment codes, exposure events on graphs,
potential-outcome tables under three interference structures with one block
gather of revealed outcomes, estimators with one array body
``evaluate(codes, y)`` (``estimator(z, y_obs)`` runs it on one assignment),
closed-form variance identities cross-checked against enumeration,
exact existence certificates for unbiased estimators, read off each
design's support in closed form, worst-case MSE
constructions, and random-graph moment formulas with exhaustive and Monte
Carlo oracles.

Importing the package before numpy sets ``OPENBLAS_NUM_THREADS=1`` unless
the variable is already set, so BLAS runs on the calling thread: every BLAS
call here is small (gemv rows of at most 63 entries), and OpenBLAS's worker
threads only cost start-up time.
An explicit value is kept, and a caller that imported numpy first keeps its
BLAS threads.  Results are the same at any BLAS thread count.
"""

import os
import sys

# Before numpy loads, which the first import below does.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .designs import (
    ARM_A,
    ARM_B,
    ENUMERATION_CAP,
    Assignment,
    Design,
    enumerate_support,
)
from .er import (
    ORACLE_CAP,
    ConstantOutcomes,
    ERSpec,
    MCVariance,
    UniformOutcomes,
    classify_regime,
    dense_lower_bound,
    exhaustive_expected_variance,
    exhaustive_moments,
    expected_informative_fraction,
    h_bound,
    mc_expected_variance,
    moment_two_pow_nbhd,
    moment_two_pow_shared,
    prob_no_common,
    regime_report,
    sample_er_graph,
)
from .errors import (
    CapacityError,
    ConfigError,
    GraphFormatError,
    IdentityViolationError,
    IncompleteEstimatorError,
    InterferenceLabError,
    InvalidArgumentError,
)
from .estimators import (
    ConstantEstimator,
    DifferenceInMeans,
    HorvitzThompson,
    PureArmIPW,
    SoloTreatedIPW,
    TabularEstimator,
    observed_key,
)
from .exact import (
    HTVarianceTerms,
    MomentReport,
    NeymanTerms,
    exact_moments,
    ht_variance_closed_form,
    neyman_variance_terms,
)
from .feasibility import (
    AdversaryResult,
    FeasibilityCertificate,
    default_witness_family,
    mse_adversary,
    unbiased_feasibility,
)
from .graphs import (
    Arbitrary,
    Graph,
    InterferenceStructure,
    KLocal,
    NeighborhoodIndex,
    NoInterference,
    effective_treatment_count,
    k_step_neighborhood,
    reference_group,
)
from .outcomes import (
    ATE,
    AverageTreatmentEffect,
    Estimand,
    PotentialOutcomeTable,
    SoloTreatmentEffect,
    estimand_value,
)

__version__ = "0.1.0"
