"""Poisson-process prime modelling, recursive Bayesian diagnostics and
TMCMC-driven prime hunting.

The public surface mirrors the layer structure: exact integer services
(:mod:`.numtheory`), the analytic intensity ingredients (:mod:`.specialfn`),
the counting process itself (:mod:`.nhpp`), the two Bayesian engines
(:mod:`.recursive_bayes`, :mod:`.nonrecursive_bayes`), the sampling kernel
(:mod:`.tmcmc`) and the hunting pipeline (:mod:`.pipeline`).
"""

from .errors import DomainError, ResourceError
from .numtheory import (
    PrimeTable,
    is_prime_u64,
    lucas_lehmer,
    mersenne_digit_count,
    primes_up_to,
)
from .specialfn import (
    MT,
    RH_SQRT,
    X_OVER_LOG,
    ErrorBoundModel,
    IntensityParams,
    Li,
    error_density,
    error_integral,
    li,
    rh_eps,
)
from .nhpp import EventStream, cumulative_intensity, log_waiting_density, simulate
from .recursive_bayes import (
    GammaProductMixture,
    Hyperparameters,
    RecursionState,
    asymptotic_form_table,
    log_posterior_predictive,
    model_compare_log_ratio,
    posterior,
    posterior_mean_alpha,
    posterior_mean_beta,
    posterior_var_alpha,
    posterior_var_beta,
    trajectory,
)
from .nonrecursive_bayes import equivalence_report
from .tmcmc import HuntTarget, TargetKind, TmcmcChain, TmcmcConfig, log_target, run
from .pipeline import (
    CandidateRecord,
    HuntPlan,
    HuntResult,
    hunt_general,
    hunt_mersenne,
    solve_k,
    verify_file,
)

__version__ = "0.1.0"
