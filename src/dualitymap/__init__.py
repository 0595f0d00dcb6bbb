"""Duality mappings in three Banach-space models with coderivative certificates.

The package evaluates the normalized duality mapping J exactly in finite
models of l_p (1 < p < inf), L1 over a finite weighted measure space, and
piecewise-linear C[0,1]; evaluates the regular coderivative difference
quotient along probe curves in the graph of J; and certifies non-membership
of candidate dual elements by reproducing closed-form quotient limits.
"""

from .c01 import (
    C01Space,
    MaximizingSet,
    PwlFunction,
    RcaMeasure,
    atomic_duality_measure,
    canonical_duality_measure,
    is_duality_member_c,
    maximizing_set,
    pairing_c,
    plateau_duality_measure,
    pwl_constant,
    pwl_scale,
    pwl_shift,
    pwl_sub,
    pwl_tent,
    sup_norm,
    tv_norm,
)
from .coderivative import (
    AffineForm,
    CoderivativeQuery,
    GraphPair,
    LimitEstimate,
    NonMembershipCertificate,
    ProbeCurve,
    Schedule,
    Tolerances,
    certify_nonmembership,
    estimate_limit,
    falsify_membership_search,
    quotient,
    reverify_certificate,
)
from .l1 import (
    FiniteMeasureSpace,
    duality_selection,
    duality_set_classify,
    l1_norm,
    linf_norm,
    pairing_l1,
    strict_convexity_counterexample,
)
from .lp import (
    LpSpace,
    conjugate_exponent,
    dual_duality_map,
    duality_map,
    lp_norm,
    pairing,
)
from .oracles import (
    SuiteReport,
    brute_force_duality_l1,
    gradient_oracle_lp,
    run_appendix_battery,
    run_backend_invariants,
)
from .witnesses import THEOREM_IDS, HypothesisViolation, Witness, build_witness

__version__ = "0.1.0"
