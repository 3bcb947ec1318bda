"""p-Kantorovich norms and q-Lipschitz dual norms on finite metric spaces.

Semantics in one line: the norm of a signed measure is the cheapest way
to split it into a part that is transported (priced by the metric) and a
part that is created or destroyed (priced by total variation), the two
prices combined in l^p; Lipschitz functions with the conjugate l^q
combination of slope and height are the exact dual.
"""

from .certify import Certificate, check_equivalence, check_holder, check_optimality
from .errors import PkrError
from .holder import HolderPair, conjugate_exponent, lp_combine
from .lipschitz import (
    DualSolution,
    LipschitzFunction,
    dual_solve,
    lip_const,
    lip_product,
    pairing,
    ql_norm,
    sup_norm,
)
from .pknorm import (
    PkSolution,
    ScalarizedSolution,
    pareto_frontier,
    pk_dist,
    pk_norm,
    scalarized_min,
    trace_frontier,
)
from .space import (
    FiniteMetricSpace,
    SignedMeasure,
    dirac,
    from_euclidean,
    jordan_decompose,
    support,
    total_charge,
    tv_norm,
    validate_space,
    zero_measure,
)
from .transport import FlowResult, TransportPlan, kr_norm, plan_cost, plan_divergence

__all__ = [
    "Certificate",
    "DualSolution",
    "FiniteMetricSpace",
    "FlowResult",
    "HolderPair",
    "LipschitzFunction",
    "PkrError",
    "PkSolution",
    "ScalarizedSolution",
    "SignedMeasure",
    "TransportPlan",
    "check_equivalence",
    "check_holder",
    "check_optimality",
    "conjugate_exponent",
    "dirac",
    "dual_solve",
    "from_euclidean",
    "jordan_decompose",
    "kr_norm",
    "lip_const",
    "lip_product",
    "lp_combine",
    "pairing",
    "pareto_frontier",
    "pk_dist",
    "pk_norm",
    "plan_cost",
    "plan_divergence",
    "ql_norm",
    "scalarized_min",
    "sup_norm",
    "support",
    "total_charge",
    "trace_frontier",
    "tv_norm",
    "validate_space",
    "zero_measure",
]

__version__ = "0.1.0"
