"""Query-processing core: the paper's RkNN algorithms and primitives."""

from repro.core.baseline import brute_force_brknn, brute_force_knn, brute_force_rknn
from repro.core.bichromatic import bichromatic_eager, bichromatic_lazy
from repro.core.continuous import continuous_rknn, validate_route
from repro.core.eager import eager_m_rknn, eager_rknn
from repro.core.expansion import distances_from, expand_nodes
from repro.core.lazy import lazy_rknn
from repro.core.lazy_ep import lazy_ep_rknn
from repro.core.materialize import MaterializedKNN, all_nn
from repro.core.network import NetworkView
from repro.core.nn import knn, range_nn, verify
from repro.core.result import KnnResult, RnnResult, UpdateResult

__all__ = [
    "MaterializedKNN",
    "NetworkView",
    "KnnResult",
    "RnnResult",
    "UpdateResult",
    "all_nn",
    "bichromatic_eager",
    "bichromatic_lazy",
    "brute_force_brknn",
    "brute_force_knn",
    "brute_force_rknn",
    "continuous_rknn",
    "distances_from",
    "eager_m_rknn",
    "eager_rknn",
    "expand_nodes",
    "knn",
    "lazy_ep_rknn",
    "lazy_rknn",
    "range_nn",
    "validate_route",
    "verify",
]
