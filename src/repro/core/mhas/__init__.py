"""Multi-task hybrid architecture search (paper Sec. IV-C)."""

from .controller import Controller, Trajectory
from .reward import (
    approx_model_bytes,
    estimate_ratio,
    flops_per_lookup,
    measure_aux_bytes_per_row,
)
from .search import SearchOutcome, SearchSample, search
from .search_space import MHASConfig, SearchSpace, WeightBank

__all__ = [
    "MHASConfig",
    "SearchSpace",
    "WeightBank",
    "Controller",
    "Trajectory",
    "SearchOutcome",
    "SearchSample",
    "search",
    "approx_model_bytes",
    "estimate_ratio",
    "flops_per_lookup",
    "measure_aux_bytes_per_row",
]
