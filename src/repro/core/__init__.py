"""DeepMapping core: the hybrid learned structure and its workflows."""

from . import mhas
from .aux_table import AuxiliaryTable
from .config import DeepMappingConfig
from .deep_mapping import DeepMapping, SizeReport
from .exist_index import (ExistenceIndex, SparseExistenceIndex,
                          existence_from_state, make_existence_index)
from .modify import ModificationTracker, estimate_batch_bytes
from .multikey import MultiKeyDeepMapping, MultiRelationDeepMapping
from .plan import LookupResult
from .query import QueryError, run_select, select
from .range_query import build_range_view, lookup_range
from .verify import VerificationReport, verify

__all__ = [
    "DeepMapping",
    "DeepMappingConfig",
    "LookupResult",
    "SizeReport",
    "AuxiliaryTable",
    "ExistenceIndex",
    "SparseExistenceIndex",
    "make_existence_index",
    "existence_from_state",
    "ModificationTracker",
    "estimate_batch_bytes",
    "MultiKeyDeepMapping",
    "MultiRelationDeepMapping",
    "lookup_range",
    "build_range_view",
    "select",
    "run_select",
    "QueryError",
    "verify",
    "VerificationReport",
    "mhas",
]
