"""DeepMapping core: the hybrid structure's parts and their workflows.

The store class that owns them is :class:`repro.DeepMapping`
(:mod:`repro.shard.store`); nothing here imports it at module level.
"""

from . import mhas
from .aux_table import AuxiliaryTable
from .config import DeepMappingConfig
from .deep_mapping import Shard, SizeReport
from .exist_index import (ExistenceIndex, SparseExistenceIndex,
                          existence_from_state, make_existence_index)
from .modify import ModificationTracker, estimate_batch_bytes
from .multikey import MultiKeyDeepMapping, MultiRelationDeepMapping
from .plan import LookupResult
from .query import QueryError, run_select, select
from .range_query import build_range_view, lookup_range
from .verify import VerificationReport, verify

__all__ = [
    "DeepMappingConfig",
    "LookupResult",
    "SizeReport",
    "Shard",
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
