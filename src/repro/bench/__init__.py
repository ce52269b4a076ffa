"""Evaluation harness: Table 4 workloads, dataset loaders, timing."""
from .workloads import Workload, flight_queries, tpcds_queries
from .harness import dataset_cache, execute, timed

__all__ = [
    "Workload",
    "flight_queries",
    "tpcds_queries",
    "dataset_cache",
    "execute",
    "timed",
]
