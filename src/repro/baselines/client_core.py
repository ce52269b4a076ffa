"""Client-side comparison logic shared by the UDF and middleware baselines.

The paper's UDF and middleware both *incorporate* the trendwise
comparison and summary-aggregate pruning optimizations (§8, setup) —
what they lack is in-engine execution (parallel operators, no data
movement). This module is that client logic: single-threaded, over the
engine's driver kernels, so the baselines differ from COMPARE only in
where they run.
"""
from __future__ import annotations

import pandas as pd

from repro.core.exact import all_pairs_frame, topk_rows
from repro.core.pairs import output_rows
from repro.core.pruning import phi_topk
from repro.core.spec import CompareSpec, output_cols


def result_frame(spec: CompareSpec, arrays: list, k: int | None, ascending: bool) -> pd.DataFrame:
    """The client's COMPARE output: every pair's score, or the top-k (``k``).

    ``arrays`` are the decoded blocks of the fetched side relations
    (:func:`~repro.core.exact.table_arrays`). A SUM/AVG top-k prunes on one
    summary per trend (Φp with one segment), then scores the survivors
    exactly; any other query scores every pair.
    """
    if k is None:
        return all_pairs_frame(spec, arrays)
    if spec.scorer.agg in ("SUM", "AVG"):
        rows, _ = phi_topk(spec, k, ascending, arrays, n_segments=1, tuples_per_update=None,
                           early_termination=False)
    else:
        rows = topk_rows(spec, arrays, k, ascending)
    return pd.DataFrame(output_rows(spec, rows), columns=output_cols(spec))
