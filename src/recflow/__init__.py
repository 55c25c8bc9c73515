"""Conversation-flow driven data simulation for conversational recommenders."""

import os

__version__ = "0.1.0"

# recflow's matrix products are tiny, so a BLAS thread per core only spins,
# adds resident memory and stalls when jobs share the cores. OpenBLAS reads
# its thread count once, when numpy loads it, so this runs before any recflow
# module imports numpy. A count the caller set wins.
if not any(name in os.environ for name in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
        "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
