"""Pin the process to one BLAS/OpenMP thread.

Import this module before numpy: the thread pools read these variables
once, when numpy loads them.  One thread keeps timings free of
scheduling noise and keeps BLAS summation order, and so every result
bit, the same from run to run.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = "1"
