"""Apply the package's BLAS thread cap (HGD_THREADS, default 1) before any
test module imports numpy: OpenBLAS reads it once, when numpy loads."""

import hgd  # noqa: F401
