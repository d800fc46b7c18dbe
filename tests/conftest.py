"""Shared pytest set-up: a report header naming the numerical environment.

Some results round differently with the BLAS thread count, so a failure
can only be attributed from the log when the log names the library
versions, the thread-count variables and the CPUs the run had.
"""

import os

import numpy as np
import scipy

from filtbem.cli import BLAS_THREAD_VARS


def pytest_report_header(config):
    threads = " ".join(f"{var}={os.environ.get(var)}"
                       for var in BLAS_THREAD_VARS)
    cpus = len(os.sched_getaffinity(0))
    return [f"numpy {np.__version__}, scipy {scipy.__version__}",
            f"{threads}, CPUs {cpus} (affinity) of {os.cpu_count()}"]
