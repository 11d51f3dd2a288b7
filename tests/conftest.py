import ctypes
import os
from pathlib import Path

import numpy as np
from hypothesis import settings

from softaug.model import _openblas

# one profile for every property test: the same examples on every run,
# no per-example deadline and no example database; each test sets only
# its own max_examples
settings.register_profile("softaug", derandomize=True, deadline=None, database=None)
settings.load_profile("softaug")

# the variables OpenBLAS reads its thread count from as it loads, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads():
    """OpenBLAS threads in force in the calling process, or None."""
    getter = getattr(_openblas(), "scipy_openblas_get_num_threads64_", None)
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def src_lines():
    """Lines in the package's modules, counted as ``wc -l`` counts them."""
    package = Path(__file__).resolve().parent.parent / "src" / "softaug"
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def pytest_report_header(config):
    """The numpy version and the OpenBLAS kernel and thread count in force
    (the digests of training run in the test process depend on the
    kernel), whether ``train`` found the OpenBLAS thread setter and so
    runs on 1 thread, the count child-process commands start OpenBLAS on,
    then the package's line count."""
    lib = _openblas()
    if lib is None:
        blas = f"numpy {np.__version__}, no bundled OpenBLAS"
    else:
        corename = lib.scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        blas = (f"numpy {np.__version__}, OpenBLAS core {corename().decode()}, "
                f"{blas_threads()} BLAS threads")
    # train's own lookup, read without setting anything
    if hasattr(lib, "scipy_openblas_set_num_threads64_"):
        rule = "train found the OpenBLAS thread setter: it runs on 1 BLAS thread"
    else:
        rule = "train did not find the OpenBLAS thread setter: it runs on the count in force"
    # the package's start-up rule, read off this environment
    named = [name for name in BLAS_THREAD_VARS if name in os.environ]
    if named:
        start = f"commands start OpenBLAS on the count {named[0]}={os.environ[named[0]]} sets"
    else:
        start = "commands start OpenBLAS on 1 thread (no thread count set)"
    return [blas, rule, start, f"src/softaug: {src_lines()} lines"]
