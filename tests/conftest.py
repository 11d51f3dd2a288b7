import ctypes
from pathlib import Path

import numpy as np
from hypothesis import settings

# one profile for every property test: the same examples on every run,
# no per-example deadline and no example database; each test sets only
# its own max_examples
settings.register_profile("softaug", derandomize=True, deadline=None, database=None)
settings.load_profile("softaug")


def openblas():
    """numpy's bundled OpenBLAS, or None where this numpy has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(found[0])) if found else None


def blas_threads():
    """OpenBLAS threads in force in the calling process, or None."""
    getter = getattr(openblas(), "scipy_openblas_get_num_threads64_", None)
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def pytest_report_header(config):
    """The numpy version and the OpenBLAS kernel and thread count in force:
    the digests of training run in the test process depend on the kernel."""
    lib = openblas()
    if lib is None:
        return f"numpy {np.__version__}, no bundled OpenBLAS"
    corename = lib.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return (f"numpy {np.__version__}, OpenBLAS core {corename().decode()}, "
            f"{blas_threads()} BLAS threads")
