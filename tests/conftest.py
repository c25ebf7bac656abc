import os

# one BLAS thread: the suite's many small SVDs run slower, and erratically,
# under threaded BLAS; set before cgpkit imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from cgpkit.qscalars import ScalarContext


@pytest.fixture(scope="session")
def ctx4():
    return ScalarContext(4)


@pytest.fixture(scope="session")
def ctx6():
    return ScalarContext(6)


@pytest.fixture(scope="session", params=[4, 6])
def ctx(request):
    return ScalarContext(request.param)
