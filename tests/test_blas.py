"""ivrand computes on one OpenBLAS thread, whatever the host's BLAS settings."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import ivrand
from ivrand import TestConfig, build_report
from ivrand import _blas, balance, randtest
from ivrand._blas import blas_thread_counts, one_blas_thread

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ivrand.__file__)))

needs_openblas = pytest.mark.skipif(not blas_thread_counts(),
                                    reason="no OpenBLAS found in this process")

# A report at N = 2,000, K = 12: large enough for OpenBLAS to split a chunk's
# product over its threads, which rounds differently from one thread.
_REPORT = """
import re
import numpy as np
from ivrand import Dataset, TestConfig, build_report
rng = np.random.default_rng(3)
n, k = 2_000, 12
x = rng.standard_normal((n, k))
z = (rng.random(n) < 1 / (1 + np.exp(-0.5 * x[:, 0]))).astype(np.int8)
d = (rng.random(n) < 0.3 + 0.4 * z).astype(np.int8)
ds = Dataset(covariates=x, covariate_names=tuple(f"c{i}" for i in range(k)),
             instrument=z, exposure=d)
text = build_report(ds, TestConfig(n_draws=256, seed=7)).to_json()
print(re.sub(r'"created_utc": "[^"]*"', "", text))
"""


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads for the test, whatever the host's default."""
    before = blas_thread_counts()
    for set_, _ in _blas._openblas():
        set_(2)
    try:
        yield
    finally:
        for (set_, _), count in zip(_blas._openblas(), before):
            set_(count)


@needs_openblas
def test_report_does_not_depend_on_openblas_threads():
    reports = []
    for count in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _REPORT], capture_output=True, text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": count},
        )
        assert done.returncode == 0, done.stderr
        reports.append(done.stdout)
    assert reports[0] == reports[1]


@needs_openblas
def test_nested_entries_pin_once_and_restore(two_blas_threads):
    with one_blas_thread():
        assert set(blas_thread_counts()) == {1}
        with one_blas_thread():
            assert set(blas_thread_counts()) == {1}
        assert set(blas_thread_counts()) == {1}
    assert set(blas_thread_counts()) == {2}


@needs_openblas
def test_pool_workers_compute_on_one_blas_thread(two_blas_threads, monkeypatch):
    seen = []
    original = randtest._Evaluator.__call__

    def recorded(self, *args, **kwargs):
        seen.append((threading.get_ident(), tuple(blas_thread_counts())))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(randtest._Evaluator, "__call__", recorded)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 3))
    z = (rng.random(300) < 0.5).astype(np.int8)
    d = (rng.random(300) < 0.3 + 0.4 * z).astype(np.int8)
    ds = ivrand.Dataset(covariates=x, covariate_names=("a", "b", "c"),
                        instrument=z, exposure=d)
    monkeypatch.setattr(randtest, "CHUNK_MAX_ROWS", 32)
    build_report(ds, TestConfig(n_draws=200, seed=1, threads=2))
    assert len({ident for ident, _ in seen}) > 1
    assert {counts for _, counts in seen} == {(1,) * len(_blas._openblas())}
    assert set(blas_thread_counts()) == {2}


@needs_openblas
def test_scalar_statistics_compute_on_one_blas_thread(two_blas_threads, monkeypatch):
    seen = []
    original = balance._Evaluator.__call__

    def recorded(self, *args, **kwargs):
        seen.append(tuple(blas_thread_counts()))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(balance._Evaluator, "__call__", recorded)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 3))
    z = np.arange(50) % 2
    ivrand.prevalence_difference(x[:, 0], z)
    ivrand.scmd(x[:, 0], z)
    ivrand.iv_bias(x[:, 0], z, z[::-1])
    ivrand.mahalanobis(x, z)
    assert seen == [(1,) * len(_blas._openblas())] * 4
    assert set(blas_thread_counts()) == {2}


@needs_openblas
def test_concurrent_entries_keep_the_count(two_blas_threads):
    # more threads than cores entering and leaving at a short switch
    # interval: a lost update of the depth would leave the count at 1, or
    # restore it while another thread is still inside
    failures = []

    def worker():
        for _ in range(200):
            with one_blas_thread():
                if set(blas_thread_counts()) != {1}:
                    failures.append(blas_thread_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert set(blas_thread_counts()) == {2}
