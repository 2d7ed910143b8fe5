"""pytest plugin: run the whole session on the numpy NTT kernels.

The native C kernel runs every transform whenever a C compiler is
available, so the numpy fused radix-4 / radix-2 kernels only run as
its fallback.  Loading this plugin switches the native kernel off for
the session, so the bitwise suites cover the fallback too::

    PYTHONPATH=src python -m pytest -p tests.numpy_ntt_kernels \
        tests/test_batched_ntt.py tests/test_golden_kernels.py
"""

from __future__ import annotations

from repro.nttmath import native


def pytest_configure(config):
    native._lib = None
