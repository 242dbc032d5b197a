"""Fixed calibration kernel that measures how fast the machine runs right now.

On a shared virtual machine the CPU speed can drift by 30% over minutes
(as it did on the 2-vCPU one the baseline was recorded on), which is
larger than any regression bound the benchmark can use. The kernel mixes the
three kinds of work the workloads do: about 250 tiny 4x64 weighted ZF
solves (numpy call overhead), five (256, 4, 32) ones (batched BLAS and
memory traffic) and 3000 CSV rows of formatted floats (Python objects). It
uses numpy and the standard library only, so no change to energymimo
changes its time. The benchmark times it next to every command and rescales
the command's wall time by ``REFERENCE_S / kernel time``.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# Median kernel time on the machine the baseline was recorded on (2-vCPU
# Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31). It only sets the scale
# of ``wall_ref_s``; comparisons between commits do not depend on it.
REFERENCE_S = 0.040

_RNG = np.random.default_rng(20230404)
_NARROW = _RNG.standard_normal((1, 4, 64)) + 1j * _RNG.standard_normal((1, 4, 64))
_WIDE = _RNG.standard_normal((256, 4, 32)) + 1j * _RNG.standard_normal((256, 4, 32))


def _zf_powers(h, p):
    b = h * np.sqrt(p)[None, None, :]
    gram = b @ b.conj().transpose(0, 2, 1)
    chol = np.linalg.cholesky(gram)
    eye = np.broadcast_to(np.eye(h.shape[1], dtype=complex), gram.shape)
    x = np.linalg.solve(chol.conj().transpose(0, 2, 1), np.linalg.solve(chol, eye))
    w = b.conj().transpose(0, 2, 1) @ x
    return np.sum(np.abs(w) ** 2, axis=(0, 2))


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    p = np.ones(64)
    for _ in range(250):
        p = _zf_powers(_NARROW, 64.0 * p / p.sum())
    q = np.ones(32)
    for _ in range(5):
        q = _zf_powers(_WIDE, 32.0 * q / q.sum())
    writer = csv.writer(io.StringIO())
    for i in range(3000):
        row = {"index": i, "half": 0.5 * i, "power": float(q[i % 32])}
        writer.writerow([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row.values()])
    return time.perf_counter() - start
