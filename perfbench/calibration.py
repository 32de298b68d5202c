"""Machine-speed calibration for timings taken on shared hardware.

On a shared virtual machine the same work can take 15-40% longer in one
run than in the next, because neighbours load the host; the slowdown drifts
over tens of seconds and hits the interpreter, array kernels and sparse
products alike (measured: the total op time of identical catalog-balls
runs ranged from 16.5 s to 23.9 s within twenty minutes).  A run therefore
interleaves short calibration samples with its ops: a fixed piece of work,
independent of the library, that mixes the same three kinds of cost
(complex array math, sparse matrix-vector products, interpreter-bound
scalar arithmetic).

``speed = REFERENCE_S / mean(samples)`` is below 1 when the machine ran
slow.  run.py scales every reported duration by ``speed`` (and rates by its
inverse), so the end-to-end metrics read as on the reference machine at its
usual speed; the raw values and the factor are kept in the results file.
The library's own speed moves the scaled metrics exactly as it moves the
raw ones, since the calibration never calls it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Mean sample time on the reference machine (Intel Xeon, 2 vCPUs, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1), measured over several minutes.
REFERENCE_S = 0.0125

SAMPLE_EVERY_S = 0.25   # op time between two bursts inside the timed loop
SAMPLE_BURST = 3        # samples per burst, against the samples' own jitter
SETUP_SAMPLES = 20      # samples a set-up process takes after READY


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.z = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        n = 80
        ones = np.ones(n)
        path = sp.diags([-ones[:-1], 2 * ones, -ones[:-1]], [-1, 0, 1])
        self.laplacian = (sp.kron(path, sp.eye(n)) + sp.kron(sp.eye(n), path)).tocsr()
        self.x = np.ones(n * n)
        self.samples: list[float] = []
        self.sample()           # first-call costs are not the machine's speed
        self.samples.clear()

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            m = np.abs(self.z)
            np.arctanh(np.minimum(m / (1 + m), 0.99))
            np.log(self.z)
        y = self.x
        for _ in range(20):
            y = self.laplacian @ y
            y /= np.abs(y).max()
        acc = 0j
        for k in range(6000):
            acc += complex(k, 1) / (k + 1.5)
        spent = time.perf_counter() - start
        self.samples.append(spent)
        return spent

    def speed(self) -> float:
        return REFERENCE_S / (sum(self.samples) / len(self.samples))
