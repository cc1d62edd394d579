"""One cold start of an in-process workload, for the ``setup_s`` metric.

Usage: python bench/coldstart.py SRC_DIR {sgemm,cgemm,bitlevel}

Imports the program from SRC_DIR, computes the workload's first result
on 64x64 operands (the bit-level call uses 128 columns at two workers,
so it forks the pool) and prints ``ready``. The caller times from
launching this process to reading that line.
"""

from __future__ import annotations

import sys


def main(src: str, kind: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    import repro
    from repro.mxu import sharded_bitlevel_gemm

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    if kind == "sgemm":
        repro.mxu_sgemm(a, rng.standard_normal((64, 64)), workers=1)
    elif kind == "cgemm":
        repro.mxu_cgemm(a + 1j * a.T, rng.standard_normal((64, 64)) + 0.5j, workers=1)
    elif kind == "bitlevel":
        sharded_bitlevel_gemm(a, rng.standard_normal((64, 128)), workers=2)
    else:
        raise SystemExit(f"unknown workload {kind!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
