"""M3XU reproduction: multi-mode MXUs for FP32/FP32C GEMM on low-precision hardware.

Public API tour
---------------
* ``repro.types`` — floating-point formats, quantisation, operand splits.
* ``repro.mxu`` — the hardware functional models (``TensorCoreMXU``, ``M3XU``).
* ``repro.gemm`` — GEMM drivers: SIMT references, M3XU tiled GEMM, software
  emulation schemes (3xTF32, 3xBF16, ...).
* ``repro.gpusim`` — the analytic GPU performance/energy model.
* ``repro.kernels`` — the Table II / Table IV kernel zoo.
* ``repro.synthesis`` — the Table III area/cycle/power cost model.
* ``repro.apps`` — FFT, DNN training, MRF, kNN, quantum case studies.
* ``repro.eval`` — one runner per paper table/figure.
* ``repro.parallel`` — the execution engine: persistent worker pool with
  zero-copy operand transfer (see ``docs/performance.md``).
* ``repro.cache`` — content addressing and the in-memory LRU the server
  answers repeat payloads from.
* ``repro.resilience`` — fault tolerance: ABFT checksum guards for GEMM,
  retry policies and the fault-injection campaign engine (see
  ``docs/robustness.md``).
"""

from .mxu import M3XU, MXUMode, TensorCoreMXU
from .gemm import mxu_cgemm, mxu_sgemm
from .types import FP16, FP32, BF16, TF32, FloatFormat, quantize

__version__ = "1.0.0"

__all__ = [
    "M3XU",
    "TensorCoreMXU",
    "MXUMode",
    "mxu_sgemm",
    "mxu_cgemm",
    "FloatFormat",
    "FP16",
    "BF16",
    "TF32",
    "FP32",
    "quantize",
    "__version__",
]
