"""Lint configuration: ``[tool.repro.lint]`` in ``pyproject.toml``.

Everything has a working default, so the analyzer runs unconfigured on
any checkout; the pyproject table overrides module scopes, the exact
float-comparison allowlist, per-rule severities, and per-rule path
allowlists. Example::

    [tool.repro.lint]
    bit_exact = ["repro/types/", "repro/arith/", "repro/mxu/"]
    exact_float_literals = [0.0, 1.0, -1.0, 2.0]

    [tool.repro.lint.severity]
    DT202 = "warning"     # or "off"

    [tool.repro.lint.allow]
    PS101 = ["repro/arith/exact.py"]   # path-fragment allowlist
"""

from __future__ import annotations

import ast
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Severity

__all__ = ["LintConfig", "load_config", "DEFAULT_ACC_WINDOW_BITS"]

#: Fallback accumulation-window width when ``repro.arith.accumulator``
#: cannot be located (Section IV-A: 48-bit registers).
DEFAULT_ACC_WINDOW_BITS = 48

#: Multiplier-input slice width (Section IV-A: 12-bit significands).
DEFAULT_SLICE_BITS = 12

#: ``math`` attributes that never smuggle a rounding into a bit-exact
#: module: integer-valued helpers and constants.
DEFAULT_MATH_ALLOWED = frozenset(
    {"ceil", "floor", "trunc", "comb", "perm", "factorial", "gcd", "lcm",
     "isqrt", "inf", "nan", "pi", "e", "isfinite", "isnan", "isinf",
     "copysign", "frexp", "ldexp"}
)

#: Float literals whose ``==``/``!=`` comparison is exact by construction
#: (signed zero and small powers of two used as sentinels).
DEFAULT_EXACT_FLOATS = frozenset({0.0, 1.0, -1.0, 2.0, -2.0, 0.5})

#: Qualified names whose results live in the bit-exact domain: the split /
#: lane-product / windowed-accumulate intermediates of the M3XU datapath.
#: Anything flowing out of these must stay exact until it passes through
#: ``quantize``/``quantize_complex`` (the sanctioned rounding API).
DEFAULT_EXACT_SOURCES = (
    "repro.arith.accumulator.aligned_sum",
    "repro.arith.accumulator.aligned_sum_groups",
    "repro.arith.accumulator.segmented_windowed_sum_f32",
    "repro.arith.accumulator.int_window_to_float",
    "repro.arith.exact.exact_dot",
    "repro.mxu.bitlevel.bit_level_chain",
    "repro.mxu.vectorized.split_fp32_fields",
    "repro.mxu.vectorized.fp32_bit_fields",
    "repro.mxu.dataflow.lane_products",
    "repro.mxu.fused.grouped_lane_products",
)

#: Call basenames that *launder* exactness: the sanctioned rounding API.
#: A value that has passed through these is an ordinary float again.
DEFAULT_EXACT_SANITIZERS = ("quantize", "quantize_complex")

#: Call names (resolved through imports) that block the calling thread —
#: reaching one of these from a coroutine without an executor hop stalls
#: the event loop (AS601). Parallel entrypoints are blocking implicitly.
DEFAULT_BLOCKING_CALLS = (
    "time.sleep",
    "open",
    "os.system",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved configuration for one lint run."""

    #: Path fragments naming the bit-exact modules (PS rules).
    bit_exact: tuple[str, ...] = ("repro/types/", "repro/arith/", "repro/mxu/")
    #: Path fragments allowed to call ``pickle.load(s)`` (RH402) — the
    #: result cache, whose unpickle treats corrupted bytes as a miss.
    pickle_wrappers: tuple[str, ...] = ("repro/cache.py",)
    #: Names resolving to the parallel fan-out entry point (FS rules).
    parallel_entrypoints: tuple[str, ...] = ("parallel_map",)
    #: Path fragments where exactness-flow findings are *reported* (XF
    #: rules); taint still propagates project-wide.
    exact_flow: tuple[str, ...] = (
        "repro/types/", "repro/arith/", "repro/mxu/", "repro/gemm/",
        "repro/resilience/", "repro/serve/",
    )
    #: Qualified names producing exact-domain values (XF taint sources).
    exact_sources: tuple[str, ...] = DEFAULT_EXACT_SOURCES
    #: Call basenames that launder exactness (sanctioned rounding API).
    exact_sanitizers: tuple[str, ...] = DEFAULT_EXACT_SANITIZERS
    #: Path fragments naming the asyncio serving layer (AS rules).
    serve_paths: tuple[str, ...] = ("repro/serve/",)
    #: Resolved call names that block the calling thread (AS601).
    blocking_calls: tuple[str, ...] = DEFAULT_BLOCKING_CALLS
    exact_float_literals: frozenset[float] = DEFAULT_EXACT_FLOATS
    math_allowed: frozenset[str] = DEFAULT_MATH_ALLOWED
    acc_window_bits: int = DEFAULT_ACC_WINDOW_BITS
    slice_bits: int = DEFAULT_SLICE_BITS
    #: rule-id -> severity override.
    severity: dict[str, Severity] = field(default_factory=dict)
    #: rule-id -> path fragments where the rule is suppressed.
    allow: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def rule_severity(self, rule_id: str, default: Severity) -> Severity:
        return self.severity.get(rule_id, default)

    def is_bit_exact(self, rel_path: str) -> bool:
        norm = rel_path.replace("\\", "/")
        return any(frag in norm for frag in self.bit_exact)

    def is_pickle_wrapper(self, rel_path: str) -> bool:
        norm = rel_path.replace("\\", "/")
        return any(frag in norm for frag in self.pickle_wrappers)

    def is_exact_flow(self, rel_path: str) -> bool:
        norm = rel_path.replace("\\", "/")
        return any(frag in norm for frag in self.exact_flow)

    def is_serve(self, rel_path: str) -> bool:
        norm = rel_path.replace("\\", "/")
        return any(frag in norm for frag in self.serve_paths)

    def is_path_allowed(self, rule_id: str, rel_path: str) -> bool:
        norm = rel_path.replace("\\", "/")
        return any(frag in norm for frag in self.allow.get(rule_id, ()))


def _find_pyproject(start: Path) -> Path | None:
    for candidate in [start, *start.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _acc_window_from_source(pyproject: Path) -> int:
    """Read ``M3XU_ACC_BITS`` straight out of ``repro.arith.accumulator``.

    The lint invariant must track the constant the models actually use,
    not a copy that can drift; parsed statically so linting never imports
    (and therefore never executes) the code under analysis.
    """
    source = pyproject.parent / "src" / "repro" / "arith" / "accumulator.py"
    if not source.is_file():
        return DEFAULT_ACC_WINDOW_BITS
    try:
        tree = ast.parse(source.read_text(encoding="utf-8"))
    except SyntaxError:
        return DEFAULT_ACC_WINDOW_BITS
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "M3XU_ACC_BITS"
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            return node.value.value
    return DEFAULT_ACC_WINDOW_BITS


def load_config(start: Path | str | None = None) -> LintConfig:
    """Load the lint configuration for the tree containing *start*.

    Walks up to the nearest ``pyproject.toml``; missing file or missing
    ``[tool.repro.lint]`` table yields the defaults.
    """
    start_path = Path(start) if start is not None else Path.cwd()
    if start_path.is_file():
        start_path = start_path.parent
    pyproject = _find_pyproject(start_path.resolve())
    if pyproject is None:
        return LintConfig()

    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro", {}).get("lint", {})

    severity = {
        rule: Severity.parse(value)
        for rule, value in table.get("severity", {}).items()
    }
    allow = {
        rule: tuple(paths) for rule, paths in table.get("allow", {}).items()
    }
    defaults = LintConfig()
    return LintConfig(
        bit_exact=tuple(table.get("bit_exact", defaults.bit_exact)),
        pickle_wrappers=tuple(
            table.get("pickle_wrappers", defaults.pickle_wrappers)
        ),
        parallel_entrypoints=tuple(
            table.get("parallel_entrypoints", defaults.parallel_entrypoints)
        ),
        exact_flow=tuple(table.get("exact_flow", defaults.exact_flow)),
        exact_sources=tuple(
            table.get("exact_sources", defaults.exact_sources)
        ),
        exact_sanitizers=tuple(
            table.get("exact_sanitizers", defaults.exact_sanitizers)
        ),
        serve_paths=tuple(table.get("serve_paths", defaults.serve_paths)),
        blocking_calls=tuple(
            table.get("blocking_calls", defaults.blocking_calls)
        ),
        exact_float_literals=frozenset(
            float(x) for x in table.get(
                "exact_float_literals", defaults.exact_float_literals
            )
        ),
        math_allowed=frozenset(
            table.get("math_allowed", defaults.math_allowed)
        ),
        acc_window_bits=int(
            table.get("acc_window_bits", _acc_window_from_source(pyproject))
        ),
        slice_bits=int(table.get("slice_bits", defaults.slice_bits)),
        severity=severity,
        allow=allow,
    )
