"""Static-analysis subsystem: the invariants behind ``repro lint``.

The reproduction's correctness rests on properties no general-purpose
linter checks:

* **Precision safety** — the bit-exact modules (:mod:`repro.types`,
  :mod:`repro.arith`, :mod:`repro.mxu`) must never round through Python
  floats or ``math.*`` arithmetic; all format rounding routes through
  :func:`repro.types.quantize` / :mod:`repro.types.rounding`, float
  equality is restricted to an exact-comparison allowlist, and every
  constant-foldable accumulator shift must fit the 48-bit window
  (PAPER.md Eq. 3-9: exact 12-bit splits, 48-bit shifted accumulation).
* **Determinism** — emulation and campaign paths must thread explicit
  seeds; an unseeded RNG makes results unreproducible.
* **Fork safety** — everything shipped through
  :func:`repro.parallel.parallel_map` must be picklable, must not mutate
  module-level state, and every shared-memory segment must be released
  on all paths.
* **Resilience hygiene** — no bare ``except``; ``pickle.load`` on cache
  bytes only inside the corruption-handling wrapper.

:func:`lint_paths` runs every registered rule over a file tree and
returns structured :class:`Finding` records; the ``repro lint`` CLI
subcommand wraps it with CI-grade exit codes. Rules live in
:mod:`repro.analysis.rules` and register themselves via
:func:`repro.analysis.registry.register`.
"""

from __future__ import annotations

from .config import LintConfig, load_config
from .engine import LintReport, apply_fixes, lint_file, lint_paths
from .findings import Finding, Severity
from .flow import ExactFlow
from .graph import ProjectContext, build_project, module_name_for
from .registry import Rule, all_rules, get_rule
from .sarif import render_sarif, to_sarif

__all__ = [
    "Finding",
    "Severity",
    "LintConfig",
    "load_config",
    "LintReport",
    "lint_file",
    "lint_paths",
    "apply_fixes",
    "Rule",
    "all_rules",
    "get_rule",
    "ProjectContext",
    "build_project",
    "module_name_for",
    "ExactFlow",
    "to_sarif",
    "render_sarif",
]
