"""Resilience-hygiene rules (RH4xx).

The resilience subsystem (PR 2/3) is built on a discipline: failures are
classified, corrupted bytes are treated as cache misses, and nothing is
silently swallowed. These rules keep new code on that discipline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import LintConfig
from ..context import ModuleContext
from ..findings import Finding
from ..registry import Rule, register


@register
class BareExcept(Rule):
    """RH401: bare ``except:``.

    Catches ``SystemExit``/``KeyboardInterrupt`` too, which breaks the
    CLI's exit-code contract (130 on SIGINT with the journal intact).
    ``except Exception:`` is the widest net the codebase permits.
    Autofixable.
    """

    rule_id = "RH401"
    pack = "resilience-hygiene"
    summary = "bare except: catches SystemExit/KeyboardInterrupt"
    fixable = True

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "bare except: also catches SystemExit and "
                    "KeyboardInterrupt; catch Exception (or narrower)",
                    cfg,
                )

    def fix(
        self, ctx: ModuleContext, finding: Finding
    ) -> tuple[int, str, str] | None:
        line = ctx.lines[finding.line - 1]
        if "except:" not in line:
            return None
        return finding.line, line, line.replace("except:", "except Exception:", 1)


@register
class UnguardedPickleLoad(Rule):
    """RH402: ``pickle.load(s)`` outside the corruption-handling wrappers.

    Cached blobs can be bit-rotted or written by an older class layout;
    ``repro.cache`` unpickles behind a handler that treats any failure
    as a miss. Raw ``pickle.load`` anywhere else
    reintroduces the crash-on-corruption failure mode (and an arbitrary
    code execution surface on untrusted bytes).
    """

    rule_id = "RH402"
    pack = "resilience-hygiene"
    summary = "pickle.load(s) outside the corruption-handling wrappers"

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        if cfg.is_pickle_wrapper(ctx.rel_path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func) or ""
            if dotted in ("pickle.load", "pickle.loads"):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"{dotted} on raw bytes; route through repro.cache "
                    "so corruption is a miss, not a crash",
                    cfg,
                )


@register
class SilentExceptionSwallow(Rule):
    """RH403: ``except Exception: pass`` (or bare-body ``...``).

    A handler that swallows everything and does nothing erases the
    evidence the resilience subsystem classifies failures from. Narrow
    the exception, log, or re-raise; intentional last-resort teardown
    guards carry an inline allow with the reason.
    """

    rule_id = "RH403"
    pack = "resilience-hygiene"
    summary = "broad except handler with empty body"

    _BROAD = {"Exception", "BaseException"}

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is not None:
                name = (
                    node.type.id
                    if isinstance(node.type, ast.Name)
                    else getattr(node.type, "attr", None)
                )
                if name not in self._BROAD:
                    continue
            if all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is Ellipsis
                )
                for stmt in node.body
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "broad except with an empty body swallows the failure "
                    "evidence; narrow it, log, or re-raise",
                    cfg,
                )
