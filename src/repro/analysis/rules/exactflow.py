"""Exactness-flow rules (XF5xx): interprocedural taint findings.

Thin reporting shims over :class:`repro.analysis.flow.ExactFlow` — the
taint engine runs once per lint run (cached on the project context) and
each rule surfaces its own sink class in the modules it owns. The rules
need a project call graph; ``lint_file`` builds a single-module project,
so same-file interprocedural flows still report when linting one file.
"""

from __future__ import annotations

from typing import Iterator

from ..config import LintConfig
from ..context import ModuleContext
from ..findings import Finding
from ..flow import ExactFlow
from ..registry import Rule, register


def _flow(ctx: ModuleContext, cfg: LintConfig) -> ExactFlow | None:
    if ctx.project is None:
        return None
    return ctx.project.cached("exactflow", lambda: ExactFlow(ctx.project, cfg))


class _ExactFlowRule(Rule):
    """Shared scope gate + hit-to-finding plumbing."""

    pack = "exactness-flow"
    advice: str = ""

    def applies_to(self, ctx: ModuleContext, cfg: LintConfig) -> bool:
        return ctx.project is not None and cfg.is_exact_flow(ctx.rel_path)

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        flow = _flow(ctx, cfg)
        if flow is None:
            return
        for hit in flow.hits:
            if hit.ctx_path != ctx.path or hit.rule_id != self.rule_id:
                continue
            if self._suppressed(ctx, cfg, hit.line):
                continue
            yield self.finding(
                ctx,
                hit.line,
                hit.col,
                f"exact value from {hit.origin} reaches {hit.sink}; "
                f"{self.advice}",
                cfg,
            )

    def _suppressed(self, ctx: ModuleContext, cfg: LintConfig, line: int) -> bool:
        """Rule-specific extra suppression hook."""
        return False


@register
class ExactValueFloatCast(_ExactFlowRule):
    """XF501: ``float()`` on an exact-domain value.

    A ``float()`` cast collapses the multi-word exact representation to
    one double rounding step the datapath never specified. Exact values
    leave the domain only through ``repro.types.quantize``.
    """

    rule_id = "XF501"
    summary = "float() cast on an exact-domain value"
    advice = (
        "round through repro.types.quantize instead of a float() cast"
    )


@register
class ExactValueNarrowingCast(_ExactFlowRule):
    """XF502: float32/float16 cast outside the quantize API.

    ``np.float32(x)`` / ``x.astype(np.float32)`` rounds with whatever
    mode numpy picked, not the documented RNE quantization, and drops
    the sticky/guard information the windowed accumulators preserve.
    """

    rule_id = "XF502"
    summary = "np.float32/np.float16 cast on an exact-domain value"
    advice = "use quantize(x, FP32) — the sanctioned narrowing"

    def _suppressed(self, ctx: ModuleContext, cfg: LintConfig, line: int) -> bool:
        # A cast the PS105 allowlist has vetted as exact-by-construction
        # (values provably narrower than the float32 significand) is not
        # a lossy sink — honoring the existing annotation keeps one
        # allowlist for both the syntactic and the flow-based rule.
        return ctx.is_allowed("PS105", line) or cfg.is_path_allowed(
            "PS105", ctx.rel_path
        )


@register
class ExactValueUnorderedSum(_ExactFlowRule):
    """XF503: ``sum()``/``np.sum`` on exact-domain values.

    Float summation order changes the result; the paper's reduction is
    the shift-aligned windowed accumulate. Summing lane products or
    window words with ``sum()`` silently reintroduces order dependence.
    """

    rule_id = "XF503"
    summary = "unordered sum() over exact-domain values"
    advice = (
        "use aligned_sum_groups / segmented_windowed_sum_f32 for the "
        "reduction"
    )


@register
class ExactValueNonRNERounding(_ExactFlowRule):
    """XF504: non round-to-nearest-even rounding on an exact value.

    ``round``/``floor``/``ceil``/``trunc`` round away from the RNE
    contract (PAPER.md Eq. 9); ``np.rint`` and ``quantize`` are the only
    sanctioned roundings.
    """

    rule_id = "XF504"
    summary = "non-RNE rounding on an exact-domain value"
    advice = "only np.rint / quantize may round exact values (RNE)"


@register
class ExactValueLossyArithmetic(_ExactFlowRule):
    """XF505: natively lossy arithmetic on an exact value.

    True division, ``**`` and transcendental numpy calls all round their
    float result; the exact pipeline stays in the integer/split domain
    until an explicit quantize.
    """

    rule_id = "XF505"
    summary = "lossy native arithmetic on an exact-domain value"
    advice = (
        "keep the computation in the integer/split domain or quantize "
        "first"
    )
