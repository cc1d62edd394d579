"""Determinism rules (DT2xx).

Every emulation result in this repo is asserted bit-identical across
worker counts, cache states, and served vs in-process runs — which only
holds if no code path consumes entropy the caller did not seed. Fault
injection in particular must thread an explicit seed (the campaign
engine replays trials from it).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import LintConfig
from ..context import ModuleContext
from ..findings import Finding
from ..registry import Rule, register

#: Legacy global-state numpy RNG entry points (shared hidden state).
_NP_GLOBAL_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "uniform",
    "normal", "standard_normal", "binomial", "poisson", "bytes",
}

#: stdlib ``random`` module-level functions (shared hidden state).
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "seed", "getrandbits", "randbytes",
}


def _is_unseeded_call(node: ast.Call) -> bool:
    """No positional seed argument, or an explicit ``None`` seed."""
    if not node.args and not node.keywords:
        return True
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in node.keywords:
        if kw.arg == "seed":
            return isinstance(kw.value, ast.Constant) and kw.value.value is None
    return True  # only non-seed keywords given


@register
class UnseededGenerator(Rule):
    """DT201: ``np.random.default_rng()`` without an explicit seed.

    An unseeded generator pulls OS entropy, so two runs of the same
    emulation or fault campaign produce different results and the
    bit-identical replay guarantees (cache, ABFT recomputation)
    silently stop being testable.
    """

    rule_id = "DT201"
    pack = "determinism"
    summary = "unseeded np.random.default_rng()"

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func) or ""
            if dotted in ("numpy.random.default_rng", "numpy.random.Generator"):
                if dotted.endswith("default_rng") and _is_unseeded_call(node):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        "default_rng() without an explicit seed breaks "
                        "bit-identical replay; thread a seed parameter",
                        cfg,
                    )


@register
class GlobalNumpyRandom(Rule):
    """DT202: legacy ``np.random.*`` global-state functions.

    The module-level numpy RNG is hidden shared state: unseeded it is
    nondeterministic, seeded it is a fork-safety hazard (workers inherit
    identical state). Use ``np.random.default_rng(seed)`` instances.
    """

    rule_id = "DT202"
    pack = "determinism"
    summary = "legacy global-state np.random.* call"

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func) or ""
            parts = dotted.split(".")
            if (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in _NP_GLOBAL_FNS
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"np.random.{parts[2]} uses hidden global RNG state; "
                    "use np.random.default_rng(seed) instances",
                    cfg,
                )


@register
class StdlibRandom(Rule):
    """DT203: stdlib ``random`` module functions / unseeded ``Random()``.

    Module-level ``random.*`` draws from interpreter-global state, and a
    bare ``Random()`` seeds from OS entropy — both unreproducible. Even
    timing decisions (retry jitter) are seeded in this repo so failure
    schedules replay exactly.
    """

    rule_id = "DT203"
    pack = "determinism"
    summary = "stdlib random.* global state or unseeded Random()"

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func) or ""
            parts = dotted.split(".")
            if dotted.startswith("random.") and len(parts) == 2:
                if parts[1] in _STDLIB_RANDOM_FNS:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"random.{parts[1]} uses interpreter-global RNG "
                        "state; use a seeded random.Random instance",
                        cfg,
                    )
                elif parts[1] == "Random" and not node.args and not node.keywords:
                    yield self._unseeded(ctx, cfg, node)
            elif dotted == "random.Random" or (
                isinstance(node.func, ast.Name)
                and ctx.imports.get(node.func.id) == "random.Random"
            ):
                if not node.args and not node.keywords:
                    yield self._unseeded(ctx, cfg, node)

    def _unseeded(
        self, ctx: ModuleContext, cfg: LintConfig, node: ast.Call
    ) -> Finding:
        return self.finding(
            ctx,
            node.lineno,
            node.col_offset,
            "Random() without a seed pulls OS entropy; pass an explicit "
            "seed so schedules replay deterministically",
            cfg,
        )
