"""Exactness-flow analysis: taint tracking for the bit-exact domain.

The M3XU datapath's intermediates — significand splits, lane products,
shift-aligned 48-bit window sums, per-part MMA results — are *exact*:
every bit is meaningful and any native float rounding silently destroys
the paper's bit-identity contract. This module tracks those values
through assignments, containers, arithmetic, returns, and **function
boundaries** (the per-function PS1xx rules cannot follow a value through
a helper) and reports where an exact value reaches a lossy sink:

========  ==========================================================
XF501     ``float()`` cast on an exact value
XF502     ``np.float32``/``np.float16``/``astype`` cast outside the
          ``quantize`` API
XF503     unordered ``sum()``/``np.sum`` where the aligned/windowed
          accumulators are required
XF504     non round-to-nearest-even rounding (``round``, ``floor``,
          ``ceil``, ``trunc``; ``np.rint`` is RNE and exempt)
XF505     natively lossy arithmetic (true division, ``**``,
          ``np.divide``/``np.sqrt``/``np.exp``/...)
========  ==========================================================

Sources and sanitizers come from :class:`~repro.analysis.config
.LintConfig` (``exact_sources``, ``exact_sanitizers``): passing a value
through ``quantize`` / ``quantize_complex`` re-enters the ordinary float
domain and ends the taint. Taint propagates project-wide; *findings* are only reported in
the configured ``exact_flow`` path scope, and never inside the source
functions themselves (their bodies are the sanctioned implementations).

The engine is a flow-insensitive-per-round, interprocedural fixed
point: each round analyzes every function with the current summaries
(which functions return exact values, which parameters receive exact
arguments) and stops when no summary changes. Known limitations, by
design: taint through ``self.attr`` stores, closures, and ``**kwargs``
is not tracked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .config import LintConfig
from .graph import FunctionInfo, ProjectContext

__all__ = ["ExactFlow", "FlowHit"]

#: Calls that forward their (array) argument unchanged bit-for-bit.
_PASSTHROUGH = {
    "asarray", "ascontiguousarray", "array", "stack", "concatenate",
    "hstack", "vstack", "reshape", "transpose", "squeeze", "ravel",
    "copy", "abs", "absolute", "negative", "zeros_like", "empty_like",
}

_F32_CASTS = {"numpy.float32", "numpy.float16", "numpy.half", "numpy.single"}
_F32_DTYPE_STRINGS = {"float32", "float16", "f4", "f2", "half", "single", "<f4", "<f2"}
_SUM_CALLS = {"numpy.sum", "numpy.nansum"}
_ROUNDING_CALLS = {
    "round", "math.floor", "math.ceil", "math.trunc",
    "numpy.floor", "numpy.ceil", "numpy.trunc", "numpy.round",
    "numpy.around", "numpy.fix",
}
_LOSSY_CALLS = {
    "numpy.divide", "numpy.true_divide", "numpy.power", "numpy.float_power",
    "numpy.sqrt", "numpy.exp", "numpy.expm1", "numpy.log", "numpy.log1p",
    "numpy.log2", "numpy.log10", "numpy.reciprocal",
}


@dataclass(frozen=True)
class FlowHit:
    """One exact-value-reaches-lossy-sink finding, pre-severity."""

    rule_id: str
    ctx_path: str          # ModuleContext.path — identity key for rules
    line: int
    col: int
    origin: str            # where the exact value came from
    sink: str              # human description of the lossy operation


@dataclass
class _Summary:
    """Interprocedural knowledge about one function."""

    return_origin: str | None = None
    param_taint: dict[str, str] = field(default_factory=dict)


class ExactFlow:
    """Run the taint analysis over a whole project once per lint run."""

    def __init__(self, project: ProjectContext, cfg: LintConfig) -> None:
        self.project = project
        self.cfg = cfg
        self.sources = set(cfg.exact_sources)
        self.sanitizers = set(cfg.exact_sanitizers)
        self.summaries: dict[str, _Summary] = {}
        self.hits: list[FlowHit] = []
        self._run()

    # ------------------------------------------------------------------

    def _run(self) -> None:
        functions = list(self.project.functions.values())
        for info in functions:
            self.summaries[info.qual] = _Summary()

        for _ in range(10):
            changed = False
            for info in functions:
                analysis = _FunctionPass(self, info, collect=False)
                analysis.run()
                changed |= self._merge(info, analysis)
            if not changed:
                break

        seen: set[tuple[str, int, int, str]] = set()
        for info in functions:
            if not self._collect_in(info):
                continue
            analysis = _FunctionPass(self, info, collect=True)
            analysis.run()
            for hit in analysis.hits:
                key = (hit.ctx_path, hit.line, hit.col, hit.rule_id)
                if key not in seen:
                    seen.add(key)
                    self.hits.append(hit)

    def _collect_in(self, info: FunctionInfo) -> bool:
        if not self.cfg.is_exact_flow(info.ctx.rel_path):
            return False
        # A source's own body is the sanctioned implementation.
        if info.qual in self.sources:
            return False
        return True

    def _merge(self, info: FunctionInfo, analysis: "_FunctionPass") -> bool:
        changed = False
        summary = self.summaries[info.qual]
        if analysis.return_origin and summary.return_origin is None:
            summary.return_origin = analysis.return_origin
            changed = True
        for callee, taints in analysis.callee_taints.items():
            target = self.summaries.get(callee)
            if target is None:
                continue
            for param, origin in taints.items():
                if param not in target.param_taint:
                    target.param_taint[param] = origin
                    changed = True
        return changed


class _FunctionPass:
    """One forward taint pass over a single function body."""

    def __init__(self, flow: ExactFlow, info: FunctionInfo, collect: bool) -> None:
        self.flow = flow
        self.info = info
        self.collect = collect
        self.ctx = info.ctx
        self.scope = flow.project.scope_of(info.qual)
        self.env: dict[str, str] = dict(
            flow.summaries[info.qual].param_taint
        )
        self.return_origin: str | None = None
        self.callee_taints: dict[str, dict[str, str]] = {}
        self.hits: list[FlowHit] = []

    def run(self) -> None:
        # Two passes over the body approximate loop-carried taint.
        for _ in range(2):
            for stmt in self.info.node.body:
                self._stmt(stmt)

    # ------------------------------------------------------------------
    # statements

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are analyzed as their own functions
        if isinstance(stmt, ast.Assign):
            origin = self._expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, origin, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._expr(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            origin = self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                existing = self.env.get(stmt.target.id)
                if origin or existing:
                    self.env[stmt.target.id] = origin or existing  # type: ignore[assignment]
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                origin = self._expr(stmt.value)
                if origin and self.return_origin is None:
                    self.return_origin = origin
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            origin = self._expr(stmt.iter)
            if origin:
                self._bind(stmt.target, origin, stmt.iter)
            for sub in [*stmt.body, *stmt.orelse]:
                self._stmt(sub)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._expr(stmt.test)
            for sub in [*stmt.body, *stmt.orelse]:
                self._stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                origin = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, origin, item.context_expr)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in [*stmt.body, *stmt.orelse, *stmt.finalbody]:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _bind(self, target: ast.expr, origin: str | None, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if origin:
                self.env[target.id] = origin
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            values = value.elts if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(elts) else None
            for i, elt in enumerate(elts):
                sub = self._expr(values[i]) if values is not None else origin
                self._bind(elt, sub, value)
        elif isinstance(target, ast.Subscript):
            # Writing a tainted value into a container taints the container.
            if origin and isinstance(target.value, ast.Name):
                self.env[target.value.id] = origin
        elif isinstance(target, ast.Starred):
            self._bind(target.value, origin, value)
        # self.attr stores are not tracked (documented limitation).

    # ------------------------------------------------------------------
    # expressions

    def _expr(self, expr: ast.expr | None) -> str | None:
        """Taint origin of *expr* (``None`` = not exact), firing sink
        checks along the way when ``collect`` is on."""
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._expr(expr.value)
        if isinstance(expr, ast.Subscript):
            self._expr(expr.slice)
            return self._expr(expr.value)
        if isinstance(expr, ast.Starred):
            return self._expr(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            origin = None
            for elt in expr.elts:
                origin = self._expr(elt) or origin
            return origin
        if isinstance(expr, ast.Dict):
            origin = None
            for key in expr.keys:
                if key is not None:
                    self._expr(key)
            for value in expr.values:
                origin = self._expr(value) or origin
            return origin
        if isinstance(expr, ast.BinOp):
            return self._binop(expr)
        if isinstance(expr, ast.BoolOp):
            origin = None
            for value in expr.values:
                origin = self._expr(value) or origin
            return origin
        if isinstance(expr, ast.UnaryOp):
            return self._expr(expr.operand)
        if isinstance(expr, ast.IfExp):
            self._expr(expr.test)
            return self._expr(expr.body) or self._expr(expr.orelse)
        if isinstance(expr, ast.Compare):
            self._expr(expr.left)
            for comp in expr.comparators:
                self._expr(comp)
            return None  # booleans carry no exactness
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Await):
            return self._expr(expr.value)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            origin = None
            for gen in expr.generators:
                origin = self._expr(gen.iter) or origin
            elt_origin = self._expr(expr.elt)
            return elt_origin or origin
        if isinstance(expr, ast.DictComp):
            origin = None
            for gen in expr.generators:
                origin = self._expr(gen.iter) or origin
            self._expr(expr.key)
            return self._expr(expr.value) or origin
        if isinstance(expr, ast.NamedExpr):
            origin = self._expr(expr.value)
            self._bind(expr.target, origin, expr.value)
            return origin
        return None

    def _binop(self, expr: ast.BinOp) -> str | None:
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        origin = left or right
        if origin and isinstance(expr.op, (ast.Div, ast.Pow)):
            op = "/" if isinstance(expr.op, ast.Div) else "**"
            self._hit(
                "XF505", expr, origin,
                f"native `{op}` arithmetic",
            )
            return None  # the value has left the exact domain
        return origin

    # ------------------------------------------------------------------
    # calls: sources, sanitizers, sinks, passthrough, interprocedural

    def _call(self, call: ast.Call) -> str | None:
        resolved = self.flow.project.resolve(self.ctx, call.func, self.scope) or ""
        basename = resolved.rsplit(".", 1)[-1] if resolved else ""
        if not basename and isinstance(call.func, ast.Attribute):
            # chains rooted in an unresolvable value (a call result, a
            # subscript): the method name is still meaningful.
            basename = call.func.attr
        arg_origins = [self._expr(arg) for arg in call.args]
        kw_origins = {
            kw.arg: self._expr(kw.value) for kw in call.keywords
        }
        any_origin = next(
            (o for o in [*arg_origins, *kw_origins.values()] if o), None
        )
        receiver = (
            self._expr(call.func.value)
            if isinstance(call.func, ast.Attribute)
            else None
        )

        # Sanitizers end the taint: the value is deliberately rounded.
        if basename in self.flow.sanitizers:
            return None

        # Sink checks (only meaningful when something exact is involved).
        if any_origin or receiver:
            fired = self._check_sinks(
                call, resolved, basename, any_origin, receiver, kw_origins
            )
            if fired:
                return None

        # Sources: the call *produces* an exact-domain value.
        if resolved in self.flow.sources:
            return f"{basename}() ({self.ctx.rel_path}:{call.lineno})"

        # Interprocedural: hand argument taint to a known callee ...
        info = self.flow.project.function(resolved)
        if info is not None:
            self._propagate_args(call, info, arg_origins, kw_origins)
            summary = self.flow.summaries.get(resolved)
            if summary is not None and summary.return_origin:
                return f"{summary.return_origin} via {basename}()"

        # ... and passthrough calls keep the taint of their argument.
        if basename in _PASSTHROUGH and any_origin:
            return any_origin
        if receiver and isinstance(call.func, ast.Attribute):
            # method on a tainted receiver: result stays in the domain
            # (.copy()/.reshape()/.real/...). Sinks were checked above.
            return receiver
        return None

    def _propagate_args(
        self,
        call: ast.Call,
        info: FunctionInfo,
        arg_origins: list[str | None],
        kw_origins: dict[str | None, str | None],
    ) -> None:
        params = info.params
        offset = 0
        if info.is_method and isinstance(call.func, ast.Attribute):
            offset = 1  # skip `self`
        taints: dict[str, str] = {}
        for i, origin in enumerate(arg_origins):
            if origin is None:
                continue
            idx = i + offset
            if idx < len(params):
                taints[params[idx]] = (
                    f"{origin}, via parameter {params[idx]!r} of {info.name}()"
                )
        for name, origin in kw_origins.items():
            if origin is not None and name is not None and name in params:
                taints[name] = (
                    f"{origin}, via parameter {name!r} of {info.name}()"
                )
        if taints:
            self.callee_taints.setdefault(info.qual, {}).update(taints)

    # ------------------------------------------------------------------
    # sinks

    def _check_sinks(
        self,
        call: ast.Call,
        resolved: str,
        basename: str,
        any_origin: str | None,
        receiver: str | None,
        kw_origins: dict[str | None, str | None],
    ) -> bool:
        origin = any_origin or receiver or ""
        if resolved == "float" and any_origin:
            self._hit("XF501", call, any_origin, "float() cast")
            return True
        if resolved in _F32_CASTS and any_origin:
            self._hit("XF502", call, any_origin, f"{resolved}() cast")
            return True
        if basename == "astype" and receiver and self._is_f32_dtype(call):
            self._hit("XF502", call, receiver, ".astype(float32/float16) cast")
            return True
        if (
            resolved in {"numpy.array", "numpy.asarray"}
            and any_origin
            and self._is_f32_dtype(call)
        ):
            self._hit("XF502", call, any_origin, f"{basename}(..., dtype=float32) cast")
            return True
        if resolved == "sum" and any_origin:
            self._hit("XF503", call, any_origin, "builtin sum()")
            return True
        if resolved in _SUM_CALLS and any_origin:
            self._hit("XF503", call, any_origin, f"{resolved}()")
            return True
        if basename == "sum" and receiver:
            self._hit("XF503", call, receiver, ".sum()")
            return True
        if resolved in _ROUNDING_CALLS and any_origin:
            self._hit("XF504", call, any_origin, f"{resolved}()")
            return True
        if resolved in _LOSSY_CALLS and (any_origin or receiver):
            self._hit("XF505", call, origin, f"{resolved}()")
            return True
        return False

    def _is_f32_dtype(self, call: ast.Call) -> bool:
        candidates: list[ast.expr] = list(call.args)
        candidates.extend(
            kw.value for kw in call.keywords if kw.arg == "dtype"
        )
        for cand in candidates:
            if isinstance(cand, ast.Constant) and cand.value in _F32_DTYPE_STRINGS:
                return True
            if isinstance(cand, (ast.Name, ast.Attribute)):
                dotted = self.flow.project.resolve(self.ctx, cand, self.scope)
                if dotted in _F32_CASTS:
                    return True
        return False

    def _hit(self, rule_id: str, node: ast.AST, origin: str, sink: str) -> None:
        if not self.collect:
            return
        self.hits.append(
            FlowHit(
                rule_id=rule_id,
                ctx_path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                origin=origin,
                sink=sink,
            )
        )
