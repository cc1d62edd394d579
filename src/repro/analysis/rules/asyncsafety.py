"""Async-safety rules (AS6xx): static race/hang detection for repro.serve.

The serving layer runs three thread contexts: the asyncio event loop,
the single compute-executor thread feeding the process pool, and the
forked pool workers. These rules use the project call graph to check
the contracts between them:

* AS601 — a blocking call (``time.sleep``, ``open``, ``parallel_map``,
  subprocess) reachable from a coroutine *without* an executor hop
  stalls every connection the loop is serving.
* AS602 — a ``create_task``/``ensure_future`` result that is neither
  awaited nor stored is garbage-collectable mid-flight and its
  exceptions vanish.
* AS603 — server state mutated from both the event loop and the
  executor thread without a lock (or a lock-guarded class) races.
* AS604 — a serve-side call into the pool fan-out that drops the
  ``timeout=`` deadline turns a hung worker into a hung request.
* AS605 — calling a coroutine function without ``await`` (or wrapping
  it in a task) silently does nothing.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from ..config import LintConfig
from ..context import ModuleContext
from ..findings import Finding
from ..graph import ProjectContext
from ..registry import Rule, register
from .forksafety import _MUTATING_METHODS

_TASK_SPAWNERS = {"create_task", "ensure_future"}

#: Method basenames that mutate their receiver (superset of the
#: fork-safety list: includes the serve-layer verbs).
_STATE_MUTATORS = _MUTATING_METHODS | {
    "put", "record", "increment", "push", "set", "reset",
}


def _basename(dotted: str | None) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def _module_has_async(ctx: ModuleContext) -> bool:
    return any(
        isinstance(node, ast.AsyncFunctionDef) for node in ast.walk(ctx.tree)
    )


def _is_blocking(dotted: str, cfg: LintConfig) -> bool:
    return dotted in cfg.blocking_calls or _basename(dotted) in cfg.parallel_entrypoints


@register
class BlockingCallInCoroutine(Rule):
    """AS601: blocking call reachable from a coroutine without an
    executor hop.

    Checked transitively over the call graph: an ``async def`` may call
    sync helpers, but if any helper on the path performs blocking I/O
    or enters the pool, the event loop stalls for its full duration.
    Edges through ``run_in_executor``/``to_thread``/``submit`` change
    threads and end the search; awaited coroutines are reported at
    their own ``async def``, not re-attributed to every caller.
    """

    rule_id = "AS601"
    pack = "async-safety"
    summary = "blocking call reachable from a coroutine"

    def applies_to(self, ctx: ModuleContext, cfg: LintConfig) -> bool:
        return ctx.project is not None and _module_has_async(ctx)

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        project = ctx.project
        assert project is not None
        for info in project.async_functions(ctx):
            reported: set[str] = set()
            reach = project.reachable(
                [info.qual],
                kinds=("call",),
                stop=lambda q: (
                    q in project.functions and project.functions[q].is_async
                ),
            )
            for qual, path in sorted(reach.items()):
                target = project.functions.get(qual)
                if target is None:
                    continue
                if target.is_async and qual != info.qual:
                    continue  # not expanded: reported at its own def
                for site in project.edges_from(qual):
                    if site.kind != "call":
                        continue
                    if not _is_blocking(site.callee, cfg):
                        continue
                    if site.callee in reported:
                        continue
                    reported.add(site.callee)
                    chain = " -> ".join(
                        _basename(q) for q in [*path, site.callee]
                    )
                    yield self.finding(
                        ctx,
                        info.node.lineno,
                        info.node.col_offset,
                        f"coroutine {info.name!r} reaches blocking call "
                        f"{_basename(site.callee)}() "
                        f"({site.ctx.rel_path}:{site.line}) without an "
                        f"executor hop [{chain}]; route it through "
                        "run_in_executor on the compute executor",
                        cfg,
                    )


@register
class OrphanTask(Rule):
    """AS602: ``create_task`` result neither awaited nor stored.

    asyncio keeps only a weak reference to running tasks: an unstored
    task can be garbage-collected mid-flight, and its exception is
    swallowed with only a late "Task exception was never retrieved"
    log. Store the handle (and discard it on completion) or await it.
    """

    rule_id = "AS602"
    pack = "async-safety"
    summary = "create_task result neither awaited nor stored"

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name not in _TASK_SPAWNERS:
                continue
            if isinstance(ctx.parent(node), ast.Expr):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"{name}() result is neither awaited nor stored; the "
                    "task may be garbage-collected mid-flight and its "
                    "exception is lost — keep a reference",
                    cfg,
                )


@dataclass
class _MutationSite:
    cls: str
    attr: str
    fn: str
    node: ast.AST
    ctx: ModuleContext


@dataclass
class _Sides:
    loop_fns: set[str] = field(default_factory=set)
    exec_fns: set[str] = field(default_factory=set)


def _thread_sides(project: ProjectContext) -> _Sides:
    """Which functions may run on the event loop vs the executor thread.

    Loop side: every coroutine plus everything sync it reaches through
    plain calls and callback refs. Executor side: every function handed
    to ``run_in_executor``/``submit``/``to_thread`` or shipped to the
    pool, plus its own call/ref closure.
    """
    sides = _Sides()
    loop_seeds = [f.qual for f in project.functions.values() if f.is_async]
    exec_seeds = [
        site.callee
        for site in project.calls
        if site.kind in ("executor", "task")
    ]
    sides.loop_fns = set(
        project.reachable(loop_seeds, kinds=("call", "ref"))
    )
    sides.exec_fns = set(
        project.reachable(exec_seeds, kinds=("call", "ref"))
    )
    return sides


def _mutation_sites(project: ProjectContext, ctx_filter: set[str]) -> list[_MutationSite]:
    """All ``self.X`` mutations in methods of classes in serve modules."""
    sites: list[_MutationSite] = []
    for info in project.functions.values():
        if info.cls is None or info.name == "__init__":
            continue
        if info.ctx.rel_path not in ctx_filter:
            continue
        for node in ast.walk(info.node):
            attr = _mutated_self_attr(node)
            if attr is not None:
                sites.append(
                    _MutationSite(info.cls, attr, info.qual, node, info.ctx)
                )
    return sites


def _self_attr_root(expr: ast.expr) -> str | None:
    """``self.X`` / ``self.X[k]`` / ``self.X.Y`` -> ``X``."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        expr = expr.value
    return None


def _mutated_self_attr(node: ast.AST) -> str | None:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Attribute):
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    return target.attr
            elif isinstance(target, ast.Subscript):
                attr = _self_attr_root(target)
                if attr is not None:
                    return attr
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _STATE_MUTATORS:
            attr = _self_attr_root(node.func.value)
            if attr is not None:
                return attr
    return None


@register
class SharedStateRace(Rule):
    """AS603: server state mutated from both the loop and the executor.

    The serving layer's documented handoff is: state classes that cross
    threads carry their own ``threading.Lock`` (admission, breaker,
    degrade, cache); everything else belongs to exactly one thread.
    A ``self.X`` attribute mutated both by loop-side and executor-side
    methods, where neither the owning class nor the attribute's class
    constructs a lock, is a data race.
    """

    rule_id = "AS603"
    pack = "async-safety"
    summary = "shared server state mutated from both threads without a lock"

    def applies_to(self, ctx: ModuleContext, cfg: LintConfig) -> bool:
        return ctx.project is not None and cfg.is_serve(ctx.rel_path)

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        project = ctx.project
        assert project is not None
        hits = project.cached("as603", lambda: self._scan(project, cfg))
        for site, loop_fns, exec_fns in hits:
            if site.ctx is not ctx:
                continue
            yield self.finding(
                ctx,
                getattr(site.node, "lineno", 0),
                getattr(site.node, "col_offset", 0),
                f"attribute {site.attr!r} of {_basename(site.cls)} is "
                f"mutated from both the event loop "
                f"({', '.join(sorted(loop_fns))}) and the executor thread "
                f"({', '.join(sorted(exec_fns))}) without a lock; give the "
                "state class its own threading.Lock or confine it to one "
                "thread",
                cfg,
            )

    @staticmethod
    def _scan(
        project: ProjectContext, cfg: LintConfig
    ) -> list[tuple[_MutationSite, set[str], set[str]]]:
        serve_files = {
            ctx.rel_path
            for ctx in project.modules.values()
            if cfg.is_serve(ctx.rel_path)
        }
        sides = _thread_sides(project)
        sites = _mutation_sites(project, serve_files)

        by_attr: dict[tuple[str, str], list[_MutationSite]] = {}
        for site in sites:
            by_attr.setdefault((site.cls, site.attr), []).append(site)

        hits: list[tuple[_MutationSite, set[str], set[str]]] = []
        for (cls_qual, attr), group in sorted(by_attr.items()):
            cls = project.classes.get(cls_qual)
            if cls is None or cls.has_lock:
                continue
            attr_cls = project.classes.get(cls.attr_types.get(attr, ""))
            if attr_cls is not None and attr_cls.has_lock:
                continue
            loop_fns = {
                _basename(s.fn) for s in group if s.fn in sides.loop_fns
            }
            exec_fns = {
                _basename(s.fn) for s in group if s.fn in sides.exec_fns
            }
            if not (loop_fns and exec_fns):
                continue
            for site in group:
                if site.fn in sides.exec_fns or loop_fns == exec_fns:
                    hits.append((site, loop_fns, exec_fns))
        return hits


def _pool_reaching(project: ProjectContext, cfg: LintConfig) -> set[str]:
    """Functions that transitively call a parallel entrypoint."""
    seeds: set[str] = set()
    for site in project.calls:
        if site.kind == "call" and _basename(site.callee) in cfg.parallel_entrypoints:
            if site.caller in project.functions:
                seeds.add(site.caller)
    out = set(seeds)
    queue = deque(seeds)
    while queue:
        cur = queue.popleft()
        for site in project.callers_of(cur):
            if (
                site.kind == "call"
                and site.caller in project.functions
                and site.caller not in out
            ):
                out.add(site.caller)
                queue.append(site.caller)
    return out


@register
class MissingDeadlinePropagation(Rule):
    """AS604: pool fan-out call in the serving layer without a deadline.

    ``parallel_map``'s ``timeout=`` is the only mechanism that turns a
    hung worker into a killed worker instead of a hung request — the
    serving layer must propagate its per-request deadline into *every*
    call that can reach the pool: ``parallel_map`` itself, or a helper
    that reaches it and takes a ``timeout`` parameter.
    """

    rule_id = "AS604"
    pack = "async-safety"
    summary = "pool fan-out without timeout propagation in serve path"

    def applies_to(self, ctx: ModuleContext, cfg: LintConfig) -> bool:
        return ctx.project is not None and cfg.is_serve(ctx.rel_path)

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        project = ctx.project
        assert project is not None
        reaching = project.cached(
            "as604.pool_reaching", lambda: _pool_reaching(project, cfg)
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = project.resolve_call(ctx, node) or ""
            basename = _basename(resolved)
            direct = basename in cfg.parallel_entrypoints
            if not direct:
                info = project.function(resolved)
                if (
                    info is None
                    or "timeout" not in info.params
                    or resolved not in reaching
                ):
                    continue
            kw_names = {kw.arg for kw in node.keywords}
            if None in kw_names:  # **kwargs may carry the deadline
                continue
            if "timeout" in kw_names or "deadline" in kw_names:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"{basename}() can reach the process pool but no "
                "timeout= is passed; a hung worker becomes a hung "
                "request — propagate the request deadline",
                cfg,
            )


@register
class UnawaitedCoroutine(Rule):
    """AS605: coroutine function called like a plain function.

    Calling an ``async def`` returns a coroutine object and runs
    nothing; as a bare expression statement the work is silently
    dropped (RuntimeWarning at best). Await it or hand it to
    ``create_task``/``gather``.
    """

    rule_id = "AS605"
    pack = "async-safety"
    summary = "coroutine called without await"

    def applies_to(self, ctx: ModuleContext, cfg: LintConfig) -> bool:
        return ctx.project is not None and _module_has_async(ctx)

    def check(self, ctx: ModuleContext, cfg: LintConfig) -> Iterator[Finding]:
        project = ctx.project
        assert project is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(ctx.parent(node), ast.Expr):
                continue
            resolved = project.resolve_call(ctx, node)
            info = project.function(resolved or "")
            if info is not None and info.is_async:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"coroutine {info.name!r} is called but never awaited; "
                    "the call only builds a coroutine object — await it or "
                    "wrap it in create_task",
                    cfg,
                )
