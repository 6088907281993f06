"""REP101 — guarded-by lock discipline.

A class declares which attributes its lock protects, either with a
class-level registry::

    class SpMMEngine:
        _GUARDED_BY_ = {"cache": "_lock", "_build_locks": "_lock"}

or with a trailing annotation comment on the attribute's assignment::

    self.stats = StoreStats()  #: guarded_by: _stats_lock

Every ``self.<attr>`` expression (read *or* write) for a guarded
attribute, anywhere in the class outside ``__init__``, must then be
lexically inside a ``with self.<lock>`` block.  ``__init__`` is exempt:
the instance is not shared before construction completes.

This is the static half of the contract; the runtime sanitizer
(:mod:`repro.analysis.runtime`) audits the same registry dynamically,
catching cross-object access (e.g. one object reaching into another's
guarded cache) that lexical analysis cannot see.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    is_self_attr,
    register,
)

GUARDED_COMMENT_RE = re.compile(r"#:\s*guarded_by:\s*(\w+)")
REGISTRY_NAME = "_GUARDED_BY_"
#: methods where unlocked access is legitimate (object not yet shared)
EXEMPT_METHODS = {"__init__", "__post_init__", "__new__"}


def _lock_names(with_node: ast.With | ast.AsyncWith) -> set[str]:
    """Lock names acquired by one ``with`` statement: ``self.X`` -> X,
    a bare name -> itself."""
    names: set[str] = set()
    for item in with_node.items:
        expr = item.context_expr
        if is_self_attr(expr):
            names.add(expr.attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
    return names


@register
class GuardedByChecker(Checker):
    code = "REP101"
    name = "guarded-by"
    description = (
        "attributes declared lock-guarded are only touched inside "
        "`with self.<lock>` blocks"
    )

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                guarded = self._guarded_map(node, ctx)
                if guarded:
                    self._check_class(node, guarded, ctx, findings)
        return findings

    # ------------------------------------------------------------------
    def _guarded_map(self, cls: ast.ClassDef, ctx: ModuleContext) -> dict:
        """attr -> lock-attr for one class, from both declaration forms."""
        out: dict[str, str] = {}
        for stmt in cls.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == REGISTRY_NAME
                for t in stmt.targets
            ):
                continue
            if isinstance(stmt.value, ast.Dict):
                for k, v in zip(stmt.value.keys, stmt.value.values):
                    if isinstance(k, ast.Constant) and isinstance(
                        v, ast.Constant
                    ):
                        out[str(k.value)] = str(v.value)
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not is_self_attr(target):
                    continue
                line = ctx.lines[node.lineno - 1]
                m = GUARDED_COMMENT_RE.search(line)
                if m:
                    out[target.attr] = m.group(1)
        return out

    def _check_class(
        self,
        cls: ast.ClassDef,
        guarded: dict[str, str],
        ctx: ModuleContext,
        findings: list[Finding],
    ) -> None:
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in EXEMPT_METHODS:
                continue
            for body_stmt in stmt.body:
                self._visit(body_stmt, frozenset(), guarded, ctx, findings)

    def _visit(
        self,
        node: ast.AST,
        held: frozenset[str],
        guarded: dict[str, str],
        ctx: ModuleContext,
        findings: list[Finding],
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            # the with-items themselves evaluate *before* acquisition
            for item in node.items:
                self._visit(item.context_expr, held, guarded, ctx, findings)
            inner = held | _lock_names(node)
            for stmt in node.body:
                self._visit(stmt, inner, guarded, ctx, findings)
            return
        if is_self_attr(node) and node.attr in guarded:
            need = guarded[node.attr]
            if need not in held:
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        code=self.code,
                        message=(
                            f"`self.{node.attr}` is guarded by "
                            f"`self.{need}` but is accessed outside a "
                            f"`with self.{need}` block"
                        ),
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, guarded, ctx, findings)
