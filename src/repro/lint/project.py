"""Whole-program analysis: the project context and rules RPL013–RPL016.

PR 7's sharded runtime rests on three cross-process protocols that are
invisible to per-file AST rules: shared-memory buffers must only be
mutated inside the post log's commit protocol, every rng draw must be
full-population (lockstep), and barrier/exhaustion markers must trail
the posts they cover.  This module extends :mod:`repro.lint` from
per-file syntax to a *project-level* pass:

* :class:`ProjectContext` — every parsed file plus a light program
  index: top-level function/method table, per-module import alias
  maps, and call resolution across modules (``from x import f`` and
  ``mod.f(...)`` spellings).
* a small intra-procedural **dataflow lattice** (``SHARED`` /
  ``OTHER``) used by RPL013: local names are tagged shared when they
  originate from shared-memory constructors, handles, or ``.buf``
  views, and tags propagate through assignments, views, and — one
  call level at a time, memoised — through calls to project functions
  whose arguments carry shared values (escape analysis).
* four machine-checked concurrency contracts:

  - **RPL013** — no writes through shared-memory-attached values
    (``SharedInstanceHandle``, ``PostLog``/shm buffers) outside the
    commit protocol (``repro/billboard/postlog.py``) and the
    publication substrate (``repro/parallel/shared.py``);
  - **RPL014** — no rng draws inside shard-conditional branches or
    owner-filtered loops under ``repro/serve/`` (lockstep: every
    worker must consume the master generator identically);
  - **RPL015** — flow-sensitive: within a function, a post append
    must never follow a barrier/exhaustion marker append on any path
    (marker visibility must imply post visibility);
  - **RPL016** — no bare :mod:`multiprocessing` primitives (``Pipe``,
    ``Lock``, ``shared_memory``, …) outside ``repro/parallel/``,
    ``repro/serve/sharded.py``, and the post log itself.

The rules subclass :class:`~repro.lint.engine.ProjectRule`, so they run
once per project (the runner routes each finding to its own file's
suppression table) and degrade gracefully to a one-file project under
``lint_source``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.lint.engine import Diagnostic, LintContext, ProjectRule

__all__ = [
    "BarrierOrderRule",
    "FunctionInfo",
    "MultiprocessingContainmentRule",
    "ProjectContext",
    "RngLockstepRule",
    "SharedMemoryWriteRule",
]


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _module_to_path(dotted: str) -> tuple[str, str]:
    """``repro.serve.sharded`` -> candidate module paths (module, package)."""
    base = dotted.replace(".", "/")
    return f"{base}.py", f"{base}/__init__.py"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, addressable across the project."""

    ctx: LintContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str  # "f" or "Class.f"


@dataclass
class ProjectContext:
    """All parsed files of one lint run, plus the program index."""

    contexts: list[LintContext]
    #: module path (``repro/serve/sharded.py``) -> its context
    modules: dict[str, LintContext] = field(default_factory=dict)
    #: (module path or file path, bare function name) -> definitions
    _functions: dict[tuple[str, str], list[FunctionInfo]] = field(default_factory=dict)
    #: per-file import alias tables: path -> {local name: (module, original)}
    _imports: dict[str, dict[str, tuple[str, str | None]]] = field(default_factory=dict)

    @classmethod
    def from_contexts(cls, contexts: Sequence[LintContext]) -> "ProjectContext":
        project = cls(contexts=list(contexts))
        for ctx in contexts:
            if ctx.module_path is not None:
                project.modules[ctx.module_path] = ctx
            project._index_functions(ctx)
            project._imports[ctx.path] = _import_aliases(ctx.tree)
        return project

    def _index_functions(self, ctx: LintContext) -> None:
        key = ctx.module_path or ctx.path
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(ctx=ctx, node=node, qualname=node.name)
                self._functions.setdefault((key, node.name), []).append(info)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            ctx=ctx, node=sub, qualname=f"{node.name}.{sub.name}"
                        )
                        self._functions.setdefault((key, sub.name), []).append(info)

    def functions(self) -> Iterator[FunctionInfo]:
        """Every function/method definition in the project."""
        for infos in self._functions.values():
            yield from infos

    def resolve_call(self, ctx: LintContext, call: ast.Call) -> FunctionInfo | None:
        """Resolve a call to a *top-level function* defined in the project.

        Handles the three common spellings — ``f(...)`` (same module or
        ``from m import f``), ``mod.f(...)`` (``import pkg.mod as
        mod``) — and returns ``None`` for anything it cannot pin to a
        unique top-level definition (methods, builtins, foreign
        libraries).  Deliberately conservative: an unresolved call
        never produces a finding.
        """
        key = ctx.module_path or ctx.path
        aliases = self._imports.get(ctx.path, {})
        func = call.func
        if isinstance(func, ast.Name):
            local = self._lookup(key, func.id, toplevel_only=True)
            if local is not None:
                return local
            target = aliases.get(func.id)
            if target is not None and target[1] is not None:
                return self._lookup_module(target[0], target[1])
            return None
        chain = _attr_chain(func)
        if len(chain) == 2:
            target = aliases.get(chain[0])
            if target is not None and target[1] is None:  # module alias
                return self._lookup_module(target[0], chain[1])
        return None

    def _lookup(self, key: str, name: str, *, toplevel_only: bool) -> FunctionInfo | None:
        infos = self._functions.get((key, name), [])
        if toplevel_only:
            infos = [i for i in infos if "." not in i.qualname]
        return infos[0] if len(infos) == 1 else None

    def _lookup_module(self, dotted: str, name: str) -> FunctionInfo | None:
        for candidate in _module_to_path(dotted):
            if candidate in self.modules:
                return self._lookup(candidate, name, toplevel_only=True)
        return None


def _import_aliases(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Top-level import table: local name -> (dotted module, original name).

    ``original is None`` marks a module alias (``import a.b as c``);
    otherwise the local name is a ``from``-imported object.
    """
    aliases: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = (target, None)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (node.module, alias.name)
    return aliases


# ---------------------------------------------------------------------------
# RPL013 — shared-memory write containment (escape analysis)
# ---------------------------------------------------------------------------

#: Constructors/owners whose results are shared-memory-attached values.
_SHARED_ROOTS = frozenset({"SharedInstanceHandle", "PostLog", "SharedMemory", "SharedBillboard"})

#: Methods/attributes that *derive* a shared view from a shared value.
_SHARED_DERIVERS = frozenset({"bitmatrix", "buf", "_shm", "_log", "frombuffer", "memoryview"})

#: Type annotation substrings that mark a parameter as shared on entry.
_SHARED_ANNOTATIONS = ("SharedInstanceHandle", "PostLog", "SharedMemory", "SharedBillboard")

#: Files allowed to write through shared values: the commit protocol
#: itself and the publication substrate.
_RPL013_ALLOWED = ("repro/billboard/postlog.py", "repro/parallel/shared.py")


def _annotation_is_shared(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - exotic annotation nodes
        return False
    return any(marker in text for marker in _SHARED_ANNOTATIONS)


class _SharedFlow:
    """The intra-procedural lattice: which local names hold shared values.

    Two-point lattice per name (``SHARED`` ⊐ ``OTHER``); assignments
    transfer the tag of their right-hand side, views (subscripts,
    attribute derivers) keep it, and everything else drops to OTHER.
    Iterated to a fixpoint over the function body, ignoring branch
    order — sound for the "did a shared value reach this write?"
    question because tags only ever widen.
    """

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef, seeds: set[str]) -> None:
        self.func = func
        self.shared: set[str] = set(seeds)
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_shared(arg.annotation):
                self.shared.add(arg.arg)
        self._solve()

    def _solve(self) -> None:
        for _ in range(8):  # small fixpoint: tags only widen
            before = len(self.shared)
            for node in ast.walk(self.func):
                if isinstance(node, ast.Assign):
                    if self.value_is_shared(node.value):
                        for target in node.targets:
                            self._tag(target)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    value = node.value
                    tagged = (value is not None and self.value_is_shared(value)) or (
                        isinstance(node, ast.AnnAssign)
                        and _annotation_is_shared(node.annotation)
                    )
                    if tagged:
                        self._tag(node.target)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if item.optional_vars is not None and self.value_is_shared(
                            item.context_expr
                        ):
                            self._tag(item.optional_vars)
            if len(self.shared) == before:
                return

    def _tag(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.shared.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._tag(element)
        elif isinstance(target, ast.Starred):
            self._tag(target.value)

    def value_is_shared(self, node: ast.AST) -> bool:
        """Whether *node* evaluates to a shared-memory-attached value."""
        if isinstance(node, ast.Name):
            return node.id in self.shared
        if isinstance(node, ast.Attribute):
            if node.attr in _SHARED_DERIVERS:
                return True
            return self.value_is_shared(node.value)
        if isinstance(node, ast.Subscript):
            return self.value_is_shared(node.value)
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and (set(chain) & _SHARED_ROOTS):
                return True
            if chain and chain[-1] in _SHARED_DERIVERS:
                # np.frombuffer(buf)/memoryview(buf) only taint when fed
                # a shared argument; .bitmatrix() taints via its owner.
                if chain[-1] in ("frombuffer", "memoryview"):
                    return any(self.value_is_shared(a) for a in node.args)
                return True
            return False
        return False


@dataclass(frozen=True)
class _WriteSite:
    ctx: LintContext
    node: ast.AST
    what: str


def _shared_writes(
    project: ProjectContext,
    info: FunctionInfo,
    seeds: set[str],
    *,
    depth: int,
    memo: set[tuple[int, frozenset[str]]],
) -> Iterator[_WriteSite]:
    """Write sites reachable from *info* with *seeds* tagged shared.

    Yields direct subscript/attribute stores through shared values in
    this function, then follows shared arguments into resolvable
    project callees (the escape step), one level deeper per call, with
    a memo so diamond call graphs terminate.
    """
    key = (id(info.node), frozenset(seeds))
    if depth <= 0 or key in memo:
        return
    memo.add(key)
    flow = _SharedFlow(info.node, seeds)
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and flow.value_is_shared(target.value):
                    yield _WriteSite(info.ctx, target, "subscript store")
                elif isinstance(target, ast.Attribute) and flow.value_is_shared(target.value):
                    yield _WriteSite(info.ctx, target, "attribute store")
        elif isinstance(node, ast.Call):
            callee = project.resolve_call(info.ctx, node)
            if callee is None or callee.node is info.node:
                continue
            params = [
                a.arg
                for a in [
                    *callee.node.args.posonlyargs,
                    *callee.node.args.args,
                    *callee.node.args.kwonlyargs,
                ]
            ]
            escaped: set[str] = set()
            positional = [*callee.node.args.posonlyargs, *callee.node.args.args]
            for i, arg in enumerate(node.args):
                if i < len(positional) and flow.value_is_shared(arg):
                    escaped.add(positional[i].arg)
            for keyword in node.keywords:
                if keyword.arg in params and flow.value_is_shared(keyword.value):
                    escaped.add(keyword.arg)
            if escaped:
                yield from _shared_writes(
                    project, callee, escaped, depth=depth - 1, memo=memo
                )


class SharedMemoryWriteRule(ProjectRule):
    """RPL013 — shared-memory writes only inside the commit protocol.

    The post log's crash-safety story ("a record is either invisible or
    complete") holds because exactly one code path mutates the shared
    segment: :meth:`PostLog._append`, bytes first, watermark last.  A
    write through a :class:`SharedInstanceHandle` view, a ``.buf``
    memoryview, or any value derived from them — anywhere else —
    bypasses that protocol and can tear state every shard reads.  The
    check is an escape analysis: shared tags flow through assignments,
    views, and calls into project functions (so a handle smuggled
    through a helper is still caught).
    """

    id = "RPL013"
    severity = "error"
    summary = "no writes through shared-memory values outside the postlog commit protocol"
    hint = "mutate shared state only via PostLog.append / the publish protocol"

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        seen: set[tuple[str, int, int]] = set()
        memo: set[tuple[int, frozenset[str]]] = set()
        for info in project.functions():
            if not info.ctx.in_library(exclude=_RPL013_ALLOWED):
                continue
            for site in _shared_writes(project, info, set(), depth=4, memo=memo):
                if site.ctx.in_library(exclude=()) and not site.ctx.in_library(
                    exclude=_RPL013_ALLOWED
                ):
                    continue  # escaped *into* the commit protocol: allowed
                anchor = (
                    site.ctx.path,
                    getattr(site.node, "lineno", 1),
                    getattr(site.node, "col_offset", 0),
                )
                if anchor in seen:
                    continue
                seen.add(anchor)
                yield Diagnostic(
                    rule=self.id,
                    severity=self.severity,
                    path=site.ctx.path,
                    line=anchor[1],
                    col=anchor[2],
                    message=(
                        f"{site.what} through a shared-memory-attached value "
                        f"outside the commit protocol"
                    ),
                    hint=self.hint,
                )


# ---------------------------------------------------------------------------
# RPL014 — rng lockstep in the serving layer
# ---------------------------------------------------------------------------

#: Call names that consume the master generator (draws/spawns).
_DRAW_FUNCS = frozenset({"spawn", "spawn_many", "spawn_seeds"})
_DRAW_METHODS = frozenset(
    {
        "draw",
        "integers",
        "random",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "binomial",
    }
)

#: Identifiers that mark a condition as shard-dependent.
_SHARD_MARKERS = ("shard", "owner")

#: Exact attribute/function names whose iteration is owner-filtered.
_OWNER_ITERS = frozenset(
    {"_players", "_local_players", "local_players", "active_players", "owned_players"}
)


def _is_draw_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Name):
        return node.func.id in _DRAW_FUNCS
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in _DRAW_METHODS or node.func.attr in _DRAW_FUNCS
    return False


def _mentions_shard(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and any(marker in name.lower() for marker in _SHARD_MARKERS):
            return True
    return False


def _iter_is_owner_filtered(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name in _OWNER_ITERS:
            return True
    return False


class _LockstepVisitor(ast.NodeVisitor):
    """Collects rng draws nested under shard-conditional control flow."""

    def __init__(self, rule: "RngLockstepRule", ctx: LintContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.found: list[Diagnostic] = []
        self._guards: list[str] = []

    def _report(self, node: ast.Call) -> None:
        reason = self._guards[-1]
        self.found.append(
            Diagnostic(
                rule=self.rule.id,
                severity=self.rule.severity,
                path=self.ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"rng draw inside {reason} breaks full-population lockstep "
                    f"(every shard must consume the master generator identically)"
                ),
                hint=self.rule.hint,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        if self._guards and _is_draw_call(node):
            self._report(node)
        self.generic_visit(node)

    def _guarded(self, reason: str | None, bodies: list[list[ast.stmt]]) -> None:
        if reason is not None:
            self._guards.append(reason)
        for body in bodies:
            for stmt in body:
                self.visit(stmt)
        if reason is not None:
            self._guards.pop()

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        reason = "a shard-conditional branch" if _mentions_shard(node.test) else None
        self._guarded(reason, [node.body, node.orelse])

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        reason = "a shard-conditional loop" if _mentions_shard(node.test) else None
        self._guarded(reason, [node.body, node.orelse])

    def _visit_for(self, node: ast.For | ast.AsyncFor) -> None:
        self.visit(node.iter)
        reason = "an owner-filtered loop" if _iter_is_owner_filtered(node.iter) else None
        self._guarded(reason, [node.body, node.orelse])

    def visit_For(self, node: ast.For) -> None:
        self._visit_for(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_for(node)

    def _visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        owner = any(_iter_is_owner_filtered(gen.iter) for gen in node.generators)
        if owner:
            self._guards.append("an owner-filtered comprehension")
        self.generic_visit(node)
        if owner:
            self._guards.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


class RngLockstepRule(ProjectRule):
    """RPL014 — serve-layer rng draws are full-population only.

    The sharded topology keeps every worker's master generator in
    lockstep by having *all* shards perform the *same* draws — the
    full-population coin draws and merge spawns — even for players they
    do not own.  A draw nested under ``if shard == ...`` (or inside a
    loop over the owned-player subset) desynchronises the streams: the
    next barrier then merges states that disagree, snapshots stop being
    restorable to other worker counts, and the bitwise-equivalence pin
    silently dies.  Draws must happen unconditionally; owner-filtered
    code may only *index into* pre-drawn values.
    """

    id = "RPL014"
    severity = "error"
    summary = "no rng draws inside shard-conditional branches or owner-filtered loops"
    hint = "draw for the full population first; index per-player results inside the loop"

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for ctx in project.contexts:
            if not ctx.in_library("repro/serve"):
                continue
            visitor = _LockstepVisitor(self, ctx)
            visitor.visit(ctx.tree)
            yield from visitor.found


# ---------------------------------------------------------------------------
# RPL015 — barrier-after-posts ordering (flow-sensitive)
# ---------------------------------------------------------------------------

_MARKER_CALLS = frozenset({"post_barrier", "post_exhausted"})
_MARKER_KINDS = frozenset({"KIND_BARRIER", "KIND_EXHAUSTED"})
_POST_CALLS = frozenset({"post_vectors"})
_POST_KINDS = frozenset({"KIND_PACKED", "KIND_DENSE"})


def _append_kind(node: ast.Call) -> str | None:
    """Classify a call as ``"post"``, ``"marker"``, or ``None``."""
    name: str | None = None
    if isinstance(node.func, ast.Name):
        name = node.func.id
    elif isinstance(node.func, ast.Attribute):
        name = node.func.attr
    if name in _MARKER_CALLS:
        return "marker"
    if name in _POST_CALLS:
        return "post"
    if name == "append" and node.args:
        first = node.args[0]
        if isinstance(first, ast.Name):
            if first.id in _MARKER_KINDS:
                return "marker"
            if first.id in _POST_KINDS:
                return "post"
        elif isinstance(first, ast.Attribute):
            if first.attr in _MARKER_KINDS:
                return "marker"
            if first.attr in _POST_KINDS:
                return "post"
    return None


class _OrderScan:
    """Linear path-sensitive scan: has a marker append been seen yet?

    Statements are processed in program order; branches fork the state
    and merge with OR (a marker on *either* arm poisons the join —
    some path saw it).  Loop bodies are scanned once: the contract is
    per phase, and one phase's posts and marker are emitted within one
    iteration's program order.
    """

    def __init__(self, rule: "BarrierOrderRule", ctx: LintContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.found: list[Diagnostic] = []

    def scan(self, stmts: Sequence[ast.stmt], marker_seen: bool) -> bool:
        for stmt in stmts:
            marker_seen = self._scan_stmt(stmt, marker_seen)
        return marker_seen

    def _scan_stmt(self, stmt: ast.stmt, marker_seen: bool) -> bool:
        if isinstance(stmt, ast.If):
            marker_seen = self._scan_expr(stmt.test, marker_seen)
            body = self.scan(stmt.body, marker_seen)
            orelse = self.scan(stmt.orelse, marker_seen)
            return body or orelse
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            marker_seen = self._scan_expr(stmt.iter, marker_seen)
            body = self.scan(stmt.body, marker_seen)
            orelse = self.scan(stmt.orelse, body)
            return marker_seen or orelse
        if isinstance(stmt, ast.While):
            marker_seen = self._scan_expr(stmt.test, marker_seen)
            body = self.scan(stmt.body, marker_seen)
            orelse = self.scan(stmt.orelse, body)
            return marker_seen or orelse
        if isinstance(stmt, ast.Try):
            body = self.scan(stmt.body, marker_seen)
            handlers = [self.scan(h.body, body) for h in stmt.handlers]
            orelse = self.scan(stmt.orelse, body)
            state = orelse or any(handlers) or body
            return self.scan(stmt.finalbody, state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                marker_seen = self._scan_expr(item.context_expr, marker_seen)
            return self.scan(stmt.body, marker_seen)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return marker_seen  # nested defs get their own scan
        return self._scan_expr(stmt, marker_seen)

    def _scan_expr(self, node: ast.AST, marker_seen: bool) -> bool:
        """Walk one statement/expression in (child) order, firing on calls."""
        for child in ast.iter_child_nodes(node):
            marker_seen = self._scan_expr(child, marker_seen)
        if isinstance(node, ast.Call):
            kind = _append_kind(node)
            if kind == "marker":
                return True
            if kind == "post" and marker_seen:
                self.found.append(
                    Diagnostic(
                        rule=self.rule.id,
                        severity=self.rule.severity,
                        path=self.ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            "post append after a barrier/exhaustion marker append: "
                            "marker visibility no longer implies post visibility"
                        ),
                        hint=self.rule.hint,
                    )
                )
        return marker_seen


class BarrierOrderRule(ProjectRule):
    """RPL015 — marker appends must trail the posts they cover.

    The sharded phase barrier works because "shard ``k``'s marker is
    visible" implies "shard ``k``'s stage posts are visible" — true
    only while every function appends its posts *before* its
    barrier/exhaustion marker.  This is a flow-sensitive check: within
    a function, no path may append a post after a marker append
    (equivalently, every marker must be dominated by the post appends
    of its phase).
    """

    id = "RPL015"
    severity = "error"
    summary = "post-log marker appends must follow, never precede, post appends"
    hint = "append stage posts first, the barrier/exhaustion marker last"

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for ctx in project.contexts:
            if not ctx.in_library():
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan = _OrderScan(self, ctx)
                    scan.scan(node.body, False)
                    yield from scan.found


# ---------------------------------------------------------------------------
# RPL016 — multiprocessing primitive containment
# ---------------------------------------------------------------------------

#: Files allowed to speak raw multiprocessing: the parallel substrate,
#: the sharded topology, and the shared-memory post log they share.
_RPL016_ALLOWED = (
    "repro/parallel",
    "repro/serve/sharded.py",
    "repro/billboard/postlog.py",
)


class _MultiprocessingVisitor(ast.NodeVisitor):
    def __init__(self, rule: "MultiprocessingContainmentRule", ctx: LintContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.found: list[Diagnostic] = []

    def _report(self, node: ast.AST, what: str) -> None:
        self.found.append(
            Diagnostic(
                rule=self.rule.id,
                severity=self.rule.severity,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=f"bare multiprocessing primitive outside the parallel substrate: {what}",
                hint=self.rule.hint,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "multiprocessing":
                self._report(node, f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] == "multiprocessing":
            names = ", ".join(alias.name for alias in node.names)
            self._report(node, f"from {node.module} import {names}")
        self.generic_visit(node)


class MultiprocessingContainmentRule(ProjectRule):
    """RPL016 — process topology lives in the parallel substrate only.

    Every cross-process channel in the repo — pipes, locks, shared
    segments — belongs to one of three audited modules
    (``repro/parallel/``, ``repro/serve/sharded.py``,
    ``repro/billboard/postlog.py``), which own the lifecycle rules the
    concurrency checker and sanitizer reason about (who unlinks, who
    may write, what the resource tracker sees).  A bare ``mp.Lock()``
    or ``shared_memory.SharedMemory(...)`` anywhere else creates an
    unaudited channel none of that tooling knows exists, so the import
    itself is banned outside the substrate.
    """

    id = "RPL016"
    severity = "error"
    summary = "no multiprocessing imports/primitives outside the parallel substrate"
    hint = "route process topology through repro.parallel / repro.serve.sharded"

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for ctx in project.contexts:
            if not ctx.in_library(exclude=_RPL016_ALLOWED):
                continue
            visitor = _MultiprocessingVisitor(self, ctx)
            visitor.visit(ctx.tree)
            yield from visitor.found
