"""Static lock-discipline pass over the concurrency tier.

Scope: ``serve/``, ``service/``, ``engine/`` and ``stream/`` -- the
packages where threads meet shared state (the dispatcher and writer
lanes, the shard worker pool, the engine the server serializes on, the
subscription manager the writer lane pumps).  The pass extracts
every lock the tier creates, builds the **static lock-order graph**, and
enforces four rules:

``untracked-lock``
    Locks in the tier must be created through
    :func:`repro.analysis.locks.tracked_lock` /
    :func:`~repro.analysis.locks.tracked_condition` so they carry a
    stable name and the runtime tracker can see them.  A raw
    ``threading.Lock()``/``RLock()``/``Condition()`` is flagged unless
    annotated ``# repro: untracked-lock(<reason>)``.

``lock-cycle``
    The static order graph must be acyclic.  Edges come from lexical
    nesting (``with a: ... with b:``), from calls the pass can resolve
    *reliably* (``self.method(...)`` to the same class, bare calls to
    module-level functions of the same file), and from declared dynamic
    hops: a call that dispatches through a pluggable attribute or
    across a module boundary carries a ``# repro: calls(Class.method)``
    directive naming its target.  The runtime tracker
    (:class:`repro.analysis.locks.LockOrderTracker`) closes the loop:
    under ``REPRO_SANITIZE=1`` every *observed* edge must appear in this
    static graph, so a missing ``calls`` annotation fails the sanitized
    suite instead of silently shrinking the graph.

``unguarded-call``
    A ``tracked_lock(...)`` construction annotated
    ``# repro: guards(<attr>)`` declares that every call through
    ``self.<attr>`` in the same class must be dominated by a ``with`` on
    that lock (the server's engine-lock discipline: nothing touches the
    engine outside the lock).  Calls in ``__init__`` are exempt (the
    lanes have not started); deliberate exceptions elsewhere carry
    ``# repro: unguarded-call(<reason>)``.

``unknown-directive-target``
    A ``calls(...)`` directive naming a function the pass cannot find is
    an error -- a stale annotation would silently drop graph edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, read_sources, sort_findings
from repro.analysis.pragmas import PragmaMap, scan_pragmas

RULE_UNTRACKED = "untracked-lock"
RULE_CYCLE = "lock-cycle"
RULE_UNGUARDED = "unguarded-call"
RULE_BAD_DIRECTIVE = "unknown-directive-target"

#: Sub-packages of ``src/repro`` the pass runs over by default.  ``core``
#: carries no locks of its own; it is in scope so the hot-path kernels
#: (``core/columns.py``) stay covered by the guard and directive checks
#: as they grow.
DEFAULT_SCOPE: Tuple[str, ...] = (
    "serve",
    "service",
    "engine",
    "stream",
    "core",
)

TRACKED_FACTORIES = frozenset({"tracked_lock", "tracked_condition"})
RAW_LOCK_TYPES = frozenset({"Lock", "RLock", "Condition"})

FuncKey = Tuple[str, Optional[str], str]  # (module, class or None, name)


@dataclass(frozen=True)
class LockDef:
    """One lock creation site."""

    name: str  # stable lock name (factory argument, or synthesized)
    module: str
    cls: Optional[str]
    attr: str
    line: int
    tracked: bool


@dataclass
class _FuncInfo:
    key: FuncKey
    path: str
    # (lock name, locks held at that point, line)
    acquisitions: List[Tuple[str, Tuple[str, ...], int]] = field(
        default_factory=list
    )
    # (resolution spec, locks held, line); spec is ("self"|"exact", name)
    calls: List[Tuple[Tuple[str, str], Tuple[str, ...], int]] = field(
        default_factory=list
    )
    # calls through guarded attributes: (attr, locks held, line, pragma ok)
    guarded_uses: List[Tuple[str, Tuple[str, ...], int, bool]] = field(
        default_factory=list
    )


@dataclass
class Analysis:
    """The extracted lock model of one scope."""

    locks: List[LockDef]
    edges: Set[Tuple[str, str]]
    edge_sites: Dict[Tuple[str, str], Tuple[str, int]]
    findings: List[Finding]

    def lock_names(self) -> Set[str]:
        return {lock.name for lock in self.locks}


def _module_label(path: str) -> str:
    parts = Path(path).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


def _terminal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _Extractor(ast.NodeVisitor):
    """First pass over one file: lock definitions and guard directives."""

    def __init__(self, path: str, pragmas: PragmaMap) -> None:
        self.path = path
        self.module = _module_label(path)
        self.pragmas = pragmas
        self.locks: List[LockDef] = []
        # (class, guarded attr) -> lock name
        self.guards: Dict[Tuple[str, str], str] = {}
        self.findings: List[Finding] = []
        self._class_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        self._maybe_lock_assign(node.targets, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._maybe_lock_assign([node.target], node.value, node.lineno)
        self.generic_visit(node)

    def _maybe_lock_assign(
        self, targets: Sequence[ast.expr], value: ast.expr, line: int
    ) -> None:
        if not isinstance(value, ast.Call):
            return
        callee = _terminal(value.func)
        if callee is None:
            return
        attr = self._target_attr(targets)
        cls = self._class_stack[-1] if self._class_stack else None
        if callee in TRACKED_FACTORIES:
            if attr is None:
                return
            name = self._factory_name(value) or f"{self.module}.{attr}"
            self.locks.append(
                LockDef(
                    name=name,
                    module=self.module,
                    cls=cls,
                    attr=attr,
                    line=line,
                    tracked=True,
                )
            )
            for directive in self.pragmas.find_all("guards", line):
                if cls is not None and directive.argument:
                    self.guards[(cls, directive.argument)] = name
            return
        if callee in RAW_LOCK_TYPES and self._is_threading_call(value.func):
            if attr is None:
                return
            pragma = self.pragmas.find(RULE_UNTRACKED, line)
            if pragma is None or not pragma.argument:
                self.findings.append(
                    Finding(
                        rule=RULE_UNTRACKED,
                        path=self.path,
                        line=line,
                        message=(
                            f"raw threading.{callee}() in the concurrency "
                            "tier -- create it via repro.analysis.locks."
                            "tracked_lock/tracked_condition so reprolint "
                            "and the runtime tracker can see it, or "
                            "annotate '# repro: untracked-lock(<reason>)'"
                        ),
                    )
                )
            self.locks.append(
                LockDef(
                    name=f"{self.module}.{cls or ''}.{attr}".replace("..", "."),
                    module=self.module,
                    cls=cls,
                    attr=attr,
                    line=line,
                    tracked=False,
                )
            )

    @staticmethod
    def _target_attr(targets: Sequence[ast.expr]) -> Optional[str]:
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id == "self":
                    return target.attr
            if isinstance(target, ast.Name):
                return target.id
        return None

    @staticmethod
    def _factory_name(call: ast.Call) -> Optional[str]:
        if call.args and isinstance(call.args[0], ast.Constant):
            value = call.args[0].value
            if isinstance(value, str):
                return value
        return None

    @staticmethod
    def _is_threading_call(func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute):
            return _terminal(func.value) == "threading"
        return isinstance(func, ast.Name)


class _BodyWalker(ast.NodeVisitor):
    """Second pass over one function body, carrying the with-stack."""

    def __init__(
        self,
        info: _FuncInfo,
        path: str,
        cls: Optional[str],
        lock_attrs: Dict[Tuple[Optional[str], str], str],
        guards: Dict[Tuple[str, str], str],
        pragmas: PragmaMap,
    ) -> None:
        self.info = info
        self.path = path
        self.cls = cls
        self.lock_attrs = lock_attrs
        self.guards = guards
        self.pragmas = pragmas
        self.stack: List[str] = []

    # -- structure -----------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self._handle_with(node.items, node.body)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node.items, node.body)

    def _handle_with(
        self, items: Sequence[ast.withitem], body: Sequence[ast.stmt]
    ) -> None:
        pushed = 0
        for item in items:
            lock = self._resolve_lock(item.context_expr)
            if lock is not None:
                self.info.acquisitions.append(
                    (lock, tuple(self.stack), item.context_expr.lineno)
                )
                self.stack.append(lock)
                pushed += 1
            else:
                self.visit(item.context_expr)
        for stmt in body:
            self.visit(stmt)
        for _ in range(pushed):
            self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs execute later, not here: analyzed as separate
        # functions by the driver.
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        held = tuple(self.stack)
        line = node.lineno
        end_line = getattr(node, "end_lineno", None) or line
        for directive in self.pragmas.find_all("calls", line, end_line):
            if directive.argument:
                self.info.calls.append(
                    (("exact", directive.argument), held, line)
                )
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.info.calls.append((("self", func.attr), held, line))
            elif func.attr == "acquire":
                lock = self._resolve_lock(func.value)
                if lock is not None:
                    self.info.acquisitions.append((lock, held, line))
            self._check_guard(func, held, line)
        elif isinstance(func, ast.Name):
            self.info.calls.append((("bare", func.id), held, line))
        self.generic_visit(node)

    def _check_guard(
        self, func: ast.Attribute, held: Tuple[str, ...], line: int
    ) -> None:
        # A call through a guarded attribute: self.<attr>.<method>(...).
        value = func.value
        if not (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self.cls is not None
        ):
            return
        guard_lock = self.guards.get((self.cls, value.attr))
        if guard_lock is None:
            return
        if self.info.key[2] == "__init__":
            return
        pragma = self.pragmas.find(RULE_UNGUARDED, line)
        ok = guard_lock in held or (pragma is not None and bool(pragma.argument))
        self.info.guarded_uses.append((value.attr, held, line, ok))

    # -- lock resolution ----------------------------------------------
    def _resolve_lock(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self":
                name = self.lock_attrs.get((self.cls, expr.attr))
                if name is None:
                    name = self.lock_attrs.get((None, expr.attr))
                return name
        if isinstance(expr, ast.Name):
            return self.lock_attrs.get((None, expr.id))
        return None


def analyze_sources(sources: List[Tuple[str, str]]) -> Analysis:
    """Run the full lock pass over in-memory ``(path, source)`` pairs."""
    findings: List[Finding] = []
    locks: List[LockDef] = []
    guards: Dict[Tuple[str, str], str] = {}
    parsed: List[Tuple[str, ast.Module, PragmaMap]] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="syntax-error",
                    path=path,
                    line=exc.lineno or 1,
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        pragmas = scan_pragmas(source)
        extractor = _Extractor(path, pragmas)
        extractor.visit(tree)
        findings.extend(extractor.findings)
        locks.extend(extractor.locks)
        guards.update(extractor.guards)
        parsed.append((path, tree, pragmas))

    # Lock-attribute resolution map: (class, attr) plus a (None, attr)
    # fallback so `with self._lock` resolves across helper classes too.
    lock_attrs: Dict[Tuple[Optional[str], str], str] = {}
    for lock in locks:
        lock_attrs[(lock.cls, lock.attr)] = lock.name
        lock_attrs.setdefault((None, lock.attr), lock.name)

    # Function table + per-function walks.
    table: Dict[FuncKey, _FuncInfo] = {}
    by_class_name: Dict[Tuple[str, str], List[FuncKey]] = {}
    by_bare_name: Dict[Tuple[str, str], List[FuncKey]] = {}
    for path, tree, pragmas in parsed:
        module = _module_label(path)
        for cls, func in _iter_functions(tree):
            key: FuncKey = (module, cls, func.name)
            info = _FuncInfo(key=key, path=path)
            walker = _BodyWalker(info, path, cls, lock_attrs, guards, pragmas)
            for stmt in func.body:
                walker.visit(stmt)
            table[key] = info
            if cls is not None:
                by_class_name.setdefault((cls, func.name), []).append(key)
            else:
                by_bare_name.setdefault((module, func.name), []).append(key)

    # Resolve calls.
    resolved: Dict[FuncKey, List[FuncKey]] = {key: [] for key in table}
    for key, info in table.items():
        module, cls, _ = key
        for (kind, target), _held, line in info.calls:
            if kind == "self" and cls is not None:
                resolved[key].extend(by_class_name.get((cls, target), []))
            elif kind == "bare":
                resolved[key].extend(by_bare_name.get((module, target), []))
            elif kind == "exact":
                matches = _resolve_exact(target, by_class_name, by_bare_name)
                if not matches:
                    findings.append(
                        Finding(
                            rule=RULE_BAD_DIRECTIVE,
                            path=info.path,
                            line=line,
                            message=(
                                f"calls({target}) names no function in the "
                                "analyzed scope -- fix or remove the "
                                "directive"
                            ),
                        )
                    )
                resolved[key].extend(matches)

    # Fixpoint: the set of locks each function may (transitively) acquire.
    acquires: Dict[FuncKey, Set[str]] = {
        key: {name for name, _, _ in info.acquisitions}
        for key, info in table.items()
    }
    changed = True
    while changed:
        changed = False
        for key in table:
            merged = set(acquires[key])
            for callee in resolved[key]:
                merged |= acquires[callee]
            if merged != acquires[key]:
                acquires[key] = merged
                changed = True

    # Edges of the static lock-order graph.
    edges: Set[Tuple[str, str]] = set()
    edge_sites: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for key, info in table.items():
        for name, held, line in info.acquisitions:
            for outer in held:
                _add_edge(edges, edge_sites, outer, name, info.path, line)
    for key, info in table.items():
        module, cls, _ = key
        for spec, held, line in info.calls:
            if not held:
                continue
            kind, target = spec
            if kind == "self" and cls is not None:
                callees = by_class_name.get((cls, target), [])
            elif kind == "bare":
                callees = by_bare_name.get((module, target), [])
            elif kind == "exact":
                callees = _resolve_exact(target, by_class_name, by_bare_name)
            else:
                callees = []
            for callee in callees:
                for inner in acquires[callee]:
                    for outer in held:
                        _add_edge(
                            edges, edge_sites, outer, inner, info.path, line
                        )

    # Cycle detection.
    for cycle in _find_cycles(edges):
        path_, line_ = edge_sites.get((cycle[0], cycle[1]), ("<graph>", 0))
        findings.append(
            Finding(
                rule=RULE_CYCLE,
                path=path_,
                line=line_,
                message=(
                    "lock-order cycle: " + " -> ".join(cycle + (cycle[0],))
                ),
            )
        )

    # Guard violations.
    for key, info in table.items():
        for attr, _held, line, ok in info.guarded_uses:
            if not ok:
                findings.append(
                    Finding(
                        rule=RULE_UNGUARDED,
                        path=info.path,
                        line=line,
                        message=(
                            f"call through self.{attr} outside the lock "
                            f"declared to guard it -- wrap in the guarding "
                            "'with' or annotate "
                            "'# repro: unguarded-call(<reason>)'"
                        ),
                    )
                )

    return Analysis(
        locks=locks,
        edges=edges,
        edge_sites=edge_sites,
        findings=sort_findings(findings),
    )


def _iter_functions(
    tree: ast.Module,
) -> List[Tuple[Optional[str], ast.FunctionDef]]:
    """Every function in the module (methods carry their class name),
    including nested defs (keyed like module-level helpers)."""
    result: List[Tuple[Optional[str], ast.FunctionDef]] = []

    def walk(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(child, ast.FunctionDef):
                    result.append((cls, child))
                else:
                    # Async defs share the FunctionDef body shape.
                    result.append((cls, child))  # type: ignore[arg-type]
                walk(child, None if cls is None else cls)
            else:
                walk(child, cls)

    walk(tree, None)
    return result


def _resolve_exact(
    target: str,
    by_class_name: Dict[Tuple[str, str], List[FuncKey]],
    by_bare_name: Dict[Tuple[str, str], List[FuncKey]],
) -> List[FuncKey]:
    if "." in target:
        cls, _, method = target.partition(".")
        return list(by_class_name.get((cls, method), []))
    matches: List[FuncKey] = []
    for (_module, name), keys in by_bare_name.items():
        if name == target:
            matches.extend(keys)
    return matches


def _add_edge(
    edges: Set[Tuple[str, str]],
    sites: Dict[Tuple[str, str], Tuple[str, int]],
    outer: str,
    inner: str,
    path: str,
    line: int,
) -> None:
    edge = (outer, inner)
    if edge not in edges:
        edges.add(edge)
        sites[edge] = (path, line)


def _find_cycles(edges: Set[Tuple[str, str]]) -> List[Tuple[str, ...]]:
    """Every elementary cycle reachable by DFS (deduplicated by node set)."""
    graph: Dict[str, List[str]] = {}
    for outer, inner in edges:
        graph.setdefault(outer, []).append(inner)
    cycles: List[Tuple[str, ...]] = []
    seen_sets: Set[FrozenSet[str]] = set()

    def dfs(node: str, path: List[str], on_path: Set[str]) -> None:
        for nxt in graph.get(node, ()):  # deterministic enough: sorted below
            if nxt in on_path:
                start = path.index(nxt)
                cycle = tuple(path[start:])
                key = frozenset(cycle)
                if key not in seen_sets:
                    seen_sets.add(key)
                    cycles.append(cycle)
                continue
            path.append(nxt)
            on_path.add(nxt)
            dfs(nxt, path, on_path)
            on_path.discard(nxt)
            path.pop()

    for start in sorted(graph):
        dfs(start, [start], {start})
    return cycles


def default_scope(src_root: Path) -> List[Path]:
    """The lock-pass roots under a ``src/repro``-style tree."""
    scoped = [src_root / sub for sub in DEFAULT_SCOPE]
    return [path for path in scoped if path.exists()] or [src_root]


def lint_paths(roots: List[Path]) -> List[Finding]:
    """Run the lock pass over every Python file under the given roots."""
    return analyze_sources(
        [(str(path), source) for path, source in read_sources(roots)]
    ).findings


def static_lock_graph(roots: List[Path]) -> Set[Tuple[str, str]]:
    """The static lock-order graph (for the runtime tracker cross-check)."""
    return analyze_sources(
        [(str(path), source) for path, source in read_sources(roots)]
    ).edges
