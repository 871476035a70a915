"""The detlint rule engine: one AST pass per file, six rule families.

The engine is deliberately heuristic — it has no type inference — but
the heuristics are tuned to this codebase: set-valued names are tracked
through literal/constructor/annotation bindings per lexical scope, and
only *ordering-sensitive* consumption is flagged (membership tests,
``len``, ``sorted``, ``min``/``max`` and re-collection into another set
are all order-free and stay silent).  False positives are expected to
be rare and are handled by the justified-suppression syntax, never by
weakening a rule.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import re
import typing as _t

__all__ = ["ALL_RULES", "Finding", "Rule", "lint_file", "lint_source"]


# ----------------------------------------------------------- rule table
@dataclasses.dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, one-line summary, fix-it template."""

    code: str
    summary: str
    fixit: str


ALL_RULES: _t.Dict[str, Rule] = {r.code: r for r in (
    Rule("DET001",
         "ordering-sensitive consumption of a set/frozenset value",
         "iterate sorted(...) / an insertion-ordered dict instead, or "
         "suppress with a justification if order provably cannot leak "
         "into results"),
    Rule("DET002",
         "identity-dependent logic (id()/object hash()) in an "
         "order-sensitive layer",
         "key on a deterministic field (rank, name, sequence number) "
         "instead of the object's address"),
    Rule("DET003",
         "unseeded randomness or wall-clock read in simulation code",
         "thread a seeded random.Random(seed) / "
         "numpy.random.default_rng(seed) through the scenario, and "
         "keep wall-clock reads in repro.perf / repro.fabric / "
         "benchmarks"),
    Rule("ENV001",
         "raw os.environ read outside repro._envflags",
         "route the variable through a repro._envflags helper "
         "(env_flag/env_int/env_choice/env_str) so garbage values "
         "warn instead of silently diverging"),
    Rule("ORC001",
         "module-level set_*() writes process-wide global state",
         "pass the setting as an argument or scenario field instead; "
         "a fast path that pays stays on unconditionally, one that "
         "does not is deleted (ROADMAP: one execution path)"),
    Rule("ORC002",
         "`._trace` attribute access outside repro.simulate",
         "observe a run through the Simulator(trace=) hook or a HookBus "
         "subscriber; model code must not branch on whether it is "
         "traced"),
)}


#: rule families that only apply under these path fragments
_DET002_LAYERS = ("simulate", "replication", "mpi", "intra")
#: path fragments where DET003 does not apply (timing code measures
#: real time by definition; benchmarks are not simulation results;
#: the fabric's queue leases / retry backoff / HTTP polling are
#: operational wall-clock concerns, not simulated time)
_DET003_EXEMPT = ("perf", "benchmarks", "fabric")
#: the one module allowed to touch os.environ
_ENV001_EXEMPT = ("_envflags.py",)
#: module-level global setters ORC001 accepts: deployment settings,
#: not result-affecting toggles
_ORC001_ALLOWED = ("set_cache_backend",)
#: the one layer that may touch the engine's trace hook
_ORC002_OWNER = ("simulate",)


def _in_layers(path: str, layers: _t.Sequence[str]) -> bool:
    """Does the posix ``path`` lie under one of the ``layers``?"""
    return any(f"/{layer}/" in path or path.startswith(f"{layer}/")
               for layer in layers)


# -------------------------------------------------------------- finding
@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding, self-describing and baseline-fingerprintable."""

    path: str
    rule: str
    line: int
    col: int
    message: str
    source_line: str

    @property
    def fixit(self) -> str:
        return ALL_RULES[self.rule].fixit

    def fingerprint(self) -> str:
        """Stable identity for the baseline: file + rule + normalized
        source text (line numbers shift; code rarely does)."""
        norm = re.sub(r"\s+", " ", self.source_line.strip())
        digest = hashlib.sha256(
            f"{self.path}::{self.rule}::{norm}".encode()).hexdigest()
        return digest[:16]

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"{self.message}\n    hint: {self.fixit}")


# -------------------------------------------------- suppression parsing
_IGNORE_RE = re.compile(
    r"#\s*detlint:\s*ignore\[([A-Z0-9,\s]+)\](.*)$")


def _parse_suppressions(source: str) -> _t.Dict[int, _t.Tuple[
        _t.FrozenSet[str], bool]]:
    """``line -> (rules, justified)`` for every ``# detlint: ignore``.

    A suppression on a comment-only line covers the next non-comment
    line (wrapped justifications may span several comment lines), so
    long statements can carry the comment above them.
    """
    out: _t.Dict[int, _t.Tuple[_t.FrozenSet[str], bool]] = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        m = _IGNORE_RE.search(text)
        if m is None:
            continue
        rules = frozenset(r.strip() for r in m.group(1).split(",")
                          if r.strip())
        justification = m.group(2).strip().lstrip("-—:– ").strip()
        entry = (rules, bool(justification))
        out[lineno] = entry
        if text.lstrip().startswith("#"):  # comment-only line: covers
            nxt = lineno + 1               # the statement below
            while (nxt <= len(lines)
                   and lines[nxt - 1].lstrip().startswith("#")):
                nxt += 1
            out.setdefault(nxt, entry)
    return out


# ------------------------------------------------------- the AST visitor
_SET_ANNOTATIONS = frozenset({
    "Set", "FrozenSet", "MutableSet", "AbstractSet", "set", "frozenset"})
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
#: set methods returning another set (order-free to *build*; tracked so
#: consumption of the result is still checked)
_SET_PRODUCING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "copy"})
#: call targets whose consumption of a set argument is order-sensitive
_ORDER_SENSITIVE_CALLS = frozenset({
    "list", "tuple", "iter", "enumerate", "reversed", "sum", "next"})
#: call targets that consume a set argument order-insensitively
_ORDER_FREE_CALLS = frozenset({
    "sorted", "len", "min", "max", "any", "all", "bool", "set",
    "frozenset"})

_NONDET_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "binomialvariate",
    "getrandbits", "seed", "setstate"})
_WALLCLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns"})
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


def _annotation_is_set(node: ast.AST) -> bool:
    """True for ``Set[...]`` / ``_t.FrozenSet[...]`` / ``set`` etc."""
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: cheap textual check is enough here
        head = node.value.split("[", 1)[0].split(".")[-1].strip()
        return head in _SET_ANNOTATIONS
    return False


class _Scope:
    """One lexical scope's set-valued name bindings."""

    def __init__(self, node: _t.Optional[ast.AST]) -> None:
        self.node = node
        self.set_names: _t.Set[str] = set()


class _FileChecker(ast.NodeVisitor):
    """Single-pass checker: collects set-valued bindings on the way
    down (assignments precede most uses in well-ordered code; class
    attribute bindings are pre-collected) and flags rule violations."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 *, det002: bool, det003: bool, env001: bool,
                 orc002: bool) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.findings: _t.List[Finding] = []
        self.scopes: _t.List[_Scope] = [_Scope(tree)]
        #: attribute names bound to sets anywhere in the file
        #: (``self.X = set()`` — class-granular tracking is not worth
        #: the complexity at this codebase's size)
        self.set_attrs: _t.Set[str] = set()
        #: alias -> canonical module path ("np" -> "numpy")
        self.modules: _t.Dict[str, str] = {}
        #: names imported from modules ("perf_counter" -> "time")
        self.from_imports: _t.Dict[str, str] = {}
        self.check_det002 = det002
        self.check_det003 = det003
        self.check_env001 = env001
        self.check_orc002 = orc002
        self._comprehensions_checked = set()
        self._precollect(tree)

    # -- pre-pass: attribute bindings + imports can follow their uses
    def _precollect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if (isinstance(tgt, ast.Attribute)
                            and self._is_set_expr(node.value,
                                                  binding_pass=True)):
                        self.set_attrs.add(tgt.attr)
            elif isinstance(node, ast.AnnAssign):
                if (isinstance(node.target, ast.Attribute)
                        and _annotation_is_set(node.annotation)):
                    self.set_attrs.add(node.target.attr)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or
                                 alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module and not node.level:
                    for alias in node.names:
                        self.from_imports[alias.asname or
                                          alias.name] = node.module

    # ---------------------------------------------------------- helpers
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = (self.lines[line - 1] if 0 < line <= len(self.lines)
                else "")
        self.findings.append(Finding(
            path=self.path, rule=rule, line=line, col=col,
            message=message, source_line=text))

    def _name_is_set(self, name: str) -> bool:
        return any(name in scope.set_names
                   for scope in reversed(self.scopes))

    def _is_set_expr(self, node: _t.Optional[ast.AST], *,
                     binding_pass: bool = False) -> bool:
        """Syntactic "this expression is a set" judgement."""
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name)
                    and func.id in _SET_CONSTRUCTORS):
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SET_PRODUCING_METHODS
                    and self._is_set_expr(func.value,
                                          binding_pass=binding_pass)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left,
                                      binding_pass=binding_pass)
                    or self._is_set_expr(node.right,
                                         binding_pass=binding_pass))
        if binding_pass:
            # the pre-pass runs before scopes exist; only structural
            # evidence counts there
            return False
        if isinstance(node, ast.Name):
            return self._name_is_set(node.id)
        if isinstance(node, ast.Attribute):
            return (isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in self.set_attrs)
        if isinstance(node, ast.IfExp):
            return (self._is_set_expr(node.body)
                    or self._is_set_expr(node.orelse))
        return False

    def _describe(self, node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expr>"

    def _resolves_to(self, node: ast.AST, module: str) -> bool:
        """Does ``node`` name the module ``module`` (alias-aware)?"""
        if isinstance(node, ast.Name):
            return self.modules.get(node.id) == module
        if isinstance(node, ast.Attribute):
            # e.g. ``np.random`` for module "numpy.random"
            parent, _, last = module.rpartition(".")
            return (node.attr == last and parent != ""
                    and self._resolves_to(node.value, parent))
        return False

    # ------------------------------------------------- scope management
    def _visit_in_scope(self, node: ast.AST) -> None:
        self.scopes.append(_Scope(node))
        try:
            self.generic_visit(node)
        finally:
            self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_orc001(node)
        self._bind_set_args(node)
        self._visit_in_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._bind_set_args(node)
        self._visit_in_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_in_scope(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_in_scope(node)

    def _bind_set_args(self, node: _t.Union[ast.FunctionDef,
                                            ast.AsyncFunctionDef]) -> None:
        """Parameters annotated as sets bind into the function scope."""
        scope = _Scope(node)
        args = node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            if arg.annotation is not None and _annotation_is_set(
                    arg.annotation):
                scope.set_names.add(arg.arg)
        # pre-seed: _visit_in_scope pushes its own scope, so merge the
        # annotated parameters into it via a deferred list
        self._pending_arg_scope = scope.set_names

    _pending_arg_scope: _t.Optional[_t.Set[str]] = None

    # ------------------------------------------------ binding collection
    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self.scopes[-1].set_names.add(tgt.id)
        else:
            # rebinding a tracked name to a non-set value clears it
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self.scopes[-1].set_names.discard(tgt.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if (_annotation_is_set(node.annotation)
                    or self._is_set_expr(node.value)):
                self.scopes[-1].set_names.add(node.target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``s |= other`` keeps s a set; nothing to do either way
        self.generic_visit(node)

    # --------------------------------------------------- DET001 checks
    def _flag_set_iteration(self, iter_node: ast.AST,
                            context: str) -> None:
        if self._is_set_expr(iter_node):
            self._flag(
                "DET001", iter_node,
                f"{context} over set `{self._describe(iter_node)}`: "
                f"iteration order depends on the hash seed")

    def visit_For(self, node: ast.For) -> None:
        self._flag_set_iteration(node.iter, "for-loop iteration")
        self.generic_visit(node)

    def _check_comprehension(self, node: _t.Union[
            ast.ListComp, ast.SetComp, ast.DictComp,
            ast.GeneratorExp], parent: _t.Optional[ast.AST]) -> None:
        for gen in node.generators:
            if not self._is_set_expr(gen.iter):
                continue
            # order-free sinks: the comprehension feeds sorted()/another
            # set / min / max / ... directly, or builds a set/dict whose
            # own order does not matter for sets (dict display order
            # DOES matter -> only SetComp is order-free by construction)
            if isinstance(node, ast.SetComp):
                continue
            if (isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_FREE_CALLS
                    and node in parent.args):
                continue
            self._flag(
                "DET001", gen.iter,
                f"comprehension iterates set "
                f"`{self._describe(gen.iter)}`: iteration order "
                f"depends on the hash seed")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # DET001: list(s) / tuple(s) / iter(s) / sum(s) / enumerate(s)
        if isinstance(func, ast.Name):
            if (func.id in _ORDER_SENSITIVE_CALLS and node.args
                    and self._is_set_expr(node.args[0])):
                self._flag(
                    "DET001", node,
                    f"{func.id}() materializes set "
                    f"`{self._describe(node.args[0])}` in hash order")
            # comprehension arguments are checked with parent context
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp,
                                    ast.DictComp)):
                    self._check_comprehension(arg, node)
                    self._comprehensions_checked.add(id(arg))
            if self.check_det002 and func.id == "id" and node.args:
                self._flag(
                    "DET002", node,
                    f"id({self._describe(node.args[0])}) is a "
                    f"process-lifetime address, not stable data")
            if self.check_det002 and func.id == "hash" and node.args:
                arg0 = node.args[0]
                if not isinstance(arg0, ast.Constant):
                    self._flag(
                        "DET002", node,
                        f"hash({self._describe(arg0)}) may be the "
                        f"identity hash (and str/bytes hashes are "
                        f"seed-dependent)")
        # DET001: s.pop() on a set; "sep".join(s)
        if isinstance(func, ast.Attribute):
            if (func.attr == "pop" and not node.args
                    and self._is_set_expr(func.value)):
                self._flag(
                    "DET001", node,
                    f"set.pop() on `{self._describe(func.value)}` "
                    f"removes a hash-order-dependent element")
            if (func.attr == "join" and node.args
                    and self._is_set_expr(node.args[0])):
                self._flag(
                    "DET001", node,
                    f"join() over set "
                    f"`{self._describe(node.args[0])}` concatenates "
                    f"in hash order")
        self._check_det003_call(node)
        self._check_env001_call(node)
        self.generic_visit(node)

    _comprehensions_checked: _t.Set[int]

    def visit_ListComp(self, node: ast.ListComp) -> None:
        if id(node) not in self._comprehensions_checked:
            self._check_comprehension(node, None)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if id(node) not in self._comprehensions_checked:
            self._check_comprehension(node, None)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if id(node) not in self._comprehensions_checked:
            self._check_comprehension(node, None)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node, None)
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        if self._is_set_expr(node.value):
            self._flag(
                "DET001", node,
                f"*-unpacking set `{self._describe(node.value)}` "
                f"expands in hash order")
        self.generic_visit(node)

    # --------------------------------------------------- DET002 extras
    def visit_keyword(self, node: ast.keyword) -> None:
        if (self.check_det002 and node.arg == "key"
                and isinstance(node.value, ast.Name)
                and node.value.id == "id"):
            self._flag(
                "DET002", node.value,
                "sort key `id` orders by object address")
        self.generic_visit(node)

    # --------------------------------------------------- DET003 checks
    def _check_det003_call(self, node: ast.Call) -> None:
        if not self.check_det003:
            return
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if (attr in _NONDET_RANDOM_FNS
                    and self._resolves_to(func.value, "random")):
                self._flag(
                    "DET003", node,
                    f"random.{attr}() draws from the unseeded global "
                    f"generator")
            elif self._resolves_to(func.value, "numpy.random"):
                seeded = (attr in ("default_rng", "RandomState",
                                   "Generator", "SeedSequence")
                          and bool(node.args or node.keywords))
                if not seeded:
                    self._flag(
                        "DET003", node,
                        f"numpy.random.{attr}() touches numpy's "
                        f"global random state (seed a "
                        f"default_rng(seed) instead)")
            elif (attr in _WALLCLOCK_TIME_FNS
                    and self._resolves_to(func.value, "time")):
                self._flag(
                    "DET003", node,
                    f"time.{attr}() reads the wall clock inside "
                    f"simulation code")
            elif (attr in _WALLCLOCK_DATETIME_FNS
                    and isinstance(func.value, (ast.Name, ast.Attribute))
                    and "datetime" in ast.dump(func.value)):
                self._flag(
                    "DET003", node,
                    f"datetime {attr}() reads the wall clock inside "
                    f"simulation code")
        elif isinstance(func, ast.Name):
            origin = self.from_imports.get(func.id)
            if origin == "random" and func.id in _NONDET_RANDOM_FNS:
                self._flag(
                    "DET003", node,
                    f"{func.id}() (from random) draws from the "
                    f"unseeded global generator")
            elif origin == "time" and func.id in _WALLCLOCK_TIME_FNS:
                self._flag(
                    "DET003", node,
                    f"{func.id}() (from time) reads the wall clock "
                    f"inside simulation code")

    # --------------------------------------------------- ENV001 checks
    def _check_env001_call(self, node: ast.Call) -> None:
        if not self.check_env001:
            return
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "getenv"
                and self._resolves_to(func.value, "os")):
            self._flag("ENV001", node,
                       "os.getenv() bypasses repro._envflags")
        elif (isinstance(func, ast.Name)
                and self.from_imports.get(func.id) == "os"
                and func.id == "getenv"):
            self._flag("ENV001", node,
                       "getenv() (from os) bypasses repro._envflags")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self.check_env001 and node.attr == "environ"
                and self._resolves_to(node.value, "os")):
            self._flag("ENV001", node,
                       "os.environ read bypasses repro._envflags")
        if self.check_orc002 and node.attr == "_trace":
            self._flag("ORC002", node,
                       f"`{self._describe(node)}` touches the engine's "
                       f"trace hook outside repro.simulate: a traced "
                       f"run must execute the code an untraced one does")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (self.check_env001
                and self.from_imports.get(node.id) == "os"
                and node.id == "environ"):
            self._flag("ENV001", node,
                       "environ (from os) bypasses repro._envflags")
        self.generic_visit(node)

    # --------------------------------------------------- ORC001 checks
    def _check_orc001(self, node: ast.FunctionDef) -> None:
        if not node.name.startswith("set_"):
            return
        if len(self.scopes) != 1:  # module-level setters only
            return
        has_global = any(isinstance(stmt, ast.Global)
                         for stmt in ast.walk(node))
        if not has_global:
            return
        if node.name in _ORC001_ALLOWED:
            return
        self._flag(
            "ORC001", node,
            f"{node.name}() writes a module-level global: a "
            f"process-wide switch not on the allowlist "
            f"({', '.join(_ORC001_ALLOWED)})")

    # -------------------------------------------------- scope plumbing
    def generic_visit(self, node: ast.AST) -> None:
        # merge parameters annotated as sets into the fresh scope
        if (self._pending_arg_scope is not None
                and self.scopes[-1].node is node):
            self.scopes[-1].set_names |= self._pending_arg_scope
            self._pending_arg_scope = None
        super().generic_visit(node)


# -------------------------------------------------------------- drivers
def lint_source(source: str, path: str, *,
                rules: _t.Optional[_t.Collection[str]] = None
                ) -> _t.List[Finding]:
    """Lint one file's source text; returns unsuppressed findings.

    ``path`` scopes the path-sensitive rules (DET002 layers, DET003
    exemptions, the ``_envflags`` ENV001 carve-out, the ``simulate``
    ORC002 owner) and labels the findings; it need not exist on disk.
    """
    norm = path.replace("\\", "/")
    tree = ast.parse(source, filename=path)
    checker = _FileChecker(
        norm, source, tree,
        det002=_in_layers(norm, _DET002_LAYERS),
        det003=not _in_layers(norm, _DET003_EXEMPT),
        env001=not norm.endswith(_ENV001_EXEMPT),
        orc002=not _in_layers(norm, _ORC002_OWNER))
    checker.visit(tree)
    wanted = set(rules) if rules is not None else set(ALL_RULES)
    suppressions = _parse_suppressions(source)
    kept: _t.List[Finding] = []
    for finding in sorted(checker.findings,
                          key=lambda f: (f.line, f.col, f.rule)):
        if finding.rule not in wanted:
            continue
        entry = suppressions.get(finding.line)
        if entry is not None and finding.rule in entry[0]:
            if entry[1]:
                continue  # justified suppression
            finding = dataclasses.replace(
                finding, message=finding.message
                + " (suppression present but missing a justification: "
                  "write `# detlint: ignore[RULE] -- why`)")
        kept.append(finding)
    return kept


def lint_file(filename: str, *, relpath: _t.Optional[str] = None,
              rules: _t.Optional[_t.Collection[str]] = None
              ) -> _t.List[Finding]:
    """Lint one file on disk (see :func:`lint_source`)."""
    with open(filename, encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, relpath or filename, rules=rules)
