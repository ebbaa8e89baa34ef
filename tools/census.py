#!/usr/bin/env python3
"""Reachability census: nothing under ``src/`` is reached only by tests.

    python3 tools/census.py [REPO_ROOT]

Roots are every file under ``benchmarks/`` and ``examples/``, each
package's ``cli.py`` and the ``python -m`` modules named in
``.github/workflows/ci.yml``; ``tests/`` is not a root.  Exits 1,
listing what it found, when

1. a ``src/`` module is not imported, directly or through other
   modules, from a root;
2. a function, class, method or module-level ``ALL_CAPS`` constant is
   referenced only inside its own body, in ``tests/``, in a package
   ``__init__`` (a re-export), or from definitions this rule already
   flagged;
3. a package ``__init__`` re-exports a name that no other file imports
   through that package.

A re-export is a ``from … import`` line in a package ``__init__`` or an
entry of its lazy ``_LAZY = {"name": "pkg.module"}`` table, which counts
as ``from pkg.module import name``.

A reference is an AST identifier or attribute, an import alias, or a
string that names the definition (``"pkg.mod:Class"``, a method name),
except the strings of a module's ``__all__``, which list names and use
none.
Names are matched without their owner, so a method counts as used when
any attribute of that name is.  Standard library only.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

# Definitions kept although only tests reach them: "module:qualname" -> reason.
ALLOWED = {
    "repro.core.quantization:split_chunks":
        "reference bit slicing: tests build and check kernel arenas with it",
    "repro.core.quantization:assemble_from_chunks":
        "inverse of split_chunks: the round trip that checks that reference",
    "repro.core.estimator:true_probabilities":
        "exact-softmax oracle of the Eq. 5 certificate tests",
    "repro.core.estimator:certified_upper_bounds":
        "Eq. 5's p'' in closed form: the safety theorem's reference statement",
    "repro.model.attention:ExactAttentionBackend":
        "exact reference backend: perplexity tests check the default path "
        "and full-traffic accounting against it",
    "repro.obs.trace:Tracer.open_spans":
        "test oracle: no span may stay open after a run",
}

_NAME_STRING = re.compile(r"[A-Za-z_][\w.:]*")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


class Source:
    """One parsed file: what it names, imports and defines."""

    def __init__(self, path: Path, module: str = "") -> None:
        self.path, self.module = path, module
        self.is_init = path.name == "__init__.py"
        self.refs: list[tuple[str, int]] = []  # (identifier, line)
        self.attrs: set[str] = set()  # attribute names read
        self.imports: set[str] = set()  # dotted names that may be modules
        self.through: set[tuple[str, str]] = set()  # (package, name) imported
        self.defs: list[tuple[str, int, int]] = []  # (qualname, first, last line)
        tree = ast.parse(path.read_text(), str(path))
        skip = self._lazy_exports(tree) | {
            elt for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            line = getattr(node, "lineno", 0)
            if node in skip:
                continue
            if isinstance(node, ast.Name):
                self.refs.append((node.id, line))
            elif isinstance(node, ast.Attribute):
                self.refs.append((node.attr, line))
                self.attrs.add(node.attr)
            elif isinstance(node, ast.Import):
                self.imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                self.imports.add(node.module)
                for alias in node.names:
                    self.refs.append((alias.name, line))
                    self.imports.add(f"{node.module}.{alias.name}")
                    self.through.add((node.module, alias.name))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _NAME_STRING.fullmatch(node.value)):
                dotted = node.value.replace(":", ".")
                self.refs += [(part, line) for part in dotted.split(".")]
                self.imports.add(dotted)
                self.through.add(tuple(dotted.rpartition(".")[::2]))
        for node in tree.body:
            self._define(node, "")

    def _lazy_exports(self, tree: ast.Module) -> set:
        """A package's ``_LAZY = {"name": "pkg.module", ...}`` table: each
        entry re-exports ``name`` (rule 3) and imports ``pkg.module`` (rule
        1), like ``from pkg.module import name``.  Returns the table's
        string nodes, which are not read again as name strings."""
        nodes = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and any(isinstance(t, ast.Name) and t.id == "_LAZY"
                            for t in node.targets)):
                for key, value in zip(node.value.keys, node.value.values):
                    self.imports.update((value.value, f"{value.value}.{key.value}"))
                    self.through.add((value.value, key.value))
                    nodes.update((key, value))
        return nodes

    def _define(self, node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("__"):
                self.defs.append((owner + node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef) and not owner:
                for child in node.body:
                    self._define(child, node.name + ".")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not owner:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            self.defs += [(t.id, node.lineno, node.end_lineno) for t in targets
                          if isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id)]


def load(root: Path):
    """src files, root files, test files and the entry-point modules."""
    src = [Source(path, ".".join(p for p in path.relative_to(root / "src")
                                 .with_suffix("").parts if p != "__init__"))
           for init in sorted(root.glob("src/*/__init__.py"))
           for path in sorted(init.parent.rglob("*.py"))]
    roots = [Source(path) for folder in ("benchmarks", "examples")
             for path in sorted((root / folder).rglob("*.py"))]
    tests = [Source(path) for path in sorted((root / "tests").rglob("*.py"))]
    ci = root / ".github" / "workflows" / "ci.yml"
    entry = set(re.findall(r"python3? -m ([\w.]+)", ci.read_text())) if ci.exists() else set()
    entry |= {s.module for s in src if s.module.count(".") == 1 and s.path.name == "cli.py"}
    return src, roots, tests, entry


def unreachable_modules(src, roots, entry) -> list[str]:
    modules = {s.module: s for s in src}
    seen, todo = set(), [*entry, *(name for f in roots for name in f.imports)]
    while todo:
        parts = todo.pop().split(".")
        for i in range(1, len(parts) + 1):  # importing a.b.c runs a and a.b too
            prefix = ".".join(parts[:i])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                todo += modules[prefix].imports
    return sorted(set(modules) - seen)


def unreached_definitions(src, roots) -> list[str]:
    where = defaultdict(list)  # identifier -> [(path, line)] outside tests and __init__s
    for f in src + roots:
        if not f.is_init:
            for name, line in f.refs:
                where[name].append((f.path, line))
    defs = [(s, qualname, first, last) for s in src for qualname, first, last in s.defs
            if f"{s.module}:{qualname}" not in ALLOWED]

    def used(definition, dead) -> bool:
        s, qualname, first, last = definition
        return any(not (path == s.path and first <= line <= last)
                   and not any(path == p and a <= line <= b for p, a, b in dead)
                   for path, line in where[qualname.rpartition(".")[2]])

    flagged: set = set()
    while True:  # references from inside flagged definitions do not count
        dead = [(s.path, first, last) for s, _, first, last in flagged]
        now = {d for d in defs if not used(d, dead)}
        if now == flagged:
            return sorted(f"{s.module}:{q} ({s.path.name}:{a})" for s, q, a, _ in flagged)
        flagged = now


def unused_reexports(src, roots, tests) -> list[str]:
    found = []
    for init in (s for s in src if s.is_init):
        exported = {name for package, name in init.through
                    if package != init.module and not name.startswith("__")}
        users = [f for f in src + roots + tests if f is not init]
        found += [f"{init.module}.{name}" for name in sorted(exported)
                  if not any((init.module, name) in f.through
                             or (init.module in f.imports and name in f.attrs)
                             for f in users)]
    return found


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    src, roots, tests, entry = load(root)
    report = {
        "module not reached from a root": unreachable_modules(src, roots, entry),
        "reached only by tests or itself": unreached_definitions(src, roots),
        "re-export nothing imports through its package": unused_reexports(src, roots, tests),
    }
    for title, names in report.items():
        for name in names:
            print(f"{title}: {name}")
    total = sum(map(len, report.values()))
    print(f"census: {total} finding(s) in {len(src)} src files")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
