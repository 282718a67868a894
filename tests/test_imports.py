"""Every name a library module imports is used in it, and every function,
method and class it defines is named somewhere else (no linter is a
dependency, so the checks walk the syntax tree with the standard library).
Package ``__init__.py`` files re-export their imports and are skipped."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smc_kit"


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names inside string annotations such as -> "ProjComplex"
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                expr = ast.parse(n.value, mode="eval")
            except SyntaxError:
                continue
            used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in _unused_imports(ast.parse(path.read_text())):
            found.append(f"{path.relative_to(SRC)}:{line} {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_definition_is_named_elsewhere():
    # a name must occur more often in src/, scripts/, perfbench/ and tests/
    # than it is defined in src/smc_kit; dunders are called by Python
    defined = Counter()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined[node.name] += 1
    words = Counter()
    for top in ("src", "scripts", "perfbench", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    unnamed = sorted(name for name, n in defined.items() if words[name] <= n)
    assert not unnamed, "defined but never named elsewhere: " + ", ".join(unnamed)
