"""Every name a library module imports is used in it (no linter is a
dependency, so the check walks the syntax tree with the standard library).
Package ``__init__.py`` files re-export their imports and are skipped."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smc_kit"


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
