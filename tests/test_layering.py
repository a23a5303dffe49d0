"""field.py alone owns the layout of a FieldCtx's tables and caches: no
other library module reads or writes a ctx._ attribute.  Likewise
linpoly.py alone knows how a polynomial keeps its value table.  Every exported
name is used by a test or a demo, and every name a library module imports
is used in that module."""

import ast
import re
from pathlib import Path

import spreadlab

SRC = Path(spreadlab.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


def test_only_field_touches_private_ctx_attributes():
    offenders = [f"{path.name}:{i}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "field.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "ctx._" in line]
    assert not offenders, "\n".join(offenders)


def test_only_linpoly_touches_the_value_cache():
    offenders = [f"{path.name}:{i}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "linpoly.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "._vals" in line]
    assert not offenders, "\n".join(offenders)


def test_every_export_is_used_in_tests_or_demos():
    text = "\n".join(path.read_text() for folder in ("tests", "demos")
                     for path in sorted((REPO / folder).glob("*.py")))
    unused = [name for name in spreadlab.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, unused


def test_every_import_is_used():
    # __init__.py imports to re-export; from __future__ switches on features
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}"
                       for name in bound if name not in used]
    assert not unused, "\n".join(unused)
