"""field.py alone owns the layout of a FieldCtx's tables and caches: no
other library module reads or writes a ctx._ attribute.  Every exported
name is used by a test or a demo."""

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


def test_every_export_is_used_in_tests_or_demos():
    text = "\n".join(path.read_text() for folder in ("tests", "demos")
                     for path in sorted((REPO / folder).glob("*.py")))
    unused = [name for name in spreadlab.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, unused
