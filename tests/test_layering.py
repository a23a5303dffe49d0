"""field.py alone owns the layout of a FieldCtx's tables and caches: no
other library module reads or writes a ctx._ attribute."""

from pathlib import Path

import spreadlab

SRC = Path(spreadlab.__file__).resolve().parent


def test_only_field_touches_private_ctx_attributes():
    offenders = [f"{path.name}:{i}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "field.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "ctx._" in line]
    assert not offenders, "\n".join(offenders)
