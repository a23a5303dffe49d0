"""field.py alone owns the layout of a FieldCtx's tables and caches: no
other library module reads or writes a ctx._ attribute.  Likewise
linpoly.py alone knows how a polynomial keeps its value table.  Every exported
name is used by a test or a demo, and every name a library module imports
is used in that module.  No library path builds a whole-field Frobenius
table: x^(p^k) comes from vpow."""

import ast
import re
from pathlib import Path

import numpy as np

import spreadlab
import spreadlab.spread as spread_mod
from spreadlab import (DOPoly, FieldCtx, QPoly, RtcsSpec, build_even_n3, build_tower,
                       build_typeC, build_typeH, even3_admissible, rtcs_build,
                       symplectic_check, verify_planar_dichotomy)

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


def test_library_paths_build_no_frobenius_table(monkeypatch):
    # value tables, traces, the RTCS product, the symplectic Gram matrices,
    # the constructions and the planar scan take x^(p^k) from vpow on the
    # values they need; frob_table stays the tests' reference
    c311, c313, c213 = build_tower(3, 1, 1), build_tower(3, 1, 3), build_tower(2, 1, 3)
    dom = c313.subfield_elements("qn")
    amb = np.arange(c313.N)
    conj = [c313.frob_table(c313.e * i) for i in range(2 * c313.n)]
    want_l = c313.vadd(dom, c313.vmul(2, conj[2][dom]))
    want_f = c313.vadd(c313.vmul(dom, conj[1][dom]),
                       c313.vmul(2, c313.vmul(conj[2][dom], conj[2][dom])))
    want_tr = amb
    for t in conj[1:]:
        want_tr = c313.vadd(want_tr, t[amb])

    def no_table(self, k):
        raise AssertionError(f"frob_table({k}) called")

    monkeypatch.setattr(FieldCtx, "frob_table", no_table)
    spread_mod._twisted_pair.cache_clear()         # the constructions' value tables
    assert np.array_equal(QPoly(c313, [1, 0, 2]).values(), want_l)
    assert np.array_equal(DOPoly(c313, {(0, 1): 1, (2, 2): 2}).values(), want_f)
    assert np.array_equal(c313.vtrace(amb, "q2n", "q"), want_tr)
    assert c313.trace(int(amb[-1]), "q2n", "q") == want_tr[-1]
    t = next(int(x) for x in c311.subfield_elements(2) if not c311.in_subfield(int(x), "q"))
    rtcs_build(RtcsSpec(c311, t, QPoly.zero(c311, "q", 1),
                        QPoly(c311, {0: c311.least_nonsquare("q")}, "q", 1)))
    d = next(d for d in range(c213.N) if even3_admissible(c213, d))
    assert symplectic_check(build_even_n3(c213, d), d)
    delta = c313.find_deltas()[0]
    build_typeC(c313, 1, delta)
    build_typeH(c313, 1, delta, c313.find_etas(1)[0])
    report = verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": 100})
    assert report.verdict == "confirmed"
