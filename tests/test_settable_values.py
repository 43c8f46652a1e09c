"""The package's settable values stay counted.

A settable value is a defaulted parameter (positional or keyword-only), a
`**kwargs`, or an annotated class field with a default: each is a knob that
a caller may set and a reader must follow.  A change that adds one edits
SETTABLE_VALUES and says why in CHANGES.md.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "edgefol"
SETTABLE_VALUES = 21


def _settable(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            yield from args.defaults
            yield from (d for d in args.kw_defaults if d is not None)
            if args.kwarg is not None:
                yield args.kwarg
        elif isinstance(node, ast.ClassDef):
            yield from (s for s in node.body
                        if isinstance(s, ast.AnnAssign) and s.value is not None)


def test_settable_values_do_not_grow():
    count = sum(len(list(_settable(ast.parse(path.read_text()))))
                for path in sorted(PACKAGE.glob("*.py")))
    assert count <= SETTABLE_VALUES
