"""Every function, method and class defined in `src/vulnpool` is referenced
by name in the program itself: `src/vulnpool`, the benchmark (`perfbench`)
or `tools`. A name that only tests reach is surface every change to the
numerics must still carry."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = ("src/vulnpool", "perfbench", "tools")

# definitions that only tests reach, on purpose
ALLOWED = {
    "grad_check": "the finite-difference reference the gradient tests check every op against",
    "tensor": "builds the constant operands of the numcore tests",
}


def _trees(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        if not path.name.startswith("test_"):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_referenced_by_the_program():
    defined = {}
    for path, tree in _trees("src/vulnpool"):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    referenced = set()
    for directory in PROGRAM:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    assert set(ALLOWED) <= set(defined), "the allow-list names a definition that is gone"
    unreached = {name: where for name, where in defined.items()
                 if name not in referenced and name not in ALLOWED}
    assert not unreached, f"defined in src/vulnpool, reached only from tests: {unreached}"
