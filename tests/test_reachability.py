"""Every function, method and class defined in `src/vulnpool` is referenced
by name in the program itself: `src/vulnpool`, the benchmark (`perfbench`)
or `tools`, and every parameter with a default is passed by some call there.
A name or a setting that only tests reach is surface every change to the
numerics must still carry."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = ("src/vulnpool", "perfbench", "tools")

# definitions that only tests reach, on purpose
ALLOWED = {
    "grad_check": "the finite-difference reference the gradient tests check every op against",
    "tensor": "builds the constant operands of the numcore tests",
}

# parameters with a default that no call in the program passes, on purpose,
# as "function.parameter" (a class's __init__ by the class name)
ALLOWED_PARAMETERS = {
    "main.argv": "the tests drive the command line through it",
    "train.start_epoch": "the Python-only resume, until a checkpoint-start flag carries it",
    "train.adam_state": "the Python-only resume, until a checkpoint-start flag carries it",
    **{f"grad_check.{p}": "the gradient tests tune the finite-difference check"
       for p in ("eps", "tol", "retry_eps")},
    "tensor.requires_grad": "tensor is reached only from tests (see ALLOWED)",
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


def _defaults(tree):
    """(name, [(parameter, positional index or None)]) of each function in
    `tree` with defaults; a method's index leaves out its first parameter,
    and an __init__ is named after its class."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    methods[item] = (node.name if item.name == "__init__" else item.name,
                                     0 if static else 1)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, skip = methods.get(node, (node.name, 0))
            a = node.args
            positional = a.posonlyargs + a.args
            with_default = [(arg.arg, i - skip) for i, arg in enumerate(positional)
                            if i >= len(positional) - len(a.defaults)]
            with_default += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None]
            if with_default:
                yield name, with_default


def test_every_parameter_default_is_passed_by_the_program():
    # per callee name: the keywords its calls pass ("**" for any) and the
    # positions they fill; a *-argument fills its position and every later one
    keywords, positions = collections.defaultdict(set), collections.defaultdict(set)
    starred = collections.defaultdict(lambda: float("inf"))
    for directory in PROGRAM:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        starred[name] = min(starred[name], i)
                    positions[name].add(i)
                keywords[name].update(k.arg or "**" for k in node.keywords)
    defaulted, unpassed = set(), {}
    for path, tree in _trees("src/vulnpool"):
        for name, params in _defaults(tree):
            for param, index in params:
                defaulted.add(f"{name}.{param}")
                passed = (param in keywords[name] or "**" in keywords[name]
                          or (index is not None and (index in positions[name]
                                                     or index >= starred[name])))
                if not passed and f"{name}.{param}" not in ALLOWED_PARAMETERS:
                    unpassed[f"{name}.{param}"] = str(path.relative_to(ROOT))
    assert set(ALLOWED_PARAMETERS) <= defaulted, "the allow-list names a parameter that is gone"
    assert not unpassed, f"parameter defaults no call in the program overrides: {unpassed}"
