"""The program uses what `src/vulnpool` defines, and what it defines is
used, in both directions. The program is `src/vulnpool`, the benchmark
(`perfbench`) and `tools`, without their tests.

- Every function, method and class defined in `src/vulnpool` is referenced
  by the program, and every parameter with a default is passed by some
  program call: a name or a setting that only tests reach is surface every
  change to the numerics must still carry.
- Every default is used: a function parameter or dataclass field whose
  default every program call overrides serves only tests, and is a second
  copy of a value the program declares elsewhere (a setting's default lives
  once, in `config.RunConfig`).

Calls are matched by name, so a call to another function of the same name
(`str.encode` for `tokenizer.encode`) counts too. A method name that several
classes define is listed in `SHARED_NAMES`, with why each definition is
reached, since one reference would count for all of them."""

import ast
import collections
import dataclasses
import pathlib

from vulnpool.encoder import EncoderConfig
from vulnpool.model import ModelConfig
from vulnpool.trainer import TrainConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = ("src/vulnpool", "perfbench", "tools")

# definitions that only tests reach, on purpose
ALLOWED = {
    "grad_check": "the finite-difference reference the gradient tests check every op against",
    "tensor": "builds the constant operands of the numcore tests",
}

# method names that more than one class defines. A reference matches every
# definition of its name, so each such name is listed with the reason every
# one of its definitions is reached; a name missing here fails the check
SHARED_NAMES = {
    "to_record": "cli writes BreakdownReport's to metrics.jsonl and CorpusStats' to "
                 "stats.json; trainer stores LanguageAssignment's in each checkpoint",
    "render": "cli prints CorpusStats' in preprocess and SweepResult's in sweep",
    "parameters": "trainer steps over VulnPoolModel's, which adds Encoder's to the pool's",
    "embed": "evaluate.export_embeddings calls VulnPoolModel's, which calls Encoder's",
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

# parameters and dataclass fields whose default every program call
# overrides, on purpose, as "function.parameter" or "Class.field"
ALLOWED_UNUSED_DEFAULTS = {
    **{f"split_dataset.{p}": "perfbench/test_workloads.py calls split_dataset(samples, seed=0), "
                             "and the benchmark's files change only with the benchmark"
       for p in ("ratios", "seed")},
}


def _trees(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        if not path.name.startswith("test_"):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_referenced_by_the_program():
    # a module-level definition counts as referenced through its bare name or
    # an attribute of a bare name (`tok.encode`), not through the attribute
    # of a value (`raw.decode`), which is another type's method of that name
    defined, top_level = {}, set()
    owners = collections.defaultdict(list)  # method name -> classes that define it
    for path, tree in _trees("src/vulnpool"):
        top_level.update(node.name for node in tree.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        owners[item.name].append(node.name)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    named, attribute = set(), set()  # bare names and attributes of bare names; the rest
    for directory in PROGRAM:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    (named if isinstance(node.value, ast.Name) else attribute).add(node.attr)
    assert set(ALLOWED) <= set(defined), "the allow-list names a definition that is gone"
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert set(SHARED_NAMES) <= set(shared), "SHARED_NAMES lists a name only one class defines"
    unlisted = {name: classes for name, classes in shared.items() if name not in SHARED_NAMES}
    assert not unlisted, f"method names several classes define, not in SHARED_NAMES: {unlisted}"
    unreached = {name: where for name, where in defined.items()
                 if name not in named and (name in top_level or name not in attribute)
                 and name not in ALLOWED}
    assert not unreached, f"defined in src/vulnpool, reached only from tests: {unreached}"


def _is_decorated(node, name):
    """Whether `node` has the decorator `name`, `name(...)` or `x.name`."""
    return any(isinstance(d, ast.Name) and d.id == name
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == name
               or isinstance(d, ast.Attribute) and d.attr == name
               for d in node.decorator_list)


def _defaults(tree):
    """(name, [(parameter, positional index or None)]) of each function in
    `tree` with defaults; a method's index leaves out its first parameter,
    and an __init__ is named after its class."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item] = (node.name if item.name == "__init__" else item.name,
                                     0 if _is_decorated(item, "staticmethod") else 1)
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


def _field_defaults(tree):
    """(class name, [(field, positional index)]) of each dataclass in `tree`
    with field defaults."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_decorated(node, "dataclass"):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            with_default = [(item.target.id, i) for i, item in enumerate(fields)
                            if item.value is not None]
            if with_default:
                yield node.name, with_default


Call = collections.namedtuple("Call", "positional starred keywords mapping")


def _calls():
    """Per callee name, each program call to it: its positional arguments
    before any *-argument, the index of that *-argument (None without one),
    its keywords, and whether it passes a **-mapping. A `cls(...)` in a
    classmethod is a call to its class."""
    calls = collections.defaultdict(list)
    for directory in PROGRAM:
        for _, tree in _trees(directory):
            owner = {}  # each call in a classmethod -> its class
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if (isinstance(item, ast.FunctionDef)
                                and _is_decorated(item, "classmethod")):
                            owner.update((call, node.name) for call in ast.walk(item))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cls":
                    name = owner.get(node, name)
                starred = next((i for i, arg in enumerate(node.args)
                                if isinstance(arg, ast.Starred)), None)
                calls[name].append(Call(len(node.args) if starred is None else starred, starred,
                                        {k.arg for k in node.keywords if k.arg},
                                        any(k.arg is None for k in node.keywords)))
    return calls


def _passes(call, param, index) -> bool:
    """Whether `call` surely passes the parameter `param` at `index`."""
    return param in call.keywords or (index is not None and index < call.positional)


def _may_pass(call, param, index) -> bool:
    """Whether `call` may pass it: through a *-argument or a **-mapping too."""
    return (_passes(call, param, index) or call.mapping
            or (index is not None and call.starred is not None and index >= call.starred))


def test_every_parameter_default_is_passed_by_the_program():
    calls = _calls()
    defaulted, unpassed = set(), {}
    for path, tree in _trees("src/vulnpool"):
        for name, params in _defaults(tree):
            for param, index in params:
                defaulted.add(f"{name}.{param}")
                passed = any(_may_pass(call, param, index) for call in calls[name])
                if not passed and f"{name}.{param}" not in ALLOWED_PARAMETERS:
                    unpassed[f"{name}.{param}"] = str(path.relative_to(ROOT))
    assert set(ALLOWED_PARAMETERS) <= defaulted, "the allow-list names a parameter that is gone"
    assert not unpassed, f"parameter defaults no call in the program overrides: {unpassed}"


def test_every_parameter_default_is_used_by_the_program():
    calls = _calls()
    defaulted, unused = set(), {}
    for path, tree in _trees("src/vulnpool"):
        for name, params in [*_defaults(tree), *_field_defaults(tree)]:
            for param, index in params:
                defaulted.add(f"{name}.{param}")
                if (calls[name] and all(_passes(call, param, index) for call in calls[name])
                        and f"{name}.{param}" not in ALLOWED_UNUSED_DEFAULTS):
                    unused[f"{name}.{param}"] = str(path.relative_to(ROOT))
    assert set(ALLOWED_UNUSED_DEFAULTS) <= defaulted, \
        "the allow-list names a default that is gone"
    assert not unused, f"defaults every call in the program overrides: {unused}"


def test_component_configs_take_every_setting_from_run_config():
    # the check above cannot see these: load_checkpoint builds ModelConfig and
    # EncoderConfig from a manifest's **mapping, which carries every field
    for config in (ModelConfig, EncoderConfig, TrainConfig):
        defaulted = [f.name for f in dataclasses.fields(config)
                     if f.default is not dataclasses.MISSING
                     or f.default_factory is not dataclasses.MISSING]
        assert not defaulted, f"{config.__name__} declares defaults of its own: {defaulted}"
