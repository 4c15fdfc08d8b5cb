"""Every name a module under src/dron imports is used in that module, and
names a standard-library module, numpy or the package itself; every
parameter a function there takes is read in its body; every public
function or class defined there is used by some module there; every public
method, property or dataclass field of a class there is read by some module
there; no parameter of a function there is passed the same literal by
every call there; no parameter or class field there named after a
config key writes its default as a literal, outside the records that hold
the config's defaults; and every parameter with a default there is passed
by some call there.

Neither pyflakes nor ruff is a dependency, so this walks the syntax tree.
"""

import ast
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from dron.config import ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "dron"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\nx: List[int]\n") == [
        (1, "os"), (2, "Optional"),
    ]


def foreign_imports(source: str):
    """(line, module) for each import that names neither a standard-library
    module, numpy, nor the package itself (a relative import or ``dron``):
    the package depends on numpy only."""
    allowed = sys.stdlib_module_names | {"numpy", "dron"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.partition(".")[0] not in allowed]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.partition(".")[0] not in allowed):
            found.append((node.lineno, node.module))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_foreign_import():
    source = (
        "import os.path, numpy.linalg\n"
        "from . import nn\n"
        "from dron.errors import UsageError\n"
        "import scipy.stats\n"
        "def f():\n"
        "    from scipy.stats import ttest_rel\n"
        "    import pandas as pd\n"
    )
    assert foreign_imports(source) == [(4, "scipy.stats"), (6, "scipy.stats"), (7, "pandas")]


def unused_parameters(source: str):
    """(line, "function(parameter)") for each parameter that its function's
    body never reads. Names starting with ``_`` are exempt: they mark a
    parameter a caller's protocol passes, such as argparse's ``args``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, f"{name}({a.arg})") for a in params
                  if not a.arg.startswith("_") and a.arg not in read]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_parameter():
    source = (
        "def f(a, b, _c, *rest, d=1, **kw):\n"
        "    x = b\n"
        "    def g(e):\n"
        "        return a + d\n"
        "    return g, rest\n"
        "h = lambda y, z: y\n"
    )
    # a is read only by the nested g, which counts; b's read is an assignment's value
    assert unused_parameters(source) == [(1, "f(kw)"), (3, "g(e)"), (6, "<lambda>(z)")]


def unused_definitions(sources):
    """``module.name`` for each public top-level function or class in
    ``sources`` (module name -> source text) whose name no source reads,
    as a name or as an attribute (``module.name``)."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined if name.partition(".")[2] not in read)


# public names that nothing under src/dron uses, each kept for a reason
KEEP_UNUSED = {
    "agents.q_dqn": "the operation-style API, kept for callers of the package",
    "agents.q_dron_concat": "the operation-style API, kept for callers of the package",
    "agents.q_dron_moe": "the operation-style API, kept for callers of the package",
    "checkpoint.rng_from_state": "restores a saved stream, which resuming a run needs",
}


def test_every_public_definition_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unused_definitions(sources) == sorted(KEEP_UNUSED)


def test_detects_an_unused_definition():
    sources = {
        "a": ("def used():\n    pass\ndef by_attribute():\n    pass\n"
              "def unused():\n    pass\ndef _private():\n    pass\nclass Unused:\n    pass\n"),
        "b": "from . import a\nfrom .a import used, Unused\nused()\na.by_attribute()\n",
    }
    # importing a name is not a use of it
    assert unused_definitions(sources) == ["a.Unused", "a.unused"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unused_members(sources):
    """``module.Class.name`` for each public method, property or dataclass
    field of a class in ``sources`` (module name -> source text) whose name
    no source reads. A read is a name or an attribute in a load; a store,
    such as a keyword argument or an assignment, is not."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                      and _is_dataclass(cls)):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    defined.append(f"{module}.{cls.name}.{name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name in defined if name.rpartition(".")[2] not in read)


# public class members that nothing under src/dron reads, each kept for a reason
KEEP_UNREAD_MEMBERS = {}


def test_every_class_member_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unused_members(sources) == sorted(KEEP_UNREAD_MEMBERS)


def test_detects_an_unread_member():
    sources = {
        "a": ("from dataclasses import dataclass\n"
              "@dataclass\nclass Record:\n    read: int\n    stored: int\n"
              "    _private: int = 0\n"
              "    def method(self):\n        return self.read\n"
              "    @property\n    def unread(self):\n        return 1\n"
              "class Plain:\n    annotated: int\n    def called(self):\n        pass\n"),
        "b": ("from .a import Record, Plain\n"
              "r = Record(read=1, stored=2)\nr.stored = 3\nr.method()\nPlain().called()\n"),
    }
    # a keyword argument and an assignment store a field without reading it;
    # an annotation outside a dataclass is not a field
    assert unused_members(sources) == ["a.Record.stored", "a.Record.unread"]


def _literal(node):
    """(type, value) of a constant argument such as ``1``, ``-0.5`` or
    ``"mixed"``, else None."""
    if isinstance(node, ast.Constant) or (
            isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant)):
        value = ast.literal_eval(node)
        return type(value).__name__, value
    return None


UNKNOWN = object()  # an argument that is not a literal, or not known at all


def constant_arguments(sources):
    """``module.function(parameter)`` for each parameter of a top-level
    function in ``sources`` (module name -> source text) that every call
    there passes the same literal, a call that leaves it out passing its
    default; a parameter no call names is not counted. A call is resolved
    through the module's own functions and through ``from .module import
    name`` and ``from . import module``, wherever in the module they stand.
    A call that unpacks ``*`` or ``**`` passes an unknown value for every
    parameter."""
    signatures = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                kwonly = list(zip(args.kwonlyargs, args.kw_defaults))
                signatures[f"{module}.{node.name}"] = (
                    [a.arg for a in positional],
                    {a.arg: (UNKNOWN if d is None else _literal(d) or UNKNOWN)
                     for a, d in [*zip(positional, defaults), *kwonly]})
    passed = {}  # function -> parameter -> (value, named by the call) of each call
    for module, source in sources.items():
        tree = ast.parse(source)
        names = {node.name: f"{module}.{node.name}" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            if isinstance(func, ast.Name):
                target = names.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id in modules:
                target = f"{modules[func.value.id]}.{func.attr}"
            else:
                target = None
            if target not in signatures:
                continue
            order, defaults = signatures[target]
            values = {name: (value, False) for name, value in defaults.items()}
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            if starred:
                values = dict.fromkeys(values, (UNKNOWN, True))
            else:
                for name, arg in zip(order, call.args):
                    values[name] = (_literal(arg) or UNKNOWN, True)
                for keyword in call.keywords:
                    values[keyword.arg] = (_literal(keyword.value) or UNKNOWN, True)
            for name, value in values.items():
                passed.setdefault(target, {}).setdefault(name, []).append(value)
    return sorted(f"{function}({name})" for function, parameters in passed.items()
                  for name, calls in parameters.items()
                  if calls[0][0] is not UNKNOWN and all(v == calls[0][0] for v, _ in calls)
                  and any(named for _, named in calls))


# parameters that every call under src/dron passes one literal, each kept for a reason
KEEP_CONSTANT_ARGUMENTS = {
    "stats.regularized_incomplete_beta(b)":
        "the incomplete beta function I_x(a, b); the t CDF uses b = 0.5",
}


def test_no_parameter_is_always_passed_one_literal():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert constant_arguments(sources) == sorted(KEEP_CONSTANT_ARGUMENTS)


def test_detects_a_constant_argument():
    sources = {
        "a": ("def f(x, flag, mode='a', *, scale=1.0, other=None):\n    pass\n"
              "def g(v, w=2):\n    pass\n"
              "f(1, True, scale=-1.0)\n"),
        "b": ("from .a import f\nfrom . import a as alias\n"
              "def h(args):\n"
              "    from .a import g\n"
              "    g(args)\n"
              "    g(*args)\n"
              "    alias.g(3, w=2)\n"
              "    f(2, True, 'a', scale=-1.0)\n"),
    }
    # x varies; flag is always True and scale always -1.0; mode is 'a' once
    # passed and once by default; no call names other; g's w is 2 by
    # default, unknown when unpacked
    assert constant_arguments(sources) == ["a.f(flag)", "a.f(mode)", "a.f(scale)"]


# the records that hold the config's defaults: the config and the two whose
# fields are config keys (the quiz game's settings and the agent's variant)
DEFAULT_RECORDS = frozenset({"ExperimentConfig", "QuizConfig", "AgentSpec"})


def _is_literal(node) -> bool:
    try:
        return ast.literal_eval(node) is not None
    except (ValueError, TypeError, SyntaxError):
        return False


def copied_defaults(source: str, keys):
    """(line, "owner(name)") for each parameter of a function, or annotated
    field of a class, whose name is one of ``keys`` and whose default is a
    literal other than ``None``; the fields of `DEFAULT_RECORDS` are
    exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            named = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            owner = getattr(node, "name", "<lambda>")
            found += [(node.lineno, f"{owner}({arg.arg})") for arg, default in named
                      if arg.arg in keys and default is not None and _is_literal(default)]
        elif isinstance(node, ast.ClassDef) and node.name not in DEFAULT_RECORDS:
            found += [(stmt.lineno, f"{node.name}({stmt.target.id})") for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and stmt.target.id in keys and stmt.value is not None
                      and _is_literal(stmt.value)]
    return sorted(found)


CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_config_defaults_are_written_once(path):
    assert copied_defaults(path.read_text(encoding="utf-8"), CONFIG_KEYS) == []


def test_detects_a_copied_default():
    source = (
        "def f(gamma=0.9, vocab=Record.vocab, *, seeds=None, opponent='mixed', other=1):\n"
        "    pass\n"
        "class Driver:\n"
        "    epochs: int = -3\n"
        "    vocab: int = QuizConfig.vocab\n"
        "    multitask = 'none'\n"
        "    def __init__(self, experts=(3,)):\n"
        "        pass\n"
        "class AgentSpec:\n"
        "    experts: int = 3\n"
        "h = lambda batch_size=64: batch_size\n"
    )
    keys = {"gamma", "vocab", "seeds", "opponent", "epochs", "multitask", "experts",
            "batch_size"}
    # None and a record's attribute are not literals; an unannotated class
    # attribute is not a field; a record's own fields are exempt
    assert copied_defaults(source, keys) == [
        (1, "f(gamma)"), (1, "f(opponent)"), (4, "Driver(epochs)"),
        (7, "__init__(experts)"), (11, "<lambda>(batch_size)"),
    ]


def unpassed_defaults(sources):
    """``module.function(parameter)`` for each parameter with a default, of a
    function or method in ``sources`` (module name -> source text), that no
    call there passes. Calls are matched by name: ``f(...)`` and
    ``x.f(...)`` call every function or method named ``f``, and ``C(...)``
    calls ``C.__init__`` (labelled ``module.C(parameter)``); a method's first
    parameter is its receiver unless it is a static method. A call that
    unpacks ``*`` or ``**`` passes every parameter."""
    defined = []  # (name called, label, positional parameters, defaulted ones)
    for module, source in sources.items():
        tree = ast.parse(source)
        owners = {node: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [a.arg for a in (*args.posonlyargs, *args.args)]
            cls = owners.get(node)
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            if cls is not None and node.name == "__init__":
                called, label = cls.name, f"{module}.{cls.name}"
            else:
                called = node.name
                label = f"{module}.{cls.name}.{node.name}" if cls else f"{module}.{node.name}"
            defined += [(called, f"{label}({name})", positional, name) for name in defaulted]
    calls = []  # (name called, positional count, keywords, whether it unpacks)
    for source in sources.values():
        for call in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            calls.append((name, len(call.args), {k.arg for k in call.keywords}, starred))

    def passes(call, called, positional, param):
        name, count, keywords, starred = call
        index = positional.index(param) if param in positional else count
        return name == called and (starred or param in keywords or index < count)

    return sorted(label for called, label, positional, param in defined
                  if not any(passes(call, called, positional, param) for call in calls))


# parameters with a default that no call under src/dron passes, each kept for a reason
KEEP_UNPASSED_DEFAULTS = {
    "cli.main(argv)": "the tests' entry seam; the console script passes nothing",
}


def test_every_default_is_passed_by_some_call():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unpassed_defaults(sources) == sorted(KEEP_UNPASSED_DEFAULTS)


def test_detects_an_unpassed_default():
    sources = {
        "a": ("def f(x, by_position=1, by_keyword=2, never=3, *, only=4):\n    pass\n"
              "class Box:\n"
              "    def __init__(self, size=1, fill=0):\n        pass\n"
              "    def put(self, item, at=None):\n        pass\n"
              "    @staticmethod\n"
              "    def make(width=2, height=3):\n        pass\n"
              "def g(v, w=2):\n    pass\n"),
        "b": ("from .a import Box, f, g\n"
              "f(0, 1, by_keyword=5)\n"
              "box = Box(4)\n"
              "box.put(1, 2)\n"
              "Box.make(5)\n"
              "g(*[1, 2])\n"),
    }
    # a method's receiver takes no argument, so Box(4) passes size and put(1, 2)
    # passes at; a static method has none, so make(5) passes width; an
    # unpacked call passes everything
    assert unpassed_defaults(sources) == [
        "a.Box(fill)", "a.Box.make(height)", "a.f(never)", "a.f(only)",
    ]
