"""Every module-level definition in ``src/xmodal`` is reached from a command.

The walk parses the package with ``ast`` and starts at ``cli.main`` and
``cli.COMMANDS``. A reached definition (a function, a class with all its
methods, or an assignment) reaches every name its source uses, resolved in its
own module:

- a bare name is the module's own definition of it, or the definition it
  imports with ``from .m import x`` (followed through re-exports);
- ``T.x`` is ``x`` in the module that ``T`` aliases (``from . import tensor as
  T``); ``from . import x`` aliases a module only if the package has one named
  x, and otherwise imports the name x of ``__init__``;
- any other name (a local, a builtin, ``np.exp``) reaches nothing, so a local
  ``sub`` does not keep ``tensor.sub`` alive, nor ``np.exp`` ``tensor.exp``.

Code that only tests use belongs under ``tests/``, not in the package.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "xmodal"
ROOTS = [("cli", "main"), ("cli", "COMMANDS")]


class _Module:
    """One module's definitions, its ``from .m import x`` names and its module aliases."""

    def __init__(self, source, module_names):
        self.definitions = {}   # name: the statement that defines it
        self.imported = {}      # local name: (module, name) it imports
        self.aliases = {}       # local name: the package module it stands for
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.definitions[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.definitions[name.id] = stmt
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module is None and alias.name in module_names:
                        self.aliases[local] = alias.name
                    else:
                        self.imported[local] = (stmt.module or "__init__", alias.name)


def unreached(package, roots):
    """Sorted 'module.name' of every module-level definition of the package in
    directory ``package`` that the walk from ``roots`` does not reach."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    modules = {name: _Module(source, set(sources)) for name, source in sources.items()}

    def resolve(module, name):
        """(module, name) of the definition ``name`` means in ``module``, or None."""
        found = modules.get(module)
        if found is None:
            return None
        if name in found.definitions:
            return module, name
        if name in found.imported:
            return resolve(*found.imported[name])
        return None

    missing = [f"{m}.{n}" for m, n in roots if resolve(m, n) != (m, n)]
    assert not missing, f"roots not defined: {missing}"
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        module, name = key
        found = modules[module]
        for node in ast.walk(found.definitions[name]):
            if isinstance(node, ast.Name):
                todo.append(resolve(module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in found.aliases):
                todo.append(resolve(found.aliases[node.value.id], node.attr))
    return sorted(f"{module}.{name}" for module, found in modules.items()
                  for name in found.definitions if (module, name) not in reached)


def test_every_definition_is_reached_from_a_command():
    dead = unreached(PACKAGE, ROOTS)
    assert not dead, "module-level definitions that no command reaches:\n" + "\n".join(dead)


def test_names_resolve_per_module(tmp_path):
    sources = {
        "__init__": '__version__ = "1"\nUNUSED_VERSION = "2"\n',
        "tensor": ("def exp(a):\n    return a\n\n"
                   "def sub(a, b):\n    return a\n\n"
                   "def add(a, b):\n    return a\n\n"
                   "def scale(a, c):\n    return a\n\n"
                   "class Tensor:\n    def double(self):\n        return scale(self, 2)\n\n"
                   "EPS = 1e-12\nUNUSED = 2\n"),
        "losses": "from .tensor import EPS\n\ndef loss():\n    return EPS\n",
        "retrieval": "from .losses import EPS\n\nLIMIT = EPS\n",
        "cli": ("import numpy as np\n\n"
                "from . import __version__\nfrom . import tensor as T\n"
                "from .retrieval import LIMIT\n\n"
                "COMMANDS = {'add': T.add}\n\n"
                "def main():\n"
                "    sub = np.exp(1.0)\n"
                "    return sub, __version__, LIMIT, T.Tensor\n"),
    }
    for name, source in sources.items():
        (tmp_path / f"{name}.py").write_text(source)
    # tensor.scale is reached through a method of a reached class, EPS through a
    # re-export; np.exp and the local sub reach nothing
    assert unreached(tmp_path, ROOTS) == [
        "__init__.UNUSED_VERSION", "losses.loss", "tensor.UNUSED", "tensor.exp", "tensor.sub"]
