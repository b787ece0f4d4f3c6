"""Guards on the package's shape.

Every public function defined in the mptrain modules, every public
method of the classes they define, and every public module constant
must be referenced by code in src/ or perfbench/: a name that is read,
an import, or an attribute of anything but numpy.  Strings, comments,
test files, the assignment that defines a name and numpy's own
attributes (say `np.full`) do not count, so a function or constant only
tests use is moved into the tests or deleted rather than kept in the
package.

The modules form a stack: each imports only the mptrain modules below
it, and io_cli names no layer class, so each layer owns how it reads
its input.  nn names `T.store` only inside `_store`, so every rounding
a layer makes is one `_store`.
"""

import ast
import inspect
import pathlib

from mptrain import _native, binary16, diagnostics, io_cli, mp_engine, nn, tensor

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = (_native, binary16, tensor, nn, mp_engine, diagnostics, io_cli)
NUMPY = ("np", "numpy")
# bottom to top; mp_engine and diagnostics share a level, so neither
# may import the other
LEVEL = {"_native": 0, "binary16": 1, "tensor": 2, "nn": 3, "mp_engine": 4,
         "diagnostics": 4, "io_cli": 5}


def _referenced_names() -> set[str]:
    """Every name that code outside the test files of src/ and
    perfbench/ reads as a name, imports or reads as an attribute."""
    names = set()
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Attribute) and not (
                        isinstance(node.value, ast.Name) and node.value.id in NUMPY):
                    names.add(node.attr)
    return names


def _public_callables(mod):
    """(name, qualified name) of mod's public functions and of the public
    methods of the classes mod defines."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, f"{mod.__name__}.{name}"
        elif inspect.isclass(obj):
            for meth, member in vars(obj).items():
                if not meth.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (staticmethod, classmethod))):
                    yield meth, f"{mod.__name__}.{name}.{meth}"


def _public_constants(mod):
    """(name, qualified name) of each public name that a top-level
    assignment in mod's source binds."""
    tree = ast.parse(pathlib.Path(mod.__file__).read_text())
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                yield target.id, f"{mod.__name__}.{target.id}"


def test_every_public_function_is_referenced():
    names = _referenced_names()
    unreferenced = [qualified for mod in MODULES
                    for name, qualified in _public_callables(mod)
                    if name not in names]
    assert unreferenced == []


def test_every_public_constant_is_referenced():
    names = _referenced_names()
    unreferenced = [qualified for mod in MODULES
                    for name, qualified in _public_constants(mod)
                    if name not in names]
    assert unreferenced == []


def _mptrain_imports(tree: ast.AST) -> set[str]:
    """The mptrain modules a module's code imports, relatively or by
    the package name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("mptrain")):
            mod = (node.module or "").removeprefix("mptrain").lstrip(".")
            found.update([mod.split(".")[0]] if mod else [a.name for a in node.names])
    return found


def test_modules_import_only_modules_below_them():
    upward = []
    for path in sorted((ROOT / "src" / "mptrain").glob("*.py")):
        level = LEVEL.get(path.stem, -1)  # __init__ imports nothing
        for dep in sorted(_mptrain_imports(ast.parse(path.read_text()))):
            if LEVEL[dep] >= level:
                upward.append(f"{path.stem} imports {dep}")
    assert upward == []


def test_io_cli_names_no_layer_class():
    tree = ast.parse((ROOT / "src" / "mptrain" / "io_cli.py").read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(named & set(nn._LAYER_KINDS)) == []


def test_nn_rounds_only_through_store():
    tree = ast.parse((ROOT / "src" / "mptrain" / "nn.py").read_text())
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_store"
              for node in ast.walk(fn)}
    outside = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "store"
               and id(node) not in inside]
    assert inside and outside == []


def test_only_native_touches_raw_memory_or_names_the_numpy_twins():
    # binary16 and tensor call one function of `_native.lib()` per loop:
    # no addresses, no ctypes, and no branch to the numpy twins
    twins = {"NUMPY", *(fn.__name__ for fn in vars(_native.NUMPY).values())}
    found = []
    for path in sorted((ROOT / "src" / "mptrain").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if path.stem != "_native" and (
                    any(name.split(".")[0] == "ctypes" for name in names)
                    or isinstance(node, ast.Attribute) and node.attr == "ctypes"):
                found.append(f"{path.stem}:{node.lineno} ctypes")
            named = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, ast.alias) else None)
            if path.stem in ("binary16", "tensor") and named in twins:
                found.append(f"{path.stem}:{getattr(node, 'lineno', '?')} {named}")
    assert found == []
