"""Guard against dead public functions and methods.

Every public function defined in the mptrain modules, and every public
method of the classes they define, must be named, as a whole word,
somewhere in src/ or tests/ other than a `def` line of that name.
A function nothing calls or tests is deleted rather than kept.
"""

import inspect
import pathlib
import re

from mptrain import binary16, diagnostics, io_cli, mp_engine, nn, tensor

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = (binary16, tensor, nn, mp_engine, diagnostics, io_cli)


def _source_lines() -> list[str]:
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    lines = []
    for path in paths:
        if path.resolve() != pathlib.Path(__file__).resolve():
            lines += path.read_text().splitlines()
    return lines


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


def test_every_public_function_is_referenced():
    lines = _source_lines()
    unreferenced = []
    for mod in MODULES:
        for name, qualified in _public_callables(mod):
            word = re.compile(rf"\b{name}\b")
            own_def = re.compile(rf"^\s*def {name}\(")
            if not any(word.search(line) and not own_def.match(line)
                       for line in lines):
                unreferenced.append(qualified)
    assert unreferenced == []
