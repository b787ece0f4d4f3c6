"""Guard against dead public functions.

Every public function defined in the mptrain modules must be named, as a
whole word, somewhere in src/ or tests/ other than its own `def` line.
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


def test_every_public_function_is_referenced():
    lines = _source_lines()
    unreferenced = []
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            word = re.compile(rf"\b{name}\b")
            own_def = re.compile(rf"^\s*def {name}\(")
            if not any(word.search(line) and not own_def.match(line)
                       for line in lines):
                unreferenced.append(f"{mod.__name__}.{name}")
    assert unreferenced == []
