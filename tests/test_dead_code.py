"""No definition in ``src/repro`` may go unreferenced.

A class, function or method is dead when its name appears as a word
nowhere outside its own definition(s) in the repository's code (src,
tests, benchmarks, examples, perfbench) or README.md.  The check covers
public names and private *methods*; private module-level helpers are
left to the linter.  Dunders and the ``visit_*`` methods of
``ast.NodeVisitor`` subclasses are reached by name lookup, so they are
exempt.  Delete a dead definition, or give it a caller.

The knob surface is held the same way: ``SystemConfig`` fields and the
distinct ``REPRO_*`` environment variables ``src/repro`` reads may not
grow past their ceilings below.  Raising a ceiling is a deliberate edit
that names the new knob and its caller in CHANGES.md.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
ENV_VAR = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*")

#: Knob-surface ceilings (see the module docstring).
MAX_CONFIG_FIELDS = 35
MAX_ENV_VARS = 5


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for d in CORPUS_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            counts.update(WORD.findall(path.read_text(encoding="utf-8")))
    counts.update(WORD.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    return counts


def _base_names(cls: ast.ClassDef) -> set[str]:
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Attribute):
            names.add(base.attr)
        elif isinstance(base, ast.Name):
            names.add(base.id)
    return names


def _definitions() -> list[tuple[str, int, str, str, bool]]:
    """``(path, line, owner class, name, is_method)`` for every class and
    function in ``src/repro``, plus the ``NodeVisitor`` subclasses."""
    defs = []
    bases: dict[str, set[str]] = {}

    def walk(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = _base_names(child)
                defs.append((path, child.lineno, owner, child.name, False))
                walk(child, path, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                is_method = isinstance(node, ast.ClassDef)
                defs.append((path, child.lineno, owner, child.name, is_method))
                walk(child, path, owner)
            else:
                walk(child, path, owner)

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")

    visitors = {"NodeVisitor"}
    grew = True
    while grew:
        found = {name for name, b in bases.items() if b & visitors}
        grew = not found <= visitors
        visitors |= found
    return [
        d for d in defs
        if not (d[4] and d[3].startswith("visit_") and d[2] in visitors)
    ]


def test_no_unreferenced_definitions():
    counts = _word_counts()
    defs = _definitions()
    n_defs = Counter(name for _, _, _, name, _ in defs)
    dead = []
    for path, line, owner, name, is_method in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if name.startswith("_") and not is_method:
            continue
        if counts[name] <= n_defs[name]:
            qual = f"{owner}.{name}" if owner else name
            dead.append(f"{path.relative_to(ROOT)}:{line} {qual}")
    assert not dead, "unreferenced definitions:\n" + "\n".join(dead)


def test_knob_surface_does_not_grow():
    from repro.config import SystemConfig

    fields = [f.name for f in dataclasses.fields(SystemConfig)]
    assert len(fields) <= MAX_CONFIG_FIELDS, (
        f"SystemConfig has {len(fields)} fields (ceiling "
        f"{MAX_CONFIG_FIELDS}): {fields}"
    )
    env_vars = sorted(
        {
            name
            for path in (ROOT / "src" / "repro").rglob("*.py")
            for name in ENV_VAR.findall(path.read_text(encoding="utf-8"))
        }
    )
    assert len(env_vars) <= MAX_ENV_VARS, (
        f"src/repro reads {len(env_vars)} REPRO_* variables (ceiling "
        f"{MAX_ENV_VARS}): {env_vars}"
    )
