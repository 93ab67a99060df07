"""Every module-level function and class in src/walkforge is used by src/.

A name referenced only by its own definition is code that ships for the
tests alone (or for nobody); delete it, or move it into the tests that
need it. Should a name ever be called only from outside src/, such as a
console-script entry point, allow-list it here with that caller.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "walkforge"

# name -> the caller outside src/ that justifies it
ALLOWED: dict[str, str] = {}


def names_used(node):
    """Every identifier that node loads, by bare name or as an attribute."""
    used = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.append(sub.attr)
    return used


def test_every_module_level_definition_is_used_in_src():
    definitions = []
    uses: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in names_used(tree):
            uses[name] = uses.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.name, node))
    assert definitions

    unused = []
    for filename, node in definitions:
        own = names_used(node).count(node.name)  # recursion is not a use
        if uses.get(node.name, 0) - own == 0 and node.name not in ALLOWED:
            unused.append(f"{filename}:{node.lineno} {node.name}")
    assert not unused, "defined in src/ but used by nothing there:\n" + "\n".join(unused)
