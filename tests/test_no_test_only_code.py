"""Every module-level function and class in src/walkforge, and every
public method and property of its classes, is used by src/.

A name referenced only by its own definition is code that ships for the
tests alone (or for nobody); delete it, or move it into the tests that
need it. Should a name ever be called only from outside src/, such as a
console-script entry point, allow-list it here with that caller.

The check is by name: a method counts as used when any identifier or
attribute of the same name is loaded anywhere in src/.
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


def scan_src():
    """Module-level defs and classes, public methods of those classes (each
    as (where, node)), and how often each name is loaded anywhere in src/."""
    top, methods = [], []
    uses: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in names_used(tree):
            uses[name] = uses.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top.append((path.name, node))
            if isinstance(node, ast.ClassDef):
                methods += [(f"{path.name}:{node.name}", member) for member in node.body
                            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not member.name.startswith("_")]
    return top, methods, uses


def assert_all_used(definitions, uses):
    assert definitions
    unused = []
    for where, node in definitions:
        own = names_used(node).count(node.name)  # recursion is not a use
        if uses.get(node.name, 0) - own == 0 and node.name not in ALLOWED:
            unused.append(f"{where}:{node.lineno} {node.name}")
    assert not unused, "defined in src/ but used by nothing there:\n" + "\n".join(unused)


def test_every_module_level_definition_is_used_in_src():
    top, _, uses = scan_src()
    assert_all_used(top, uses)


def test_every_public_method_and_property_is_used_in_src():
    _, methods, uses = scan_src()
    assert_all_used(methods, uses)
