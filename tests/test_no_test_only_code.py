"""Every module-level function and class in src/walkforge, and every
public method and property of its classes, is used by src/, and every
parameter with a default is passed by some call in src/.

A name referenced only by its own definition is code that ships for the
tests alone (or for nobody); delete it, or move it into the tests that
need it. A default that no call overrides is a constant. Should a name or
a parameter ever be used only from outside src/, such as a console-script
entry point, allow-list it here with that caller.

The checks are by name: a method counts as used when any identifier or
attribute of the same name is loaded anywhere in src/, and a parameter as
passed when any call of a function of the same name passes it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "walkforge"

# name, or function(parameter), -> the caller outside src/ that justifies it
ALLOWED: dict[str, str] = {"main(argv)": "perfbench/child.py runs cli.main(argv) in-process"}


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


def defaulted_parameters():
    """(where, function name, parameter, position) for every parameter with
    a default of every function in src/; position counts the arguments a
    call passes, so a method's self is not counted, and keyword-only
    parameters have none."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(member) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for member in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if id(node) in methods else 0
            for pos, arg in enumerate(positional):
                if pos >= len(positional) - len(args.defaults):
                    found.append((f"{path.name}:{node.lineno}", node.name, arg.arg, pos - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((f"{path.name}:{node.lineno}", node.name, arg.arg, None))
    return found


def calls_by_name():
    """Every call in src/, keyed by the called name: bare or attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, parameter, position):
    """Whether call passes the parameter, by keyword or by position; a
    *args or **kwargs argument may pass anything."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg == parameter:
            return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_some_src_call():
    # a default no call in src/ overrides is a constant that tests alone vary
    params = defaulted_parameters()
    assert params
    calls = calls_by_name()
    unpassed = [f"{where} {name}({parameter})" for where, name, parameter, position in params
                if f"{name}({parameter})" not in ALLOWED
                and not any(passes(call, parameter, position) for call in calls.get(name, []))]
    assert not unpassed, "parameter passed by no call in src/:\n" + "\n".join(unpassed)
