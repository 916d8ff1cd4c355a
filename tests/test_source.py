import ast
import pathlib
import re

import unitarizer

SRC = pathlib.Path(unitarizer.__file__).parent


def test_every_module_constant_is_read_in_the_package():
    # A tolerance or limit that no code reads documents a check that does
    # not exist.
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{module}.{target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", target.id)
        and target.id not in read
    ]
    assert unread == []


def test_json_is_written_by_the_c_encoder():
    # json.dump, and indent= on any JSON writer, run the pure-Python encoder.
    slow = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if ast.unparse(node.func) == "json.dump" or (
                node.func.attr in ("dumps", "JSONEncoder")
                and any(k.arg == "indent" for k in node.keywords)
            ):
                slow.append(f"{p.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert slow == []


def test_input_files_are_parsed_only_by_the_reader():
    # json.load and json.loads run on input files only inside serialization's
    # reader: read_json, which parses the bytes it read around a composition
    # span and hands every other file to load_json, and the read-back of a
    # span.  Nothing else in the package calls load_json, so no loader can
    # bypass the reader.
    allowed = {
        ("serialization", "load_json", "json.load"),
        ("serialization", "read_json", "json.loads"),
        ("serialization", "read_json", "load_json"),
        ("serialization", "CompositionSpan.as_list", "json.loads"),
    }
    readers = {"json.load", "json.loads", "load_json", "serialization.load_json"}
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) in readers:
                found.add((module, ".".join(scope), ast.unparse(child.func)))
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                found.add((module, ".".join(scope), "from json import"))
            visit(child, module, scope)

    for p in sorted(SRC.glob("*.py")):
        visit(ast.parse(p.read_text()), p.stem, [])
    assert found == allowed


def test_no_handler_sets_state_on_the_exception_it_caught():
    # An error is its type and message; a flag set on a caught exception for
    # a caller to read back is state that its raise site does not show.
    found = []
    for p in sorted(SRC.glob("*.py")):
        for handler in ast.walk(ast.parse(p.read_text())):
            if not (isinstance(handler, ast.ExceptHandler) and handler.name):
                continue
            for node in ast.walk(handler):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    owner = node.value
                elif isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr":
                    owner = node.args[0] if node.args else None
                else:
                    continue
                if isinstance(owner, ast.Name) and owner.id == handler.name:
                    found.append(f"{p.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_arrow_matrices_are_read_from_the_one_stack():
    # A representation's ``rho`` is read only by ``Representation.mats``,
    # which _stacked checks once; every other reader takes that stack.
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "rho"
                    and isinstance(child.ctx, ast.Load)):
                found.add((module, ".".join(scope)))
            visit(child, module, scope)

    for p in sorted(SRC.glob("*.py")):
        visit(ast.parse(p.read_text()), p.stem, [])
    assert found == {("representation", "Representation.mats")}


def test_certificates_are_decided_behind_circumcenter():
    # The chart kernel and the dual are read only by geometry and
    # circumcenter, and every result is built by circumcenter.result, so a
    # certificate is bound(chart, weights) on every path.
    kernels = {"chart", "_tangent", "_meb", "_dual_gap"}
    found, built = set(), set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Name) and child.id in kernels:
                found.add((module, child.id))
            elif isinstance(child, ast.Attribute) and child.attr in kernels:
                found.add((module, child.attr))
            elif isinstance(child, ast.ImportFrom):
                found.update((module, a.name) for a in child.names if a.name in kernels)
            elif isinstance(child, ast.Call) and ast.unparse(child.func).endswith(
                "CircumcenterResult"
            ):
                built.add((module, ".".join(scope)))
            visit(child, module, scope)

    for p in sorted(SRC.glob("*.py")):
        visit(ast.parse(p.read_text()), p.stem, [])
    assert {module for module, _ in found} == {"geometry", "circumcenter"}
    assert built == {("circumcenter", "result")}


def test_no_module_keeps_a_second_copy_of_the_pairs():
    # The composite table is a groupoid's one store of its composition;
    # its rows, in (h, g) order, are read through groupoid's methods.  No
    # module stores or reads the input triples as ``_pairs``.
    found = [
        f"{p.name}:{node.lineno}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_pairs"
    ]
    assert found == []
