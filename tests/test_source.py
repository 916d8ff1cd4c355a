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
