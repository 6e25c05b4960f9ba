"""Static checks on the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "swingkit"


def unread_parameters(tree):
    """(function name, line, parameter) for each parameter, other than self
    and cls, that the function's body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in params:
            if name not in ("self", "cls") and name not in read:
                yield getattr(node, "name", "<lambda>"), node.lineno, name


def test_the_scanner_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d=1):\n    return a + d\n"
                     "g = lambda x, y: x\n"
                     "class C:\n    def m(self, z):\n        return 0\n")
    assert sorted(unread_parameters(tree)) == [("<lambda>", 3, "y"), ("f", 1, "b"),
                                               ("f", 1, "c"), ("m", 5, "z")]


def test_every_parameter_is_read():
    unread = ["%s:%d %s(%s)" % (path.name, line, func, name)
              for path in sorted(SRC.glob("*.py"))
              for func, line, name in unread_parameters(ast.parse(path.read_text()))]
    assert unread == []
