"""Static checks on the package source."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "swingkit"
MODULES = ["__init__.py", "cli.py", "duality.py", "models.py", "oracle.py", "policy.py",
           "solver.py", "stopping.py"]


def src_trees() -> dict:
    """{file name: parsed module} of the package source. Asserts that all of
    its modules were found, so that no scan passes on an empty directory."""
    paths = sorted(SRC.glob("*.py"))
    assert [path.name for path in paths] == MODULES
    return {path.name: ast.parse(path.read_text()) for path in paths}


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
    unread = ["%s:%d %s(%s)" % (name, line, func, param) for name, tree in src_trees().items()
              for func, line, param in unread_parameters(tree)]
    assert unread == []


def _annotation_name(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def lattice_carriers(trees):
    """Names of the classes that declare a `lattice` field."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and item.target.id == "lattice" for item in node.body)}


def second_lattice_copies(tree, carriers):
    """(function name, line) for each function that takes a `lattice`
    parameter beside a parameter annotated as a carrier, and for each method
    of a carrier that takes one. PathEnsemble.check_lattice, whose job is
    that comparison, is allowed."""
    owner = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if "lattice" not in [a.arg for a in args]:
            continue
        cls = owner.get(node)
        carried = any(_annotation_name(a.annotation) in carriers for a in args)
        if (carried or cls in carriers) and (cls, node.name) != ("PathEnsemble", "check_lattice"):
            yield node.name, node.lineno


def test_the_scanner_flags_a_second_lattice_copy():
    tree = ast.parse("class Env:\n    lattice: object\n"
                     "    def check(self, lattice):\n        pass\n"
                     "class PathEnsemble:\n    lattice: object\n"
                     "    def check_lattice(self, lattice):\n        pass\n"
                     "class Plain:\n    def m(self, lattice):\n        pass\n"
                     "def f(env: 'Env', lattice):\n    pass\n"
                     "def g(env: Env, k):\n    pass\n"
                     "def h(plain: Plain, lattice):\n    pass\n")
    carriers = lattice_carriers([tree])
    assert carriers == {"Env", "PathEnsemble"}
    assert sorted(second_lattice_copies(tree, carriers)) == [("check", 3), ("f", 12)]


def test_no_function_takes_a_second_copy_of_a_carried_lattice():
    trees = src_trees()
    carriers = lattice_carriers(trees.values())
    assert {"ValueField", "PathEnsemble", "Envelope", "MartingaleField",
            "StoppingRule"} <= carriers
    found = ["%s:%d %s" % (name, line, func) for name, tree in trees.items()
             for func, line in second_lattice_copies(tree, carriers)]
    assert found == []


def dataclass_items(tree):
    """(class name, AnnAssign) for each field a @dataclass class declares."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                _annotation_name(getattr(d, "func", d)) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item


def dataclass_fields(tree):
    """(class name, line, field) for each field a @dataclass class declares."""
    for cls, item in dataclass_items(tree):
        yield cls, item.lineno, item.target.id


def attribute_loads(trees):
    """Every attribute name read as `obj.name` in the trees."""
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_the_scanner_flags_an_unread_dataclass_field():
    tree = ast.parse("@dataclass\nclass A:\n    a: int\n    b: int = 0\n"
                     "@dataclasses.dataclass(eq=False)\nclass B:\n    c: int\n"
                     "class C:\n    d: int\n"
                     "def f(a, b):\n    a.b = a.c\n    return b.a\n")
    loads = attribute_loads([tree])
    assert loads == {"a", "c", "dataclass"}
    assert [(cls, name) for cls, _, name in dataclass_fields(tree)
            if name not in loads] == [("A", "b")]


def test_every_dataclass_field_is_read():
    """A field that no code in src/, tests/ or bench/ reads is dead state."""
    trees = src_trees()
    loads = attribute_loads(list(trees.values()) + [
        ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))
        + sorted((ROOT / "bench").glob("*.py"))])
    unread = ["%s:%d %s.%s" % (file, line, cls, name) for file, tree in trees.items()
              for cls, line, name in dataclass_fields(tree) if name not in loads]
    assert unread == []


def test_only_the_cli_branches_on_an_exhaustive_ensemble():
    """The stopping search reads the policy on the tree's nodes and the
    rollout copies no ensemble flag, so no layer below the command line asks
    whether an ensemble enumerates every path."""
    readers = [name for name, tree in src_trees().items()
               if "exhaustive" in attribute_loads([tree])]
    assert readers == ["cli.py"]


def class_methods(tree):
    """(class name, line, method) for each method a class body defines,
    other than the dunder methods that Python itself calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.lineno, item.name


# Public entry points that only users of the package (or the standard
# library) call, each with its reason. A method name that one class defines
# is matched by name alone, so such an entry stays listed when an unrelated
# attribute of the same name is read; a name that several classes define is
# credited to a class through its receiver (see resolved_loads).
USER_ENTRY_POINTS = {
    ("ScenarioLattice", "from_rows"): "builds a lattice from LatticeNode rows in user code",
    ("Envelope", "accumulate"): "the martingale part along the paths of a user's ensemble",
    ("ValueField", "dplus"): "the right volume quotients of a slice, the paper's D+J",
    ("PathEnsemble", "validate"): "checks a path ensemble that a user built",
    ("StoppingRule", "check_predictable"): "checks that a user's stopping rule decides a step ahead",
    ("_Parser", "error"): "argparse calls it on a bad command line",
}


def uncalled_methods(trees, loads):
    """(class name, line, method) for each method of the trees that no entry
    of loads calls: an entry is a method name, read on any receiver, or a
    (class name, method) pair, read on a receiver of that class."""
    return [(cls, line, name) for tree in trees for cls, line, name in class_methods(tree)
            if name not in loads and (cls, name) not in loads]


def _scopes(tree):
    """(statements, owner class or None) of each top-level function, each
    method and the rest of the module; a nested function belongs to the
    scope it is defined in."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    rest = []
    for node in tree.body:
        if isinstance(node, funcs):
            yield [node], None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs):
                    yield [item], node.name
                else:
                    rest.append(item)
        else:
            rest.append(node)
    yield rest, None


_NONE = object()        # a binding to None, which leaves a name's class open


def _name_classes(stmts, owner, classes):
    """{name: class name, or None when unresolved} of the names bound in a
    scope. A name resolves when every binding agrees: self of a method, a
    parameter annotated with a class, or an assignment of a call of a class
    (a binding to None is passed over)."""
    def value_class(value):
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) in classes:
            return value.func.id
        if isinstance(value, ast.Constant) and value.value is None:
            return _NONE
        return None

    assigned, seen = {}, {}
    for node in (n for stmt in stmts for n in ast.walk(stmt)):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned[target] = value_class(node.value)
                elif (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                      and len(target.elts) == len(node.value.elts)):
                    assigned.update((t, value_class(v))
                                    for t, v in zip(target.elts, node.value.elts))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for i, arg in enumerate(params + [a for a in (args.vararg, args.kwarg) if a]):
                name = _annotation_name(arg.annotation) if arg.annotation else None
                if owner is not None and node is stmts[0] and i == 0 and arg.arg == "self":
                    name = owner
                seen.setdefault(arg.arg, set()).add(name if name in classes else None)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            seen.setdefault(node.id, set()).add(assigned.get(node))
    return {name: next(iter(found)) if len(found) == 1 else None
            for name, found in ((name, found - {_NONE}) for name, found in seen.items())}


def resolved_loads(defining, callers):
    """The loads of callers as uncalled_methods reads them. A load `x.m` of
    a method name m that several classes of the defining trees define is
    the pair (class, m) when x resolves to the class: self in its method, a
    call of the class, a name bound from such a call, or a parameter or
    dataclass field annotated with the class. Any other load is its name."""
    classes = {node.name for tree in defining for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    owners = {}
    for tree in defining:
        for cls, _, name in class_methods(tree):
            owners.setdefault(name, set()).add(cls)
    field_types = {}
    for tree in defining:
        for _, item in dataclass_items(tree):
            field_types.setdefault(item.target.id, set()).add(_annotation_name(item.annotation))
    fields = {name: types.pop() for name, types in field_types.items()
              if len(types) == 1 and types <= classes}
    loads = set()
    for tree in callers:
        for stmts, owner in _scopes(tree):
            names = _name_classes(stmts, owner, classes)
            for n in (n for stmt in stmts for n in ast.walk(stmt)):
                if not (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)):
                    continue
                x = n.value
                if isinstance(x, ast.Name):
                    cls = names.get(x.id)
                elif isinstance(x, ast.Call):
                    cls = getattr(x.func, "id", None)
                elif isinstance(x, ast.Attribute):
                    cls = fields.get(x.attr)
                else:
                    cls = None
                shared = len(owners.get(n.attr, ())) > 1
                loads.add((cls, n.attr) if shared and cls in classes else n.attr)
    return loads


def test_the_scanner_flags_an_uncalled_method():
    tree = ast.parse("class A:\n    def __init__(self):\n        self.used()\n"
                     "    def used(self):\n        pass\n"
                     "    @property\n    def size(self):\n        return 0\n"
                     "    def idle(self):\n        pass\n"
                     "class B:\n    def read(self):\n        pass\n"
                     "def f(b):\n    return b.read, A().size\n")
    other = ast.parse("def g(a):\n    a.idle()\n")
    assert uncalled_methods([tree], attribute_loads([tree])) == [("A", 9, "idle")]
    assert uncalled_methods([tree], attribute_loads([tree, other])) == []


def test_the_scanner_resolves_the_receiver_of_a_shared_method_name():
    """A dead B.read is flagged beside the called A.read, C.read, D.read and
    E.read, which a name match alone hides; a shared name read on an
    unresolved receiver credits every class that defines it."""
    tree = ast.parse("class A:\n    def read(self):\n        pass\n"
                     "    def size(self):\n        return self.read()\n"
                     "class B:\n    def read(self):\n        pass\n"
                     "    def size(self):\n        pass\n"
                     "class C:\n    def read(self):\n        pass\n"
                     "class D:\n    def read(self):\n        pass\n"
                     "class E:\n    def read(self):\n        pass\n"
                     "@dataclass\nclass Box:\n    e: E\n"
                     "def f(c: C, box: 'Box', other):\n"
                     "    d, n = D(), None\n    n = D()\n"
                     "    return (c.read(), d.read(), n.read(), box.e.read(), A().read,\n"
                     "            other.size)\n")
    assert uncalled_methods([tree], resolved_loads([tree], [tree])) == [("B", 7, "read")]
    assert uncalled_methods([tree], attribute_loads([tree])) == []
    # bindings of two classes leave x unresolved
    other = ast.parse("def g(x):\n    x = D()\n    x = B()\n    return x.read, x.size\n")
    assert uncalled_methods([tree], resolved_loads([tree], [other])) == []


def test_every_method_has_a_caller():
    """A method that no code in src/ or bench/ calls is dead code, unless it
    is a listed entry point for users."""
    trees = list(src_trees().values())
    loads = resolved_loads(trees, trees + [ast.parse(path.read_text())
                                           for path in sorted((ROOT / "bench").glob("*.py"))])
    uncalled = {(cls, name) for cls, _, name in uncalled_methods(trees, loads)}
    assert sorted(uncalled - USER_ENTRY_POINTS.keys()) == []
    defined = {(cls, name) for tree in trees for cls, _, name in class_methods(tree)}
    assert USER_ENTRY_POINTS.keys() <= defined


def module_helpers(tree):
    """(line, name) for each private function or class defined at module
    level."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            yield node.lineno, node.name


def name_loads(trees):
    """Every name read as `name` or as `obj.name` in the trees (a list)."""
    return attribute_loads(trees) | {n.id for tree in trees for n in ast.walk(tree)
                                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_the_scanner_flags_an_unloaded_private_helper():
    tree = ast.parse("def _used():\n    pass\n"
                     "def _idle():\n    pass\n"
                     "class _Idle:\n    pass\n"
                     "def public():\n    return _used()\n"
                     "def __getattr__(name):\n    return name\n"
                     "class C:\n    def _method(self):\n        pass\n")
    other = ast.parse("from . import m\nm._idle()\n")
    assert [h for h in module_helpers(tree) if h[1] not in name_loads([tree])] == [
        (3, "_idle"), (5, "_Idle")]
    assert [h for h in module_helpers(tree) if h[1] not in name_loads([tree, other])] == [
        (5, "_Idle")]


def test_every_private_helper_has_a_caller():
    """A module-level _helper that no code in src/ loads is dead code."""
    trees = src_trees()
    loads = name_loads(trees.values())
    unloaded = ["%s:%d %s" % (name, line, helper) for name, tree in trees.items()
                for line, helper in module_helpers(tree) if helper not in loads]
    assert unloaded == []


def dataclass_parameters(tree):
    """{class name: [(field, line, has a default)]} of the constructor parameters
    of each @dataclass class: its fields, in order, less those declared with
    init=False."""
    params = {}
    for cls, item in dataclass_items(tree):
        value = item.value
        call = isinstance(value, ast.Call) and _annotation_name(value.func) in (
            "field", "dataclass_field")
        opts = {kw.arg: kw.value for kw in value.keywords} if call else {}
        if getattr(opts.get("init"), "value", True) is not False:
            defaulted = (("default" in opts or "default_factory" in opts) if call
                         else value is not None)
            params.setdefault(cls, []).append((item.target.id, item.lineno, defaulted))
    return params


def defaulted_parameters(tree):
    """(function name, line, parameter, positional parameters) for each
    parameter with a default. A class's __init__ goes by the class name, and
    the positional parameters of a method leave out self or cls. The fields
    of a @dataclass are the parameters of its class's constructor, in order,
    leaving out those declared with init=False."""
    for cls, fields in dataclass_parameters(tree).items():
        names = [name for name, _, _ in fields]
        for name, line, defaulted in fields:
            if defaulted:
                yield cls, line, name, names
    owner = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        bound = node in owner and positional[:1] in (["self"], ["cls"])
        name = owner[node] if node.name == "__init__" and node in owner else node.name
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for param in defaulted:
            yield name, node.lineno, param, positional[bound:]


def set_arguments(trees):
    """(called name, parameter name or position) for each argument a call
    passes, matched by the called name only; a starred argument at position
    i is recorded as "*i". A **mapping sets nothing the scan can see."""
    out = set()
    for n in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(n.func, "id", getattr(n.func, "attr", None))
        out |= {(name, kw.arg) for kw in n.keywords if kw.arg}
        out |= {(name, "*%d" % i if isinstance(a, ast.Starred) else i)
                for i, a in enumerate(n.args)}
    return out


def unset_knobs(trees):
    """(function name, line, parameter) for each defaulted parameter that no
    call in the trees sets by keyword or by position."""
    calls = set_arguments(trees)
    for tree in trees:
        for name, line, param, positional in defaulted_parameters(tree):
            i = positional.index(param) if param in positional else None
            if (name, param) in calls or i is not None and (
                    (name, i) in calls or any((name, "*%d" % j) in calls for j in range(i + 1))):
                continue
            yield name, line, param


def test_the_scanner_flags_an_unset_knob():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                     "def g(a, b=1, c=2):\n    pass\n"
                     "class C:\n    def __init__(self, a, b=1):\n        pass\n"
                     "    def m(self, a=1, b=2):\n        pass\n"
                     "f(0, 1, e=5)\ng(*xs)\nC(0, 2)\nC(0).m(b=3)\nf(**opts)\n")
    assert sorted(unset_knobs([tree])) == [("f", 1, "c"), ("f", 1, "d"), ("m", 8, "a")]


def test_the_scanner_reads_a_dataclass_default_as_a_knob():
    tree = ast.parse("@dataclass(eq=False)\nclass A:\n    a: int\n"
                     "    f: list = field(repr=False)\n    b: int = 1\n    c: int = 2\n"
                     "    d: list = dataclasses.field(default_factory=list)\n"
                     "    e: list = field(init=False)\n    g: int = field(default=0)\n"
                     "class B:\n    h: int = 3\n"
                     "A(0, [], 1)\nA(0, [], d=[])\n")
    assert sorted(unset_knobs([tree])) == [("A", 6, "c"), ("A", 9, "g")]


# Defaulted parameters that no src/ call sets, each with its reason.
USER_KNOBS = {
    ("from_rows", "lce_declared"): "a user's lattice declares LCE or not",
    ("build_binomial", "lce_declared"): "a user's binomial declares LCE or not",
    ("main", "argv"): "tests and embedding programs pass a command line",
    ("brute_force_value", "start"): "the oracle prices any start, not only (0, 0)",
    ("brute_force_value", "max_policies"): "a user may enumerate past the default limit",
    ("closed_form", "c"): "the cashflow of the constant family",
    ("doob_martingale_of_terminal", "label"): "names a user's martingale in reports",
    ("dual_value", "primal"): "bounds a user's martingale without a primal; gap reads NaN",
    ("exercise_regions", "tie_tol"): "matches a policy extracted with another tie_tol",
    ("LatticeNode", "children"): "a hand-built terminal node has no children",
    ("LatticeNode", "probs"): "nor transition probabilities",
}


def test_every_knob_is_set_somewhere():
    """A defaulted parameter that no src/ call sets is a knob nobody turns,
    unless it is listed for users with its reason."""
    trees = list(src_trees().values())
    unset = {(name, param) for name, _, param in unset_knobs(trees)}
    assert sorted(unset - USER_KNOBS.keys()) == []
    assert sorted(USER_KNOBS.keys() - unset) == []


def verify_line_names(tree):
    """The names of the run("...") calls in cli._verify_checks, in order."""
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_verify_checks")
    return [call.args[0].value for call in ast.walk(func)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "run"]


def test_verify_lines_match_the_benchmark_checks():
    """The report lines of verify are the VERIFY_CHECKS of bench/workloads.py,
    in order, read without importing bench/: a renamed or dropped line fails
    here, not only in the benchmark's output check."""
    bench = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    checks = next(ast.literal_eval(node.value) for node in bench.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_CHECKS"])
    assert verify_line_names(src_trees()["cli.py"]) == list(checks)


# numpy functions that may hand a sum of products to BLAS, whose summation
# order depends on the CPU kernel and the operand's stride
BLAS_FUNCTIONS = {"dot", "inner", "vdot", "matmul", "einsum", "tensordot"}


def blas_reductions(tree):
    """(line, operation) for each `@`, each `.dot(` call and each call of a
    BLAS_FUNCTIONS name on np or numpy."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, owner = node.func.attr, node.func.value
            if name == "dot" or (name in BLAS_FUNCTIONS and isinstance(owner, ast.Name)
                                 and owner.id in ("np", "numpy")):
                yield node.lineno, name


def test_the_scanner_flags_a_blas_reduction():
    tree = ast.parse("a @ b\nc @= d\nnp.dot(a, b)\nx.dot(y)\nnumpy.einsum('i,i', a, b)\n"
                     "np.inner(a, b)\nnp.vdot(a, b)\nnp.matmul(a, b)\nnp.tensordot(a, b)\n"
                     "np.sum(a * b)\nmath.fsum(a)\nm.inner(a)\n_wsum(a, b)\n"
                     "@dataclass\nclass C:\n    pass\n")
    assert sorted(blas_reductions(tree)) == [
        (1, "@"), (2, "@"), (3, "dot"), (4, "dot"), (5, "einsum"), (6, "inner"), (7, "vdot"),
        (8, "matmul"), (9, "tensordot")]


def test_no_blas_reduction_is_left_in_src():
    """Every weighted sum goes through models._wsum, whose bits depend on no
    BLAS kernel, SIMD path or memory layout."""
    found = ["%s:%d %s" % (name, line, op) for name, tree in src_trees().items()
             for line, op in blas_reductions(tree)]
    assert found == []
