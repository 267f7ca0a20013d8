"""The public surface of the package, checked by reading its source.

Every name a module lists in ``__all__`` is defined in that module and has
a caller in the program: the package itself (outside the name's own
definition and the ``__all__`` list), the demos, the benchmark or the
acceptance tests.  So does every method and property of a public class,
read as an attribute anywhere in those files.  A name kept for another
reason says why in a docstring line that begins ``Kept:``.  Every private
module-level name is read in the package outside its own definition.
README's layout table lists each module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parhiggs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLER_FILES = (sorted((ROOT / "demos").glob("*.py"))
                + sorted((ROOT / "perfbench").glob("*.py"))
                + [ROOT / "tests" / "test_acceptance.py"])


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all_node(tree: ast.Module) -> ast.Assign | None:
    return next((node for node in tree.body if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)), None)


def _public_names(tree: ast.Module) -> list[str]:
    node = _all_node(tree)
    return [] if node is None else [ast.literal_eval(e) for e in node.value.elts]


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = node
    return out


def _referenced(tree: ast.AST, skip: tuple[ast.AST, ...] = ()) -> set[str]:
    """Names and attribute names used in tree, and names imported from a
    module, outside the nodes in skip."""
    seen: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            seen.update(a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return seen


def _kept(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return False
    doc = ast.get_docstring(node) or ""
    return any(line.strip().startswith("Kept:") for line in doc.splitlines())


def _attributes(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Attribute names read in tree, outside the node skip."""
    seen: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            seen.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return seen


TREES = {p.stem: _parse(p) for p in MODULES}
OUTSIDE = set().union(*(_referenced(_parse(p)) for p in CALLER_FILES))
SURFACE = [(mod, name) for mod, tree in TREES.items() for name in _public_names(tree)]
MEMBERS = [(mod, cls.name, fn) for mod, tree in TREES.items()
           for cls in map(_definitions(tree).get, _public_names(tree))
           if isinstance(cls, ast.ClassDef)
           for fn in cls.body if isinstance(fn, ast.FunctionDef)
           and not (fn.name.startswith("__") and fn.name.endswith("__"))]
CALLER_TREES = list(TREES.values()) + [_parse(p) for p in CALLER_FILES]


def test_every_module_has_a_public_surface():
    assert [mod for mod, tree in TREES.items() if not _public_names(tree)] == []


@pytest.mark.parametrize("mod,name", SURFACE, ids=[f"{m}.{n}" for m, n in SURFACE])
def test_public_name_is_defined_and_has_a_caller(mod, name):
    defs = _definitions(TREES[mod])
    assert name in defs, f"{mod}.__all__ lists {name}, which {mod} does not define"
    if _kept(defs[name]) or name in OUTSIDE:
        return
    for other, tree in TREES.items():
        skip = (_all_node(tree),) + ((defs[name],) if other == mod else ())
        if name in _referenced(tree, skip):
            return
    pytest.fail(f"{mod}.{name} has no caller in the program and no Kept: line")


@pytest.mark.parametrize("mod,cls,fn", MEMBERS,
                         ids=[f"{m}.{c}.{f.name}" for m, c, f in MEMBERS])
def test_public_class_member_has_a_caller(mod, cls, fn):
    """Methods, static methods and properties alike: each is read as an
    attribute (``obj.name``, ``Cls.name``) outside its own definition."""
    if _kept(fn) or any(fn.name in _attributes(t, fn) for t in CALLER_TREES):
        return
    pytest.fail(f"{mod}.{cls}.{fn.name} has no caller in the program "
                "and no Kept: line")


def test_private_module_name_is_read_in_the_package():
    unread = []
    for mod, tree in TREES.items():
        for name, node in _definitions(tree).items():
            if not name.startswith("_") or (name.startswith("__")
                                            and name.endswith("__")):
                continue
            if not any(name in _referenced(other, (node,) if other is tree else ())
                       for other in TREES.values()):
                unread.append(f"{mod}.{name}")
    assert unread == []


def test_readme_layout_table_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"^\| `parhiggs\.(\w+)` \|", table, flags=re.M)
    assert sorted(listed) == [p.stem for p in MODULES]


def test_codec_names_no_other_module_of_the_package():
    """The codec reads and writes every value class from its fields and its
    own ``_json_shape``; it imports only ``exact_core`` from the package and
    looks no module up by name."""
    tree = TREES["codec"]
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"exact_core"}
    assert "sys.modules" not in (PACKAGE / "codec.py").read_text(encoding="utf-8")


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_fractions_from_two_numbers_are_made_only_by_rat():
    """One constructor: a Fraction made from a numerator and a denominator
    (or from unpacked arguments) is made by ``exact_core.rat`` alone, which
    keeps the repeated ones."""
    outside, inside = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        own = set()
        if path.name == "exact_core.py":
            own = {id(node) for node in ast.walk(_definitions(tree)["rat"])}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and _called_name(node.func) == "Fraction"):
                continue
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            if len(node.args) + len(node.keywords) >= 2 or unpacked:
                if id(node) in own:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside == 1


# module.function -> why it may compare a type with int itself
OWN_INT_RULES = {
    "codec._rational": "a JSON reader: it refuses with the key path of "
                       "JsonShapeError, and takes a string too",
    "codec.decoder": "a JSON reader of int tuples, refusing with JsonShapeError",
    "orbifold.laurent_matrix": "an entry's key and its two indices are one "
                               "rule, refused together as entry_out_of_range, "
                               "as stability._arrow_set refuses an arrow",
    "orbifold._is_canonical": "a predicate over a whole term: it refuses "
                              "nothing, and a miss sends the terms to _clean_terms",
    "orbifold._clean_terms": "a term's degree and coefficient are one rule, "
                             "refused together as bad_term",
    "parbun._check_weight": "a weight is a Fraction, an int or a \"p/q\" string",
    "stability._arrow_set": "an arrow's shape and its two ends are one rule, "
                            "refused together as arrow_out_of_range; it runs "
                            "for each arrow of every model built, so inline",
    "vcoh.v_cohomology_ranks": "an ordering pre-check: it refuses a negative "
                               "g or s < 1 only once both are ints",
}


def _is_int_type_test(node: ast.AST) -> bool:
    """``type(x) is int`` or ``type(x) is not int``."""
    return (isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and _called_name(node.left.func) == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(c, ast.Name) and c.id == "int"
                    for c in node.comparators))


def test_the_exact_int_rule_is_written_only_in_exact_core():
    """One owner: outside ``exact_core`` (whose ``exact_int`` every caller
    uses with its own code), a module tests a type against int only in the
    functions listed in OWN_INT_RULES, each of which states its own rule."""
    found = set()
    for mod, tree in TREES.items():
        if mod == "exact_core":
            continue
        for top in tree.body:
            if any(_is_int_type_test(node) for node in ast.walk(top)):
                found.add(f"{mod}.{getattr(top, 'name', top.lineno)}")
    assert found == set(OWN_INT_RULES)


def _text(node: ast.AST) -> str:
    """The literal text of a str constant or an f-string's literal parts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(v) for v in node.values)
    return ""


def _raises_container_code(handler: ast.ExceptHandler) -> bool:
    """Whether the handler raises an error whose first argument, the code,
    ends in _not_sequence or _not_mapping."""
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and node.exc.args
               and _text(node.exc.args[0]).endswith(("_not_sequence",
                                                     "_not_mapping"))
               for node in ast.walk(handler))


def test_the_container_rule_is_written_only_in_exact_core():
    """One owner: outside ``exact_core`` (whose ``read_container`` every
    caller uses with its own code), no ``except`` handler turns a failed
    read into a *_not_sequence or *_not_mapping refusal."""
    found = {f"{mod}.{getattr(top, 'name', top.lineno)}"
             for mod, tree in TREES.items() if mod != "exact_core"
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.ExceptHandler)
             and _raises_container_code(node)}
    assert found == set()


def _is_instance_dict(node: ast.AST) -> bool:
    """``x.__dict__`` or ``vars(x)``."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
        isinstance(node, ast.Call) and _called_name(node.func) == "vars"
        and len(node.args) == 1)


# the dict methods that change the dict they are called on
_DICT_WRITERS = {"update", "setdefault", "pop", "popitem", "clear",
                 "__setitem__", "__delitem__"}


def _writes_a_dict(node: ast.AST) -> bool:
    """An assignment to, or a deletion of, ``x.__dict__`` or one of its
    keys, or a call of a changing method on it (or on ``vars(x)``)."""
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, (ast.Store, ast.Del)) and \
            _is_instance_dict(node.value)
    return (isinstance(node, ast.Attribute) and node.attr in _DICT_WRITERS
            and _is_instance_dict(node.value))


def test_no_module_writes_an_instance_dict():
    """A value keeps its fields where its generated ``__init__`` or
    ``_store`` puts them, by ``object.__setattr__``: writing its dict
    instead gives every value a full dict of its own."""
    found = [f"{mod}:{node.lineno}" for mod, tree in TREES.items()
             for node in ast.walk(tree) if _writes_a_dict(node)]
    assert found == []


def test_only_exact_core_makes_a_value_without_its_builders():
    """Outside ``exact_core``, whose generated ``__init__`` and ``_store``
    make every value, no module reads ``__new__`` (``object.__new__`` or a
    class's own), so a value is always built with a layout the builders
    give it."""
    found = [f"{mod}:{node.lineno}" for mod, tree in TREES.items()
             if mod != "exact_core" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert found == []


def test_only_the_module_that_owns_a_class_stores_it():
    """``X._store`` skips every rule of X, so only the module that owns
    those rules may call it: outside ``exact_core``, which generates
    ``_store``, and ``codec``, which stores any JSON-read class and then
    runs its ``_rules()``, every ``X._store`` names a class defined in the
    same module."""
    found = []
    for mod, tree in TREES.items():
        if mod in ("exact_core", "codec"):
            continue
        classes = {node.name for node in tree.body
                   if isinstance(node, ast.ClassDef)}
        found += [f"{mod}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_store"
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in classes)]
    assert found == []
