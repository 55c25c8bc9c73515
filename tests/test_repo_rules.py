"""Static rules on the source tree: the package imports only numpy and the
standard library, every top-level function and class is referenced, every
public autodiff function has a caller in the package, and the counts of
settable values stay within their bounds."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recflow"

# parameter defaults and dataclass fields (see test_settable_values_...);
# a new knob has to replace an old one, so lower these, never raise them
MAX_PARAM_DEFAULTS = 76
MAX_DATACLASS_FIELDS = 123


def package_modules():
    return sorted(PACKAGE.glob("*.py"))


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    bad = []
    for path in package_modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import stays inside the package
                continue
            bad += [f"{path}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in allowed]
    assert not bad, ("imports outside numpy and the standard library:\n"
                     + "\n".join(bad))


def test_every_top_level_function_and_class_is_referenced():
    # a name with no whole-word mention outside its own def/class line in
    # src/, tests/ or bench/ is dead code
    lines = [(path, n, line) for root in ("src", "tests", "bench")
             for path in sorted((ROOT / root).rglob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)]
    dead = []
    for path in package_modules():
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for p, n, line in lines
                       if (p, n) != (path, node.lineno)):
                dead.append(f"{path}:{node.lineno}: {node.name}")
    assert not dead, ("top-level functions and classes nothing references:\n"
                      + "\n".join(dead))


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    # the engine keeps only what recflow differentiates: each public
    # top-level function and class of autodiff.py needs an AST reference (a
    # name, an attribute or an imported name) from a module of the package;
    # strings, comments and tests do not count
    engine = PACKAGE / "autodiff.py"
    public = [(node.name, node.lineno)
              for node in ast.parse(engine.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    used = set()
    for path in package_modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [f"{engine}:{line}: {name}" for name, line in public
              if name not in used]
    assert not unused, ("public autodiff functions and classes that no "
                        "module of the package references:\n"
                        + "\n".join(unused))


def test_settable_values_stay_within_their_counts():
    # parameter defaults of public functions, public methods and the
    # __init__ of public classes, plus fields of @dataclass classes
    def defaults(fn):
        a = fn.args
        return len(a.defaults) + sum(d is not None for d in a.kw_defaults)

    def is_dataclass(cls):  # @dataclass, @dataclass(...) or dotted
        return any(ast.unparse(d).split("(")[0].endswith("dataclass")
                   for d in cls.decorator_list)

    params = fields = 0
    for path in package_modules():
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    params += defaults(node)
            elif isinstance(node, ast.ClassDef):
                if is_dataclass(node):
                    fields += sum(isinstance(s, ast.AnnAssign)
                                  for s in node.body)
                if not node.name.startswith("_"):
                    params += sum(
                        defaults(s) for s in node.body
                        if isinstance(s, ast.FunctionDef)
                        and (not s.name.startswith("_")
                             or s.name == "__init__"))
    assert params <= MAX_PARAM_DEFAULTS, (
        f"{params} parameter defaults, more than {MAX_PARAM_DEFAULTS}")
    assert fields <= MAX_DATACLASS_FIELDS, (
        f"{fields} dataclass fields, more than {MAX_DATACLASS_FIELDS}")
