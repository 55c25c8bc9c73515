"""Static rules on the source tree: the package imports only numpy and the
standard library, every top-level function and class is referenced, every
public autodiff function has a caller in the package, the only exception
classes are the three categories of errors.py, one step loop and one
snapshot schedule serve every trained model, one run frame in cli.main
serves every command, a run setting has its default only in RunConfig, and
the counts of settable values stay within their bounds."""

import ast
import builtins
import inspect
import pathlib
import re
import sys

from recflow import counterfactual, embeddings, flm, kg, recommender, schema

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recflow"

# parameter defaults and dataclass fields (see test_settable_values_...);
# a new knob has to replace an old one, so lower these, never raise them
MAX_PARAM_DEFAULTS = 44
MAX_DATACLASS_FIELDS = 117


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


def test_the_only_exception_classes_are_the_three_categories():
    # cli.main maps an error to its exit code by category, so a check raises
    # ConfigError, DataError or NumericError with a message that names it,
    # never a class of its own; a chain of subclasses starts with a class
    # whose base is a builtin exception or one of the three
    categories = {"ConfigError", "DataError", "NumericError"}

    def is_exception(base):
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", "")
        value = getattr(builtins, name, None)
        return name in categories or (isinstance(value, type)
                                      and issubclass(value, BaseException))

    found = [(path, node) for path in package_modules()
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ClassDef)
             and any(map(is_exception, node.bases))]
    extra = [f"{path}:{node.lineno}: {node.name}" for path, node in found
             if path.name != "errors.py" or node.name not in categories]
    assert not extra, ("exception classes outside the three categories of "
                       "errors.py:\n" + "\n".join(extra))
    assert sorted(node.name for _, node in found) == sorted(categories)


def call_sites(callee, paths):
    return [f"{path}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and callee in (getattr(node.func, "attr", None),
                           getattr(node.func, "id", None))]


def test_one_function_steps_the_optimizer_and_one_builds_early_stopping():
    # every model trains through recommender.train_steps and selects its
    # snapshot through one schedule, so a change of optimizer or of
    # selection rule has one place to go
    steps = call_sites("optimizer_step", package_modules())
    assert len(steps) == 1, (f"optimizer_step called at {len(steps)} "
                             "sites, not one:\n" + "\n".join(steps))
    stoppers = call_sites("EarlyStopping", package_modules())
    assert len(stoppers) == 1, (f"EarlyStopping built at {len(stoppers)} "
                                "sites, not one:\n" + "\n".join(stoppers))


def test_cli_main_alone_opens_and_closes_a_run():
    # cli.main builds the tracker, loads the workspace and writes the
    # manifest for every command; a handler only does its command's work
    for callee in ("OutputTracker", "load_workspace", "finalize"):
        sites = call_sites(callee, [PACKAGE / "cli.py"])
        assert len(sites) == 1, (f"{callee} called at {len(sites)} sites "
                                 "of cli.py, not one:\n" + "\n".join(sites))


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


def test_run_settings_have_their_default_only_in_runconfig():
    # these parameters carry a run setting whose default lives in RunConfig;
    # a default here could drift from it, so callers pass the run's values.
    # The benchmark's fixed calls rely on three defaults, which stay:
    # RecModel's num_layers, pretrain_recommender's eval_every and patience,
    # and SimulatorBundle.simulate's temperature
    entry_points = {
        flm.pretrain_flm: ("epochs", "batch_size", "lr", "seed"),
        schema.train_schema_classifier: ("lr", "steps", "seed"),
        schema.mine_schemas: ("min_support", "max_len"),
        kg.sample_path: ("hop_limit",),
        kg.validate_flow: ("hop_limit",),
        flm.sample_pseudo_flow: ("hop_limit",),
        flm.generate_flows_batch: ("temperature",),
        counterfactual.reinforce_step: ("temperature",),
        embeddings.init_rgcn_params: ("num_layers", "num_bases"),
        embeddings.rgcn_forward: ("num_layers",),
        recommender.RecModel: ("num_bases", "seed"),
        recommender.pretrain_recommender: ("steps", "batch_size", "lr",
                                           "seed"),
    }
    restated = [f"{fn.__qualname__}({name}={params[name].default!r})"
                for fn, names in entry_points.items()
                for params in [inspect.signature(fn).parameters]
                for name in names
                if params[name].default is not inspect.Parameter.empty]
    assert not restated, ("run settings with a default outside RunConfig:\n"
                          + "\n".join(restated))
    # the two keyword-only entry points take every run setting by name
    for fn in (recommender.RecModel, recommender.pretrain_recommender):
        params = inspect.signature(fn).parameters
        assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY
                   for name in entry_points[fn]), fn.__qualname__
