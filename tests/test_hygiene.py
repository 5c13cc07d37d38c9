"""Source hygiene: no module of the package or of the tests imports a
name it never uses, no package module imports SciPy when it is itself
imported or holds an assert statement, only the gradient loop and the
gradient check open a tape, only the commands and the dataset writers
make a directory or open a file, every public numcore function has a
caller in another package module and every public Tensor method or
property a reader outside the class, every name on numcore's
output-check list is a node some op records, every setting of synth,
train-scene and train-act is set by a shipped config or a benchmark
workload, and every function the benchmark's tracer wraps is still
there with the arguments it reads."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from cineseg import cli

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cineseg"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system, pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: tau"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_level_imports(source: str) -> list[str]:
    """Modules imported while the module itself is imported: every import
    outside a function body, class bodies and if/try blocks included."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def test_checker_finds_module_level_imports():
    source = (
        "import numpy as np\n"
        "try:\n    from scipy.special import erf\nexcept ImportError:\n    pass\n"
        "class A:\n    import scipy.linalg\n"
        "def f():\n    from scipy.special import erf\n    return erf\n"
        "from . import numcore\n"
    )
    assert module_level_imports(source) == ["numpy", "scipy.special", "scipy.linalg"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # SciPy's import costs more than a synth run; gelu imports it on first use
    scipy = [m for m in module_level_imports(path.read_text()) if m.split(".")[0] == "scipy"]
    assert scipy == []


def assert_statements(source: str) -> list[str]:
    """The lines of a module's assert statements, which python -O strips."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_checker_finds_assert_statements():
    source = ("assert ready\n"
              "def f(x):\n    assert x > 0, 'positive'\n    return x\n"
              "asserted = check(x)\n")
    assert assert_statements(source) == ["line 1", "line 3"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # a check the package relies on must hold under python -O too: raise
    assert assert_statements(path.read_text()) == []


def functions_holding(source: str, module: str, match) -> list[str]:
    """The functions of a module, as module.name (module.outer.inner when
    nested), whose own body holds a node for which match is true."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if match(child) and name not in found:
                found.append(name)
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def is_call_of(node, names) -> bool:
    """node calls f(...) or x.f(...) for an f in names."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr in names
        or isinstance(node.func, ast.Name) and node.func.id in names
    )


def taping_functions(source: str, module: str) -> list[str]:
    """The functions whose own body holds a `with nc.Tape()` block."""
    return functions_holding(source, module, lambda node: isinstance(node, ast.With) and any(
        is_call_of(item.context_expr, {"Tape"}) for item in node.items))


def file_making_functions(source: str, module: str) -> list[str]:
    """The functions whose own body calls mkdir or open."""
    return functions_holding(source, module, lambda node: is_call_of(node, {"mkdir", "open"}))


def test_checker_finds_taping_functions():
    source = (
        "from . import numcore as nc\nfrom .numcore import Tape\n"
        "def fit(step):\n    for s in step:\n        with nc.Tape() as tape:\n"
        "            pass\n        with nc.Tape():\n            pass\n"
        "def outer():\n    def inner():\n        with Tape() as t, open(p):\n"
        "            pass\n    return inner\n"
        "class Loop:\n    def run(self):\n        with open(p):\n            pass\n"
        "with nc.Tape():\n    pass\n"
    )
    assert taping_functions(source, "m") == ["m.fit", "m.outer.inner", "m"]


def test_only_the_gradient_loop_and_the_gradient_check_tape():
    # one step protocol: a second hand-written training loop would tape too
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in taping_functions(path.read_text(), path.stem)]
    assert found == ["gradcheck._check_losses", "trainer._fit"]


def test_checker_finds_file_making_functions():
    source = (
        "def save(path):\n    with open(path, 'wb') as fh:\n        fh.write(b'')\n"
        "def run(out):\n    out.mkdir(parents=True)\n    def read():\n"
        "        return out.read_text()\n    return read\n"
        "class Store:\n    def put(self, p):\n        p.open('w')\n"
        "def fit(opener):\n    return opener(mode='w')\n"
    )
    assert file_making_functions(source, "m") == ["m.save", "m.run", "m.Store.put"]


def test_only_the_commands_and_the_writers_make_files():
    # a command makes its run tree once its work has returned; a trainer
    # or any other computation writes nothing, so a failed run leaves none
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in file_making_functions(path.read_text(), path.stem)]
    assert found == ["cli._run_dir", "cli.cmd_train_act", "dataio.atomic_write",
                     "dataio.save_movie"]


def tensor_boundary_violations(source: str) -> list[str]:
    """Array-to-Tensor conversions outside numcore, whose ops wrap arrays
    themselves: every isinstance(..., Tensor) check, and every Tensor(...)
    call that neither creates a parameter (requires_grad=True) nor wraps
    a numeric literal."""

    def is_tensor(node):
        return (isinstance(node, ast.Name) and node.id == "Tensor") or (
            isinstance(node, ast.Attribute) and node.attr == "Tensor"
        )

    def is_number(node):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return False
        return type(value) in (int, float)

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            if any(is_tensor(n) for arg in node.args[1:] for n in ast.walk(arg)):
                found.append(f"line {node.lineno}: isinstance check against Tensor")
        elif is_tensor(node.func):
            parameter = any(
                k.arg == "requires_grad" and isinstance(k.value, ast.Constant)
                and k.value.value is True
                for k in node.keywords
            )
            literal = len(node.args) == 1 and not node.keywords and is_number(node.args[0])
            if not (parameter or literal):
                found.append(f"line {node.lineno}: Tensor(...) of a non-literal")
    return found


def test_checker_finds_tensor_conversions():
    source = (
        "from .numcore import Tensor\n"
        "a = Tensor(rows)\n"
        "b = Tensor(np.zeros(3), requires_grad=True)\n"
        "c = Tensor(0.0) if Tensor(-1) else None\n"
        "d = nc.Tensor(rows)\n"
        "e = isinstance(x, Tensor)\n"
        "f = isinstance(x, (list, nc.Tensor))\n"
        "g = Tensor(rows, requires_grad=False)\n"
        "h = Tensor(True)\n"
    )
    assert tensor_boundary_violations(source) == [
        "line 2: Tensor(...) of a non-literal",
        "line 5: Tensor(...) of a non-literal",
        "line 6: isinstance check against Tensor",
        "line 7: isinstance check against Tensor",
        "line 8: Tensor(...) of a non-literal",
        "line 9: Tensor(...) of a non-literal",
    ]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "numcore.py"],
    ids=lambda p: p.name,
)
def test_only_numcore_turns_arrays_into_tensors(path):
    assert tensor_boundary_violations(path.read_text()) == []


# ---- every numcore op has a caller ----


def public_functions(source: str, cls: str | None = None) -> list[str]:
    """The module-level functions of a module, or the methods and
    properties of its class cls, whose names lack a leading underscore."""
    body = ast.parse(source).body
    if cls is not None:
        body = next(node.body for node in body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
    return [node.name for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def attributes_read(source: str, skip_class: str | None = None) -> set[str]:
    """The attribute names a module reads (x.name), outside the body of
    its class skip_class."""
    tree = ast.parse(source)
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.ClassDef) and node.name == skip_class)]
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def numcore_names_read(source: str) -> set[str]:
    """The numcore names a package module reads: attributes of its alias
    of numcore, and names it imports from numcore."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "numcore":
                names.update(alias.name for alias in node.names)
            elif node.module is None:
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "numcore")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_checker_finds_numcore_names():
    source = (
        "from . import numcore as nc, dataio\n"
        "from .numcore import Tensor\n"
        "def f(x):\n    return nc.gelu(nc.add(x, dataio.NUM_TURNING_POINTS))\n"
    )
    assert numcore_names_read(source) == {"Tensor", "gelu", "add"}
    assert public_functions("def a():\n    pass\ndef _b():\n    pass\nclass C:\n"
                            "    def d(self):\n        pass\n") == ["a"]
    klass = ("class T:\n    def __init__(self):\n        self.data = 0\n"
             "    @property\n    def size(self):\n        return self.data.size\n"
             "    def grow(self):\n        pass\n"
             "def f(t):\n    return t.data.shape\n")
    assert public_functions(klass, "T") == ["size", "grow"]
    assert attributes_read(klass, "T") == {"data", "shape"}


def test_every_numcore_function_has_a_caller():
    # an op that no command uses is code to delete, not to keep working
    read = set().union(*(numcore_names_read(path.read_text())
                         for path in PACKAGE.glob("*.py") if path.name != "numcore.py"))
    functions = public_functions((PACKAGE / "numcore.py").read_text())
    assert [name for name in functions if name not in read] == []


def test_every_tensor_method_has_a_caller():
    # a method or property no package module reads, the class's own body
    # aside, is code to delete too; names are matched on any object
    read = set().union(*(attributes_read(path.read_text(), "Tensor")
                         for path in PACKAGE.glob("*.py")))
    members = public_functions((PACKAGE / "numcore.py").read_text(), "Tensor")
    assert members and [name for name in members if name not in read] == []


def emitted_names(source: str) -> set[str]:
    """The node names of a module's _emit("<name>", ...) calls."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_emit" and node.args and isinstance(node.args[0], ast.Constant)}


def test_checker_finds_emitted_names():
    source = ('def f(a):\n    return _emit("add", rule, (a,), a)\n'
              'def g(a, name):\n    return _emit(name, rule, (a,), a)\n')
    assert emitted_names(source) == {"add"}


def test_every_checked_name_is_an_emitted_node():
    # an output check on a name that no op emits checks nothing
    emitted = emitted_names((PACKAGE / "numcore.py").read_text())
    assert sorted(cineseg_attr("numcore", "_CHECKED") - emitted) == []


# ---- every default is one some caller overrides ----


def unset_defaults(modules: dict, sources: list) -> list[str]:
    """module.function(parameter) for each defaulted parameter of a
    module-level function in modules ({name: source}) that no call in
    sources passes, by keyword or by position. A call matches a function
    by its bare name (f(...), or x.f(...)), and a call that unpacks *args
    or **kwargs passes everything."""
    passed = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed.setdefault(name, set()).add("*")
            passed.setdefault(name, set()).update(
                [k.arg for k in node.keywords] + list(range(len(node.args))))
    found = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args.posonlyargs + node.args.args
            defaulted = [(i, a.arg) for i, a in enumerate(args)][len(args) - len(node.args.defaults):]
            defaulted += [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if d is not None]
            calls = passed.get(node.name, set())
            found += [f"{module}.{node.name}({arg})" for i, arg in defaulted
                      if "*" not in calls and arg not in calls and i not in calls]
    return found


def caller_sources(root: Path) -> list[str]:
    """The sources whose calls count as callers: the package's and the
    benchmark's, and no test's, since a default only a test overrides is
    one that every command keeps."""
    return [path.read_text() for folder in (root / "src" / "cineseg", root / "bench")
            for path in sorted(folder.rglob("*.py"))
            if "tests" not in path.relative_to(root).parts]


def test_checker_finds_unset_defaults(tmp_path):
    module = ("def f(a, b=1, c=2, *, d=3, e):\n    pass\n"
              "def g(x=0):\n    pass\n"
              "def h(y=0):\n    pass\n"
              "class K:\n    def f(self, z=0):\n        pass\n")
    calls = "f(1, 2, e=5)\nm.f(0, d=4, e=5)\nm.h(*rest)\n"
    assert unset_defaults({"m": module}, [module, calls]) == ["m.f(c)", "m.g(x)"]
    # a call from a test, the benchmark's included, sets nothing
    for path, source in (("src/cineseg/m.py", module), ("bench/run.py", calls),
                         ("tests/test_m.py", "m.f(c=0)\n"), ("bench/tests/test_b.py", "g(1)\n")):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(source)
    assert unset_defaults({"m": module}, caller_sources(tmp_path)) == ["m.f(c)", "m.g(x)"]


def test_every_default_is_overridden_by_some_caller():
    # a default that every command keeps is a constant
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unset_defaults(modules, caller_sources(TESTS.parent)) == []


# ---- every setting is one some shipped config or bench workload sets ----


def settings_in_use(config_paths, workloads: str) -> dict:
    """{command: keys set}: by each config file, for the command its
    "# Run: cineseg <command>" line names, and by each --set argument of
    a _cli(phase, command, ...) call in the workloads source."""
    used = {}
    for path in config_paths:
        command = re.search(r"^# Run: cineseg (\S+)", Path(path).read_text(), re.M).group(1)
        used.setdefault(command, set()).update(cli.read_config_file(path))
    for node in ast.walk(ast.parse(workloads)):
        if not is_call_of(node, {"_cli"}):
            continue
        command = node.args[1].value
        for flag, value in zip(node.args, node.args[1:]):
            if isinstance(flag, ast.Constant) and flag.value == "--set":
                # "key=value", or an f-string whose first piece is "key="
                text = value.values[0].value if isinstance(value, ast.JoinedStr) else value.value
                used.setdefault(command, set()).add(text.partition("=")[0])
    return used


def test_checker_finds_settings_in_use(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# Run: cineseg synth --config a.cfg\nshots = 3\n# noise = 1\n")
    workloads = ('_cli("main", "train-act", "--set", "train.lr=1", "--set", f"train.epochs={N}",\n'
                 '     "--data", data, out=out)\n'
                 'other("main", "synth", "--set", "scenes=1")\n')
    assert settings_in_use([cfg], workloads) == {
        "synth": {"shots"}, "train-act": {"train.lr", "train.epochs"},
    }


def test_every_setting_is_set_by_a_shipped_config_or_a_workload():
    # a setting that no config and no workload sets is a constant
    root = TESTS.parent
    used = settings_in_use(sorted((root / "configs").glob("*.cfg")),
                           (root / "bench" / "workloads.py").read_text())
    registries = {"synth": cli.SYNTH_KEYS, "train-scene": cli.SCENE_KEYS,
                  "train-act": cli.ACT_KEYS}
    unset = [f"{command} {key}" for command, keys in registries.items()
             for key in keys if key not in used.get(command, ())]
    assert unset == []


# ---- what the benchmark's traced run wraps ----


def bench_spans() -> dict:
    """The SPANS table of bench/spans.py, the tracer that wraps cineseg
    functions by name: (module, function) -> span name."""
    tree = ast.parse((TESTS.parent / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py has no SPANS table")


def cineseg_attr(module: str, path: str):
    target = importlib.import_module(f"cineseg.{module}")
    for name in path.split("."):
        target = getattr(target, name, None)
    return target


# the leading parameters that the tracer's hooks read or pass on
# positionally: the head span calls _linear_apply(model, prefix, x), the
# E-step score reads movie_inputs as argument 3, the tape count and the
# single-class count read backward's tape and the loss's labels
BENCH_SIGNATURES = {
    ("alignfuse", "embed_modality"): ["model", "feats", "m"],
    ("alignfuse", "_linear_apply"): ["model", "prefix", "x"],
    ("numcore", "backward"): ["tape", "loss"],
    ("trainer", "weighted_scene_ce"): ["logits", "labels"],
    ("trainer", "Optimizer.step"): ["self"],
    ("sync", "SyncHead.features"): ["self", "fused"],
    ("sync", "run_e_step"): ["shot_model", "synopsis_model", "head", "movie_inputs"],
}


def test_every_function_the_bench_wraps_exists():
    # the tracer skips a missing name without a word, and the per-layer
    # metric it feeds then reads 0
    names = list(bench_spans()) + list(BENCH_SIGNATURES)
    missing = [f"{module}.{path}" for module, path in names
               if not callable(cineseg_attr(module, path))]
    assert missing == []


@pytest.mark.parametrize("target", sorted(BENCH_SIGNATURES), ids=".".join)
def test_bench_hooks_keep_their_arguments(target):
    params = list(inspect.signature(cineseg_attr(*target)).parameters)
    want = BENCH_SIGNATURES[target]
    assert params[:len(want)] == want
