import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biotriplets"


def module_names(tree: ast.Module) -> set[str]:
    """The names that the module's top-level imports, assignments, functions
    and classes bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def outside_reads(trees: dict[Path, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) for every `from ... import name` of a package module
    and every `module.name` reference."""
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "__init__").rpartition(".")[2]
                module = "__init__" if module == "biotriplets" else module
                reads.update((module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add((node.value.id, node.attr))
    return reads


def parsed() -> dict[Path, ast.Module]:
    """The trees of the package, the tests and the benchmark."""
    files = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}


def test_no_module_level_name_is_unread():
    # no linter runs here, so this keeps dead constants, imports, functions
    # and classes out
    trees = parsed()
    reads = outside_reads(trees)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        own = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
               and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in sorted(module_names(tree))
                   if name not in own and (path.stem, name) not in reads]
    assert unread == []


def test_no_method_is_unread():
    # a method of a class whose bases are all package classes is called only
    # by name, so one that no `x.name` reads is dead; dunders are called by
    # the language, and a method overriding another library's is left out
    trees = parsed()
    classes = [(path, node) for path in sorted(PACKAGE.glob("*.py"))
               for node in trees[path].body if isinstance(node, ast.ClassDef)]
    names = {node.name for _, node in classes}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.name}.{node.name}" for path, cls in classes
              if all(getattr(base, "id", getattr(base, "attr", None)) in names
                     for base in cls.bases)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in reads]
    assert unread == []


def relative_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """The package modules that `tree` imports, at the top or inside a
    function; a name that `from . import` takes and no module has is
    `__init__`'s."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.partition(".")[0])
            else:
                imported.update(a.name if a.name in modules else "__init__"
                                for a in node.names)
    return imported


def test_no_import_cycle():
    # a cycle loads only in some import orders, and an import moved into a
    # function to break it hides the cycle from the reader
    trees = parsed()
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    imports = {path.stem: relative_imports(trees[path], modules)
               for path in PACKAGE.glob("*.py")}
    cyclic = []
    for module in sorted(modules):
        reached, todo = set(), list(imports[module])
        while todo:
            other = todo.pop()
            if other not in reached:
                reached.add(other)
                todo += imports[other]
        if module in reached:
            cyclic.append(module)
    assert cyclic == []


def test_no_private_import():
    # an underscore name is its module's own: a module that needs another's
    # needs a public name for it
    trees = parsed()
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [(node.module or "__init__", a.name) for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names = [(node.value.id, node.attr)]
            else:
                continue
            private += [f"{path.stem} imports {module}.{name}" for module, name in names
                        if name.startswith("_") and not name.endswith("__")]
    assert private == []
