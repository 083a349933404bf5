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


def test_no_module_level_name_is_unread():
    # no linter runs here, so this keeps dead constants, imports, functions
    # and classes out
    files = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    reads = outside_reads(trees)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        own = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
               and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in sorted(module_names(tree))
                   if name not in own and (path.stem, name) not in reads]
    assert unread == []
