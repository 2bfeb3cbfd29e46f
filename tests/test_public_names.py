"""The package's public surface: what the benchmark resolves, and who calls it.

``perfbench/`` resolves phforge names at run time, so a deleted or renamed
name would otherwise show only when the traced benchmark runs.  And a public
name that only the tests call belongs in ``tests/helpers.py`` as a ``ref_*``
function, not in ``phforge.__all__``.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import phforge

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path[:0] = [str(PERFBENCH)]

import layers  # noqa: E402


def _resolve(module: str, name: str):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def _phforge_reads(path: Path):
    """(module, name) for each ``phforge.<name>`` and ``from phforge... import name`` in path."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "phforge":
            reads.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "phforge"
        ):
            reads.add(("phforge", node.attr))
    return reads


def test_benchmark_names_resolve():
    tables = layers.TIMED + layers.COUNTED
    assert tables
    for _span, owners, attr, _hook in tables:
        for owner in owners:
            assert callable(getattr(layers._owner(owner), attr)), (owner, attr)
    reads = _phforge_reads(PERFBENCH / "checks.py") | _phforge_reads(PERFBENCH / "workloads.py")
    assert ("phforge", "residue_at") in reads  # the output check of every exact result
    for module, name in sorted(reads):
        _resolve(module, name)


def _without_own_definition(path: Path, name: str) -> str:
    """The text of path with the top-level def or class of name blanked out."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            start = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            lines[start - 1 : node.end_lineno] = []
    return "\n".join(lines)


def test_every_public_name_has_a_non_test_caller():
    modules = [p for p in sorted((ROOT / "src" / "phforge").glob("*.py")) if p.name != "__init__.py"]
    plain = "\n".join(
        p.read_text(encoding="utf-8") for p in [*sorted(PERFBENCH.glob("*.py")), ROOT / "README.md"]
    )
    orphans = []
    for name in phforge.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        texts = [plain] + [_without_own_definition(p, name) for p in modules]
        if not any(word.search(text) for text in texts):
            orphans.append(name)
    assert orphans == []


# public methods with no caller yet, and why each stays
UNCALLED_METHODS = {
    "SolutionSpace.contains": "perfbench's residue check is meant to move onto it (ROADMAP item 6)",
}


def test_every_public_method_has_a_non_test_caller():
    """Each public method or property of a phforge class is read as ``.name`` somewhere else.

    The places searched are ``src/phforge``, ``perfbench/`` and README.md,
    each method's own definition blanked out; an attribute that perfbench's
    traced run wraps by name on a class counts as read.
    """
    sources = {p: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "phforge").glob("*.py"))}
    plain = "\n".join(
        p.read_text(encoding="utf-8") for p in [*sorted(PERFBENCH.glob("*.py")), ROOT / "README.md"]
    )
    wrapped = {
        f"{owner.partition(':')[2]}.{attr}"
        for _span, owners, attr, _hook in layers.TIMED + layers.COUNTED
        for owner in owners
    }
    orphans = []
    for path, text in sources.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                start = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                lines = text.splitlines()
                lines[start - 1 : node.end_lineno] = []
                others = [t for p, t in sources.items() if p != path]
                word = re.compile(rf"\.{node.name}\b")
                name = f"{cls.name}.{node.name}"
                read = name in wrapped or any(word.search(t) for t in [plain, "\n".join(lines), *others])
                if not read and name not in UNCALLED_METHODS:
                    orphans.append(name)
    assert orphans == []
