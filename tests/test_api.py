"""The public surface is what the program calls.

An exported name earns its place by a reader: a use in the package outside
its own definition and ``__init__.py``, or a use in the benchmark. Tests do
not count; a check that only tests need belongs in ``tests/oracles.py``.
"""

import ast
from collections import defaultdict
from pathlib import Path

import causalsteer

ROOT = Path(__file__).resolve().parents[1]


def _references(path: Path):
    """(name, owner) for every name and attribute read in ``path``.

    The owner is the enclosing top-level function or class, None at module
    level. A definition's own name is not a read, so it never counts.
    """
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_all_is_sorted_and_unique():
    assert causalsteer.__all__ == sorted(set(causalsteer.__all__))


def test_every_exported_name_resolves():
    assert [name for name in causalsteer.__all__ if not hasattr(causalsteer, name)] == []


def _unread(benchmark: bool) -> set[str]:
    """The exported names with no reader in the package, nor in the benchmark when ``benchmark``."""
    owners = defaultdict(set)
    for path in (ROOT / "src" / "causalsteer").glob("*.py"):
        if path.name != "__init__.py":
            for name, owner in _references(path):
                owners[name].add(owner)
    if benchmark:
        for path in (ROOT / "perfbench").glob("*.py"):
            for name, _ in _references(path):
                owners[name].add(None)
    # A read inside an exported name that nothing reads does not count,
    # so a chain of names that only call each other is found whole.
    unread: set[str] = set()
    while True:
        more = {name for name in set(causalsteer.__all__) - unread if not owners[name] - unread - {name}}
        if not more:
            break
        unread |= more
    return unread


def test_every_exported_name_has_a_reader():
    assert sorted(_unread(benchmark=True)) == []


def test_benchmark_only_names_are_pinned():
    # Exported for the benchmark alone: the names to drop or move once it no longer reads them.
    assert sorted(_unread(benchmark=False)) == [
        "causal_effect_on_prediction",
        "estimate_noise_means",
        "evaluate_intervention",
        "plan_for_scm",
    ]
