"""Every top-level private function or class in stackgame has a user in stackgame.

A helper whose last caller was deleted is dead code; tests do not count as
users, and neither does a helper's use of itself.
"""

import ast
from pathlib import Path

import stackgame

SRC = Path(stackgame.__file__).parent


def _used_names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_private_top_level_name_is_used():
    tops = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    private = [node for node in tops if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    used = [(other, _used_names(other)) for other in tops]
    unused = [node.name for node in private
              if not any(node.name in names for other, names in used if other is not node)]
    assert private
    assert unused == []
