"""Print the size of the package: source lines and settable values.

Usage: python tests/tools/size_report.py [REPO]

REPO defaults to the checkout this script lives in. The line total is
every line of every .py file under REPO/src; after the two totals, one
line per file gives its own line count, path relative to REPO/src, so
that running the script on two checkouts gives the per-module delta.
The settable-values count
is taken over the AST of REPO/src/neurof0 and is the sum of
  * the fields of each @dataclass class (annotated names, not ClassVar),
  * the parameters with a default of each public function and method
    (a module-level def or a def in a class body, named without a
    leading underscore), and
  * the CLI flags: add_argument calls whose first argument starts with "-".
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> int:
    return sum(isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
               and "ClassVar" not in ast.unparse(stmt.annotation)
               for stmt in node.body)


def _defaulted_params(node) -> int:
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _is_flag(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument" and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("-"))


def settable_values(tree: ast.Module) -> dict[str, int]:
    """The three parts of the settable-values count of one module."""
    counts = {"dataclass fields": 0, "defaulted parameters": 0, "CLI flags": 0}
    scopes = [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                counts["defaulted parameters"] += _defaulted_params(node)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                counts["dataclass fields"] += _dataclass_fields(node)
    counts["CLI flags"] = sum(_is_flag(n) for n in ast.walk(tree))
    return counts


def main(argv: list[str]) -> int:
    repo = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[2]
    src = repo / "src"
    modules = {p.relative_to(src).as_posix(): len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py"))}
    totals = {"dataclass fields": 0, "defaulted parameters": 0, "CLI flags": 0}
    for path in sorted((src / "neurof0").rglob("*.py")):
        for part, n in settable_values(ast.parse(path.read_text(encoding="utf-8"))).items():
            totals[part] += n
    print(f"src lines: {sum(modules.values())}")
    print(f"settable values: {sum(totals.values())} "
          f"({', '.join(f'{n} {part}' for part, n in totals.items())})")
    for name, n in modules.items():
        print(f"  {name}: {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
