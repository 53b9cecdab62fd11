"""Every public function and class of the package is something the program runs.

A module-level function or class in src/turntaking whose name has no leading
underscore must be referenced by a program module in src/, bench/ or scripts/
(test modules do not count): imported by name, read as an attribute of an
alias of its module (`ad.matmul` after `from . import autodiff as ad`), or used
in its own module other than at its definition. Only these forms count, so
`np.add` is not a use of `autodiff.add`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "turntaking"

# Referenced by no program module, on purpose: the gradient checker is the tool
# the test suite checks every backward rule with.
ALLOWED = {"autodiff.finite_difference_check"}


def _public_names() -> dict[str, set[str]]:
    """{module: public module-level function and class names} of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        out[path.stem] = {node.name for node in body
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          and not node.name.startswith("_")}
    return out


def _imported_module(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The package module an import-from reads: "" for the package itself
    (`from turntaking import corpus`, `from . import autodiff`), "corpus" for
    `from .corpus import x` or `from turntaking.corpus import x`, else None."""
    parts = node.module.split(".") if node.module else []
    if node.level == 1 and in_package:
        return ".".join(parts)
    if node.level == 0 and parts and parts[0] == "turntaking":
        return ".".join(parts[1:])
    return None


def _references(path: Path, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs that one program file references."""
    tree = ast.parse(path.read_text())
    in_package = path.parent == PACKAGE
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(node, in_package)
            for alias in node.names if source is not None else ():
                if source == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    refs.add((source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == "turntaking" and module in modules and alias.asname:
                    aliases[alias.asname] = module
    own = path.stem if in_package else None
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            refs.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own is not None:
            refs.add((own, node.id))
    return refs


def _program_files() -> list[Path]:
    return [p for d in ("src", "bench", "scripts") for p in sorted((ROOT / d).rglob("*.py"))
            if not p.name.startswith("test_")]


def test_every_public_name_is_used_by_the_program():
    public = _public_names()
    refs = set().union(*(_references(p, set(public)) for p in _program_files()))
    defined = {f"{m}.{n}" for m, names in public.items() for n in names}
    used = {f"{m}.{n}" for m, n in refs}
    unused = sorted(defined - used - ALLOWED)
    assert not unused, f"used by no program module: {unused}"
    assert ALLOWED <= defined - used, "an allowed name is gone or now used; update ALLOWED"
