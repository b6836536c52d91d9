"""Every public definition in ``src/oflux`` serves a command or a criterion.

The package is parsed with ``ast``.  The roots are ``cli.main``, every
module-level statement other than imports and definitions, and the names
that ``tests/test_acceptance.py`` imports from ``oflux``.  A definition is
reached when reached code names it, as a bare name or as an attribute; a
reached function contributes every name in it, and a reached class its
decorators, bases, field statements and dunder methods (Python calls those
implicitly).  Matching by name alone is conservative: two definitions that
share a name are reached together, so a clash can hide dead code, but live
code is never reported.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oflux"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Public definitions that nothing reaches yet, each with the reason it stays.
ALLOWED = {
    "mollify.nested_regions": "planned: diagnose on channel fields builds its region chain with it (ROADMAP.md)",
    "pressure.interior_holder_check": "planned: diagnose on channel fields reports its ratio (ROADMAP.md)",
    "pressure.InteriorHolderReport": "the report interior_holder_check returns",
    "mollify.mollify_field": "BENCHMARK.json names its per-layer metrics (mollify.mollify_field.*)",
}


def _names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _class_names(node: ast.ClassDef) -> set[str]:
    """Names a reached class contributes; its ordinary methods are reached by name."""
    out = set()
    for part in (*node.decorator_list, *node.bases, *node.keywords):
        out |= _names(part)
    for stmt in node.body:
        is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not is_def or stmt.name.startswith("__"):
            out |= _names(stmt)
    return out


def unreached(sources: dict[str, str], roots: set[str]) -> set[str]:
    """Public ``module.name`` (or ``module.Class.name``) definitions outside the closure."""
    defs = {}  # qualified name -> (bare name, names the definition contributes once reached)
    reached_names = set(roots)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{node.name}"] = (node.name, _names(node))
            elif isinstance(node, ast.ClassDef):
                defs[f"{module}.{node.name}"] = (node.name, _class_names(node))
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{module}.{node.name}.{sub.name}"] = (sub.name, _names(sub))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached_names |= _names(node)
    reached = set()
    grew = True
    while grew:
        grew = False
        for qual, (name, names) in defs.items():
            if qual not in reached and name in reached_names:
                reached.add(qual)
                reached_names |= names
                grew = True
    return {qual for qual, (name, _) in defs.items() if qual not in reached and not name.startswith("_")}


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def _roots() -> set[str]:
    roots = {"main"}
    for node in ast.parse(ACCEPTANCE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oflux":
            roots |= {alias.name for alias in node.names}
    return roots


def test_every_public_definition_is_reached_or_allowed():
    dead = unreached(_package_sources(), _roots())
    assert dead - set(ALLOWED) == set(), "reached by no command or criterion; delete or allow with a reason"
    assert set(ALLOWED) - dead == set(), "allowed but reached (or gone); drop it from ALLOWED"
    assert all(reason for reason in ALLOWED.values())


def test_a_definition_nothing_calls_is_reported():
    sources = _package_sources()
    sources["grids"] += (
        "\n\ndef gradient(f, grid):\n"
        "    return np.stack([deriv(f, a, grid) for a in range(grid.ndim)])\n"
    )
    assert "grids.gradient" in unreached(sources, _roots())
    sources["cli"] += "\n\ngradient(None, None)\n"  # a module-level use reaches it
    assert "grids.gradient" not in unreached(sources, _roots())


def test_the_package_defines_one_exception_class():
    # every refusal is a PreconditionError whose message carries what the caller needs
    bases = {}
    for text in _package_sources().values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(b).split(".")[-1] for b in node.bases]

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return any(is_exception(b) for b in bases.get(name, []))

    assert [name for name in bases if is_exception(name)] == ["PreconditionError"]
