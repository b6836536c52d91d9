"""No builtin ``max`` or ``min`` over a generator or comprehension in ``src/oflux``.

The builtins compare with ``>`` and ``<``, and every comparison with a NaN is
false, so a NaN that does not come first is dropped: ``max(float(x) for x in
xs)`` reads finite over NaN data, and a verdict gated on it passes.  Float
reductions in the package use ``np.max``/``np.min`` or ``np.maximum``/
``np.minimum``, which keep a NaN.  The package is parsed with ``ast``; a
builtin call with a generator or comprehension argument is the shape the
dropped-NaN reductions had, so that is what is reported.  A call over plain
names or numbers (an exit code, a chunk of rows) is not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oflux"
_ITERATIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)


def iterated_builtin_reductions(sources: dict[str, str]) -> list[str]:
    """``module:line`` of every builtin ``max``/``min`` call over a generator or comprehension."""
    hits = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("max", "min")
                    and any(isinstance(arg, _ITERATIONS) for arg in node.args)):
                hits.append(f"{module}:{node.lineno}")
    return sorted(hits)


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_no_builtin_max_or_min_over_an_iteration():
    assert iterated_builtin_reductions(_package_sources()) == [], "reduce floats with np.max/np.min, which keep a NaN"


def test_an_injected_builtin_reduction_is_reported():
    sources = _package_sources()
    lines = len(sources["boundary"].splitlines())
    sources["boundary"] += (
        "\n\ndef worst(xs):\n"
        "    return max(float(x) for x in xs)\n"
        "\n\ndef best(xs):\n"
        "    return min([float(x) for x in xs])\n"
        "\n\ndef kept(xs):\n"
        "    return float(np.max([float(x) for x in xs]))\n"
    )
    assert iterated_builtin_reductions(sources) == [f"boundary:{lines + 4}", f"boundary:{lines + 8}"]
