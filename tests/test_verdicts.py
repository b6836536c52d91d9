"""``reports.VERDICTS`` is the one source of each verdict's text and exit code.

A producer picks a key; a command exits with the largest code among its
verdicts and stores it as the top-level ``exit_code`` that ``report`` returns.
So nothing outside ``reports.py`` may spell a verdict's text, or read a code
back from the text: the package is parsed with ``ast``, and a string literal
equal to a table text, or to its fixed part before the first ``{``, is
reported, as is a ``.startswith`` called on a ``verdict`` name or attribute.
Rewording every text must leave every command's exit code as it was.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from oflux import fieldio, reports
from oflux.cli import main
from oflux.grids import Snapshot, Trajectory, make_grid, wall_distance, wall_normal_sign
from oflux.synth import fractional_field

from conftest import TWO_PI, channel_grid, frozen_trajectory

ROOT = Path(__file__).resolve().parents[1]


def verdict_text_reads(sources: dict[str, str], table: dict) -> list[str]:
    """``module:line`` of every verdict text spelled, or read with ``.startswith``, outside ``reports``."""
    texts = {t for text, _ in table.values() for t in (text, text.split("{", 1)[0])}
    hits = []
    for module, text in sources.items():
        if module == "reports":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in texts:
                hits.append(f"{module}:{node.lineno}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "startswith":
                target = node.func.value
                if getattr(target, "id", None) == "verdict" or getattr(target, "attr", None) == "verdict":
                    hits.append(f"{module}:{node.lineno}")
    return sorted(hits)


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "oflux").glob("*.py"))}


def test_no_verdict_text_outside_the_table():
    assert verdict_text_reads(_package_sources(), reports.VERDICTS) == [], "pick a key of reports.VERDICTS"


def test_an_injected_verdict_text_is_reported():
    sources = _package_sources()
    lines = len(sources["cli"].splitlines())
    sources["cli"] += (
        "\n\ndef old_code(sweep_rep):\n"
        "    return 0 if sweep_rep.verdict.startswith('vanishing') else 2\n"
        "\n\ndef spelled(verdict, r2):\n"
        "    return verdict.startswith('x'), f'not assessable: fit r2={r2:.3f} below 0.9'\n"
        "\n\nTEXT = 'scaling exponents below prediction'\n"
        "OTHER = 'scaling exponents below'\n"
    )
    sources["reports"] += "\nTEXT = 'scaling exponents below prediction'\n"
    assert verdict_text_reads(sources, reports.VERDICTS) == sorted(
        [f"cli:{lines + 4}", f"cli:{lines + 8}", f"cli:{lines + 8}", f"cli:{lines + 11}"])


def test_a_verdict_is_written_as_its_text():
    v = reports.verdict("weak_identity.not_assessable", r2=0.8514)
    assert (v, v.key, v.code) == ("not assessable: fit r2=0.851 below 0.9", "weak_identity.not_assessable", 0)
    assert reports.canonical_json({"verdict": v}) == reports.canonical_json({"verdict": str(v)})
    assert reports.exit_code([reports.verdict("boundary.conserved"), v, reports.verdict("leray.fails")]) == 2


def test_readme_verdict_table_matches_the_table():
    # one row per key under "Exit codes": | `key` | `text` | code |
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`")] = (cells[1].strip("`"), int(cells[2]))
    assert rows == reports.VERDICTS


# ---------------------------------------------------------------------------
# rewording every text leaves every exit code
# ---------------------------------------------------------------------------


def _channel_input(work, kind):
    """A 3-snapshot channel trajectory on 16 x 49 nodes: steady, decaying by 1% a
    snapshot, or leaking through the walls."""
    grid = channel_grid(16, 49)
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims), np.zeros(grid.dims)])
    if kind == "leak":
        u[1] = np.where(np.broadcast_to(wall_distance(grid), grid.dims) < 0.3, 0.1 * wall_normal_sign(grid), 0.0)
    decay = 0.01 if kind == "decay" else 0.0
    p = np.full(grid.dims, 1.0 if kind == "leak" else 0.0)
    snaps = tuple(Snapshot(grid, (1.0 - decay * i) * u, p, 0.1 * i) for i in range(3))
    h = grid.spacing[1]
    path = fieldio.write_trajectory(work / kind, Trajectory(snaps, 0.1))
    return ["boundary", "--in", str(path), "--etas", ",".join(repr(m * h) for m in (20, 14, 10))]


def _periodic_input(work, alpha, frames, probe_alpha, cutoff=None):
    """A fractional field of exponent ``alpha`` on a 64^2 box, or on a 32^2 box
    frozen over ``frames`` snapshots, probed at ``probe_alpha``."""
    n = 64 if frames == 1 else 32
    snap = fractional_field(alpha, cutoff, 0, make_grid((n, n), (TWO_PI, TWO_PI)))
    if frames == 1:
        path = fieldio.write_snapshot(work / "field.oflx", snap)
        return ["diagnose", "--in", str(path), "--alpha", str(probe_alpha)]
    path = fieldio.write_trajectory(work / "traj", frozen_trajectory(snap, frames))
    ladder = ",".join(repr(m * TWO_PI / n) for m in (6, 5, 4, 3, 2))
    return ["diagnose", "--in", str(path), "--alpha", str(probe_alpha), "--epsilons", ladder]


def _sweep(work, nus):
    config = work / "sweep.json"
    config.write_text(json.dumps({"grid": "16x16", "nus": nus, "dt": 0.01, "t_end": 0.05}))
    return ["sweep", "--config", str(config)]


# (a command on a small input, its exit code); the codes were read with the table's own texts
CASES = {
    "diagnose-consistent": (lambda w: _periodic_input(w, 0.5, 1, 0.5, cutoff=2), 0),
    "diagnose-below": (lambda w: _periodic_input(w, 0.2, 1, 0.9), 2),
    "diagnose-no-claim": (lambda w: _periodic_input(w, 0.4, 3, 0.3), 0),
    "diagnose-not-assessable": (lambda w: _periodic_input(w, 0.4, 3, 0.5), 2),
    "sweep-vanishing": (lambda w: _sweep(w, [0.01, 0.001]), 0),
    "sweep-inconclusive": (lambda w: _sweep(w, [0.01]), 2),
    "sweep-not-vanishing": (lambda w: _sweep(w, [0.01, 0.0099]), 2),
    "boundary-conserved": (lambda w: _channel_input(w, "steady"), 0),
    "boundary-not-conserved": (lambda w: _channel_input(w, "decay"), 2),
    "boundary-hypotheses-fail": (lambda w: _channel_input(w, "leak"), 3),
}


@pytest.mark.parametrize("reword", [False, True], ids=["table", "reworded"])
def test_rewording_every_verdict_keeps_every_exit_code(tmp_path, monkeypatch, capsys, reword):
    if reword:  # each text becomes "reworded <n>" followed by its format fields
        for n, (key, (text, code)) in enumerate(list(reports.VERDICTS.items())):
            fields = " ".join(re.findall(r"{[^}]*}", text))
            monkeypatch.setitem(reports.VERDICTS, key, (f"reworded {n} {fields}", code))
    for name, (command, code) in CASES.items():
        work = tmp_path / name
        work.mkdir()
        out = work / "out"
        assert main([*command(work), "--out", str(out)]) == code, name
        text = next(p for p in out.glob("*.json") if p.stem in ("summary", "verdict")).read_text()
        assert json.loads(text)["exit_code"] == code, name
        assert ("reworded" in text) == reword, name  # the texts came from the table
        assert main(["report", "--in", str(out)]) == code, name
    capsys.readouterr()
