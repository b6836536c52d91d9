"""Report persistence: canonical JSON, CSV tables, and run manifests.

Outputs are byte-deterministic: canonical JSON sorts keys, floats are
serialized with shortest round-trip repr, and no timestamps or host
information ever enter a report directory.

This is the one place a result record becomes JSON: a dataclass instance
is written as the object of its fields, tuples and arrays as lists, numpy
scalars as Python numbers.  A record written to a report therefore holds
exactly the fields its JSON shows.  ``VERDICTS`` is the one table of
verdict texts and exit codes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PreconditionError

# key: (text, exit code); 0 a positive verdict, 2 a negative one, 3 a failed hypothesis
VERDICTS = {
    "probe.zero_field": ("degenerate: zero field (all probes vanish)", 0),
    "probe.consistent": ("scaling exponents consistent with the commutator estimates", 0),
    "probe.below_prediction": ("scaling exponents below prediction", 2),
    "probe.not_assessable": ("not assessable: a fit has r2 < 0.9", 2),
    "weak_identity.no_claim": ("non-vanishing/inconclusive: predicted slope 3*alpha-1 = {predicted:.3f} <= 0 "
                               "(alpha <= 1/3: no conservation claim)", 0),
    "weak_identity.consistent": ("consistent with conservation", 0),
    "weak_identity.not_assessable": ("not assessable: fit r2={r2:.3f} below 0.9", 0),
    "weak_identity.not_consistent": ("not consistent: defect does not vanish at the predicted rate", 2),
    "boundary.conserved": ("hypotheses consistent and energy conserved", 0),
    "boundary.not_conserved": ("hypotheses consistent and energy NOT conserved "
                               "(flag: discretization or hypothesis failure)", 2),
    "boundary.hypotheses_fail": ("hypotheses fail ({reasons})", 3),
    "dissipation.vanishing": ("vanishing-dissipation trend consistent", 0),
    "dissipation.not_vanishing": ("dissipation does not vanish along the ladder", 2),
    "dissipation.inconclusive": ("inconclusive: fewer than 2 resolved entries", 2),
    "viscous_flux.vanishing": ("boundary flux vanishes along the shell ladder (nu -> 0 extrapolation)", 0),
    "viscous_flux.not_vanishing": ("boundary flux does NOT vanish along the shell ladder", 2),
    "leray.fails": ("fails the Leray-Hopf gate (<= 1e-8)", 2),
}


class Verdict(str):
    """A verdict's text, which carries its ``VERDICTS`` key and exit code; it is written as plain text."""

    key: str
    code: int


def verdict(key: str, **values) -> Verdict:
    """The verdict ``key``: its table text formatted with ``values``."""
    text, code = VERDICTS[key]
    out = Verdict(text.format(**values))
    out.key, out.code = key, code
    return out


def exit_code(verdicts) -> int:
    """A command's exit code: the largest code among its verdicts."""
    return max(map(lambda v: v.code, verdicts))


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def read_object(path: str | Path) -> dict:
    """The JSON object stored in ``path``; raises a PreconditionError naming
    the file when it cannot be read, is not UTF-8 JSON or its top level is
    not an object."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise PreconditionError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError, or an integer past the digit limit
        raise PreconditionError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise PreconditionError(f"{path}: top level must be an object")
    return obj


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj), encoding="utf-8")
    return path


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


def write_csv(path: str | Path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_ENVIRONMENT_KEYS = ("out",)  # output location is environment, not experiment


def experiment_config(config: dict) -> dict:
    return {k: v for k, v in config.items() if k not in _ENVIRONMENT_KEYS}


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(experiment_config(config)).encode("utf-8")).hexdigest()


def write_manifest(outdir: str | Path, config: dict, seeds=()) -> None:
    """Write manifest.json (tool, version, config hash, seeds), then the hashed config as config.json."""
    manifest = {
        "tool": "oflux",
        "version": __version__,
        "config_sha256": config_hash(config),
        "seeds": list(seeds),
    }
    write_json(Path(outdir) / "manifest.json", manifest)
    write_json(Path(outdir) / "config.json", experiment_config(config))
