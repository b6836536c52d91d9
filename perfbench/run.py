"""End-to-end benchmark of the oflux CLI, with an outside-in layer trace.

Each workload (see ``workloads.py``) is a sequence of real CLI commands.
Every command runs in its own Python process against the checkout's
``src/``, one at a time, so interpreter start, ``import oflux`` and every
per-process cache are paid per command as in real use.  Children are
measured from outside: wall time, and ``os.wait4`` rusage for CPU time and
peak RSS.  A pass runs the workload's commands once; a run repeats passes
for ``--seconds`` and reports medians over its passes.

Every pass is checked: exit codes, the package's own gates, byte identity
with the run's first pass, and (where ``reference.json`` applies) verdicts
and key numbers within 1e-9 relative.  A pass that breaks any check counts
as failed.

    python3 perfbench/run.py --workload sweep-periodic --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all            # every workload, every metric, as a table

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

WORK = ROOT / ".perfbench_run"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_PASSES = 2  # the first pass is the byte-identity reference for the rest
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], log: Path) -> Child:
    """Run one child to completion from the checkout root and measure it."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    children: dict = field(default_factory=dict)  # command name -> Child
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children.values())

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children.values())


def tree_digests(paths) -> dict:
    out = {}
    for top in paths:
        top = ROOT / top
        for p in sorted(top.rglob("*")) if top.is_dir() else []:
            if p.is_file():
                out[str(p.relative_to(ROOT))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if ref is None or (ref["seed"] != "any" and ref["seed"] != seed):
        return None
    return ref["commands"]


class Runner:
    """Set-up and passes of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.base = WORK / workload
        self.inp = self.base / "in"
        self.out = self.base / "out"
        self.cmds = wl.commands(
            workload, seed, str(self.inp.relative_to(ROOT)), str(self.out.relative_to(ROOT))
        )
        self.reference = load_reference(workload, seed)
        self.passes: list[Pass] = []

    def setup(self) -> float:
        """Write the workload's inputs in a fresh interpreter; returns seconds."""
        shutil.rmtree(self.inp, ignore_errors=True)
        argv = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--dir", str(self.inp)]
        child = spawn(argv, self.base / "logs" / "setup.log")
        if child.code != 0:
            raise SystemExit(f"set-up of {self.workload} failed; see {self.base / 'logs' / 'setup.log'}")
        return child.wall_s

    def run_pass(self, traced: bool) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        k = len(self.passes)
        p = Pass(traced)
        span_files = []
        for cmd in self.cmds:
            cmd_id = f"p{k}.{cmd.name}"
            if traced:
                spans = self.base / "trace" / f"{cmd_id}.json"
                span_files.append(spans)
                argv = [sys.executable, str(BENCH_DIR / "layertrace.py"), "--spans", str(spans),
                        "--cmd", cmd_id, "--", *cmd.argv]
            else:
                argv = [sys.executable, "-m", "oflux.cli", *cmd.argv]
            child = spawn(argv, self.base / "logs" / f"{cmd_id}.log")
            p.children[cmd.name] = child
            first = self.passes[0].children[cmd.name].code if self.passes else child.code
            if child.code not in wl.COMPLETED:
                p.failures.append(f"{cmd.name}: exit code {child.code}, not a completed run")
            elif child.code != first:
                p.failures.append(f"{cmd.name}: exit code {child.code}, first pass gave {first}")
            p.failures += wl.gate_failures(cmd, ROOT)
        p.digests = tree_digests(c.out for c in self.cmds)
        if self.passes and p.digests != self.passes[0].digests:
            p.failures.append("outputs not byte-identical to the run's first pass")
        if self.reference is not None:
            for cmd in self.cmds:
                try:
                    got = dict(wl.key_values(cmd, ROOT), exit_code=p.children[cmd.name].code)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    p.failures.append(f"{cmd.name}: key values unreadable ({exc})")
                    continue
                p.failures += wl.mismatches(got, self.reference[cmd.name], f"reference {cmd.name}")
        if traced:
            p.layers = layer_metrics(self.workload, span_files)
        self.passes.append(p)
        return p

    def measure(self, seconds: float, traced_too: bool) -> None:
        """Passes until the next one would end past ``seconds``.

        With ``traced_too`` untraced and traced passes alternate, so the
        difference of their medians is the tracing overhead.
        """
        start = time.perf_counter()
        for k in itertools.count(1):
            p = self.run_pass(traced=traced_too and k % 2 == 0)
            if k >= MIN_PASSES and time.perf_counter() - start + p.wall_s > seconds:
                break


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _load_spans(files) -> tuple[list, dict, float]:
    spans, fft_outside, import_s = [], {"fft_calls": 0, "fft_points": 0, "fft_bytes": 0}, 0.0
    for f in files:
        if not f.is_file():
            continue
        payload = json.loads(f.read_text(encoding="utf-8"))
        spans += payload["spans"]
        import_s += payload["import_s"]
        for k in fft_outside:
            fft_outside[k] += payload["fft_outside"][k]
    return spans, fft_outside, import_s


def layer_metrics(workload: str, span_files) -> dict:
    """Every per-layer quantity one traced pass yields, by metric name."""
    spans, fft_outside, import_s = _load_spans(span_files)
    agg = layertrace.aggregate(spans)
    m = {"cli.import_s": import_s}
    for name, row in agg.items():
        for stat, val in row.items():
            m[f"{name}.{stat}"] = val

    def total(prefix, stat):
        return sum(row[stat] for name, row in agg.items() if name.startswith(prefix))

    m["fieldio.write_s"] = total("fieldio.write_", "self_s")
    m["fieldio.read_s"] = total("fieldio.read_", "self_s") + total("fieldio.load_input", "self_s")
    m["fieldio.bytes_written"] = sum(s.get("bytes_written", 0) for s in spans)
    m["fieldio.bytes_read"] = sum(s.get("bytes_read", 0) for s in spans)
    m["reports.write_s"] = total("reports.", "self_s")
    m["fft.calls"] = total("", "fft_calls") + fft_outside["fft_calls"]
    m["fft.points"] = total("", "fft_points") + fft_outside["fft_points"]
    m["fft.bytes"] = total("", "fft_bytes") + fft_outside["fft_bytes"]

    # waste ratios; each base is stated in perfbench/README.md
    steps = agg.get("solver.step", {}).get("calls", 0)
    m["solver.useful_step_ratio"] = wl.useful_steps(workload) / steps if steps else 0.0
    surveys = [s for s in spans if s["name"] in ("synth.estimate_holder_exponent", "synth.holder_norm")]
    distinct = len({(s["cmd"], s["key"]) for s in surveys})
    m["synth.surveys_per_snapshot"] = len(surveys) / distinct if distinct else 0.0
    solves = [s for s in spans if s["name"] == "pressure.solve_pressure_channel"]
    distinct = len({s["key"] for s in solves})
    m["pressure.channel_solves_per_snapshot"] = len(solves) / distinct if distinct else 0.0
    return m


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(runner: Runner, setups: list[float]) -> dict:
    """Medians over the untraced passes."""
    untraced = [p for p in runner.passes if not p.traced]
    m = {
        "setup_s": median(setups),
        "wall_s": median([p.wall_s for p in untraced]),
        "cpu_s": median([p.cpu_s for p in untraced]),
        "peak_rss_mb": max(c.rss_mb for p in untraced for c in p.children.values()),
    }
    for cmd in runner.cmds:
        m[f"{cmd.name}_s"] = median([p.children[cmd.name].wall_s for p in untraced])
    return m


def per_layer(runner: Runner, names: list[str], e2e: dict) -> dict:
    """Medians over the traced passes; per-command wall times come from
    ``e2e``, the untraced passes."""
    traced = [p for p in runner.passes if p.traced]
    out = {}
    for name in names:
        if name in e2e:
            out[name] = e2e[name]
        elif name == "trace.overhead_s":
            out[name] = median([p.wall_s for p in traced]) - e2e["wall_s"]
        elif name[: -len("_s")] in wl.COMMAND_NAMES:  # a command this workload does not run
            out[name] = 0.0
        else:
            vals = [p.layers.get(name, 0) for p in traced]
            ints = all(isinstance(v, int) for v in vals)
            out[name] = statistics.median_low(vals) if ints and vals else median(vals)
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    cpuinfo = {}
    for line in _read("/proc/cpuinfo").splitlines():
        key, _, val = line.partition(":")
        cpuinfo.setdefault(key.strip(), val.strip())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level").strip(), _read(idx / "type").strip()
        caches[f"L{level}-{kind}"] = _read(idx / "size").strip()

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo.get("model name"),
        "cpuinfo_cache_size": cpuinfo.get("cache size"),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[Runner, dict]:
    shutil.rmtree(WORK / workload, ignore_errors=True)
    runner = Runner(workload, seed)
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    runner.measure(seconds, traced_too=traced)
    return runner, end_to_end(runner, setups)


def result_line(runner: Runner, metrics: dict, units: dict) -> dict:
    failed = sum(1 for p in runner.passes if p.failures)
    return {
        "correct": failed == 0,
        "attempted": len(runner.passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def report_failures(runner: Runner) -> None:
    for k, p in enumerate(runner.passes):
        for msg in p.failures:
            print(f"pass {k} FAILED: {msg}", file=sys.stderr)


def main_single(args, spec) -> int:
    runner, e2e = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(runner, list(units), e2e)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = e2e
    line = result_line(runner, metrics, units)
    record = dict(line, provenance=provenance(args.seed), workload=args.workload,
                  passes=[{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                           "commands": {n: vars(c) for n, c in p.children.items()},
                           "failures": p.failures} for p in runner.passes])
    (runner.base / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    report_failures(runner)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0


def main_all(args, spec) -> int:
    """Every workload, untraced and traced passes alternating, as one table."""
    layer_names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    all_ok = True
    for workload in wl.WORKLOADS:
        runner, e2e = run_workload(workload, args.seed, args.seconds, traced=True)
        layers = per_layer(runner, layer_names, e2e)
        attempted = len(runner.passes)
        failed = sum(1 for p in runner.passes if p.failures)
        all_ok &= failed == 0
        report_failures(runner)
        n_traced = sum(p.traced for p in runner.passes)
        print(f"\n== {workload}: {whys[workload]}")
        print(f"   {attempted - n_traced} untraced passes (end-to-end medians), {n_traced} traced")
        print(f"   {'fail_frac':44s} {fmt(failed / attempted)} ratio  [{failed}/{attempted} passes]")
        for name, val in e2e.items():
            print(f"   {name:44s} {fmt(val)} {units.get(name, 's')}")
        for name in layer_names:
            if name not in e2e:
                layer = name.split(".")[0] if "." in name else "command"
                print(f"   {name:44s} {fmt(layers[name])} {units[name]:6s} [{layer}]")
    return 0 if all_ok else 1


def fmt(val) -> str:
    return f"{val:>16d}" if isinstance(val, int) else f"{val:>16.6g}"


def write_reference(seed: int) -> int:
    """Store verdicts and key numbers of one pass of each workload."""
    ref = {}
    for workload in wl.WORKLOADS:
        shutil.rmtree(WORK / workload, ignore_errors=True)
        runner = Runner(workload, seed)
        runner.reference = None
        runner.setup()
        p = runner.run_pass(traced=False)
        if p.failures:
            raise SystemExit(f"{workload}: {p.failures}")
        ref[workload] = {
            "seed": "any" if workload in wl.SEED_FREE else seed,
            "commands": {
                c.name: dict(wl.key_values(c, ROOT), exit_code=p.children[c.name].code)
                for c in runner.cmds
            },
        }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print every metric")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="re-record reference.json from one pass of each workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "oflux" / "cli.py").is_file():
        print(f"error: no oflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.write_reference:
        return write_reference(args.seed)
    if args.all:
        return main_all(args, spec)
    if args.workload is None:
        ap.error("give --workload or --all")
    return main_single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
