"""irtr-lab benchmark: drive ``irtr_lab.cli.main`` in-process and time it.

Run from the root of a source checkout (the program is imported from
``./src``)::

    python3 perfbench/run.py --workload separation-sweep --seed 1 --seconds 25 --trace 0

One run is one single-threaded process.  It measures set-up (fresh child
interpreters importing ``irtr_lab.cli``), makes one untimed warm-up pass over
the workload's CLI calls, then repeats timed passes until ``--seconds`` have
elapsed.  Every pass's CSVs must be byte-identical to the warm-up pass's and
pass the value checks in ``workloads.py``; a CLI call that exits nonzero,
raises, or fails a check is a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
call times measured against the host-speed probe in ``hostspeed.py``.  With
``--trace 1`` it carries the per-layer metrics from passes run under the span
tracer in ``spans.py``, alternating with untraced passes; there the probe
samples only around calls, never inside them.  The line before the result is
the run context: versions, thread settings, per-pass wall and CPU time, probe
times and host steal.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 3
CHILD_TIMEOUT_S = 60
IMPORT_MODULES = (
    "irtr_lab.cli",
    "irtr_lab",
    "irtr_lab.errors",
    "irtr_lab.psf_core",
    "irtr_lab.state_model",
    "irtr_lab.measurements",
    "irtr_lab.tradeoff",
    "irtr_lab.experiments",
    "numpy",
    "scipy",
    "scipy.special",
    "scipy.linalg",
    "scipy.interpolate",
)
WORK_DIR = ".perfbench_out"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH", "")) if part
    )
    return env


def measure_setup(src: Path) -> list[float]:
    """Seconds for fresh interpreters to import irtr_lab.cli, one per child."""
    code = (
        "import time; start = time.perf_counter(); import irtr_lab.cli; "
        "print(time.perf_counter() - start)"
    )
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env(src),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.strip()))
    return times


def measure_import_breakdown(src: Path) -> dict[str, float]:
    """Median cumulative ``-X importtime`` seconds per module of interest."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORTTIME_CHILDREN):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import irtr_lab.cli"],
            env=_child_env(src),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative_us, name = (part.strip() for part in line.split("|"))
            cumulative[name] = int(cumulative_us) / 1e6
        for name in IMPORT_MODULES:
            samples[name].append(cumulative.get(name, 0.0))
    return {
        f"setup.import.{name}_s": statistics.median(values)
        for name, values in samples.items()
    }


def _proc_stat_cpu() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]] if fields and fields[0] == "cpu" else None


def _steal_share(before, after) -> float | None:
    if before is None or after is None or len(before) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])  # user..steal; guest time is already in user
    return deltas[7] / total if total > 0 else None


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        return (root / ".git" / ref[5:]).read_text(encoding="ascii").strip()
    except OSError:
        return None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "irtr_lab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas_version() -> str | None:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def tail_percentile(values: list[float]) -> dict:
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return {"samples": len(ordered), "percentile": None, "value": None}
    return {
        "samples": len(ordered),
        "percentile": round(100.0 * rank / len(ordered), 2),
        "value": ordered[rank - 1],
    }


class Runner:
    """Runs a workload's CLI calls pass by pass and checks every output."""

    def __init__(self, cli, ops, seed: int, probe, tracer=None):
        self.cli = cli
        self.ops = ops
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}
        self.next_op_id = 0

    def _call(self, op, traced: bool):
        """(exit code or None, problems, wall s, cpu s, probe-relative time)."""
        code, problems = None, []
        with self.probe.around_call(), contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is not None:
                self.tracer.enabled = traced
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                # Looked up at call time so the tracer's wrapper is used.
                code = self.cli.main(op.argv)
            except (Exception, SystemExit) as error:  # a failed operation
                problems.append(f"raised {type(error).__name__}: {error}")
            finally:
                wall = time.perf_counter() - start
                cpu = time.process_time() - cpu_start
                if self.tracer is not None:
                    self.tracer.enabled = False
        wall -= self.probe.in_call_s
        cpu -= self.probe.in_call_s
        return code, problems, wall, cpu, wall / self.probe.speed_s

    def run_pass(self, index: int, traced: bool = False) -> dict:
        """One pass over the workload's CLI calls, each checked afterwards.

        ``wall_s`` and ``cpu_s`` sum the calls alone, without the probe's
        in-call samples.  ``relative`` sums each call's wall time over the
        probe's median sample time for that call.
        """
        from workloads import check_output, csv_digests

        record = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "relative": 0.0,
                  "probe_s": [], "op_ids": []}
        for op in self.ops:
            record["op_ids"].append(self.next_op_id)
            if self.tracer is not None:
                self.tracer.op_id = self.next_op_id
            self.next_op_id += 1
            self.attempted += 1
            code, problems, wall, cpu, relative = self._call(op, traced)
            record["wall_s"] += wall
            record["cpu_s"] += cpu
            record["relative"] += relative
            record["probe_s"].append(self.probe.speed_s)
            if code == 0:
                digests = csv_digests(op)
                reference = self.reference.setdefault(op.label, digests)
                if digests != reference:
                    problems.append("CSV bytes differ from the first pass")
                check_rng = random.Random(f"{self.seed}:{op.label}:{index}")
                try:
                    problems.extend(check_output(op, check_rng))
                except (OSError, LookupError, ValueError) as error:  # malformed output
                    problems.append(f"output unreadable: {type(error).__name__}: {error}")
            elif code is not None:
                problems.append(f"exit code {code}")
            if problems:
                self.failed += 1
                self.errors.extend(f"{op.label} pass {index}: {p}" for p in problems[:3])
        return record


def timed_passes(runner: Runner, seconds: float, tracer=None) -> list[dict]:
    """Passes until ``seconds`` have elapsed; at least one of each kind.

    With a tracer, passes alternate untraced and traced, so host drift falls
    on both sides of the tracing-overhead estimate alike.
    """
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(runner.run_pass(len(passes) + 1, traced))
        finally:
            if traced:
                tracer.uninstall()
    return passes


def _csv_totals(ops) -> tuple[int, int]:
    """(data rows, bytes) over the CSVs listed in each operation's manifest."""
    rows = size = 0
    for op in ops:
        if not (op.out_dir / "manifest.json").is_file():
            continue  # the call failed; it is already counted as failed
        manifest = json.loads((op.out_dir / "manifest.json").read_text(encoding="utf-8"))
        for name, entry in manifest["files"].items():
            size += entry["bytes"]
            lines = (op.out_dir / name).read_text(encoding="utf-8").splitlines()
            rows += sum(1 for line in lines if not line.startswith("#")) - 1
    return rows, size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "irtr_lab" / "cli.py").is_file():
        return _fail(f"no irtr_lab sources under {src}; run from a source checkout")
    if not 0 <= args.seed < 2**63:
        return _fail("--seed must be a nonnegative 63-bit integer")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    os.environ.pop("IRTR_LAB_THREADS", None)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    stat_before = _proc_stat_cpu()
    run_start = time.perf_counter()

    if args.trace:
        import_breakdown = measure_import_breakdown(src)
    else:
        setup_times = measure_setup(src)

    import numpy as np
    import scipy

    import irtr_lab
    import irtr_lab.cli as cli
    from hostspeed import HostSpeedProbe
    from workloads import WORKLOADS

    if Path(irtr_lab.__file__).resolve().parent != (src / "irtr_lab").resolve():
        return _fail(f"imported irtr_lab from {irtr_lab.__file__}, not from {src}")

    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    ops = WORKLOADS[args.workload](args.seed, work)
    rows_per_pass = sum(op.data_rows for op in ops)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    runner = Runner(cli, ops, args.seed, HostSpeedProbe(in_call=not args.trace), tracer)
    warm_start = time.perf_counter()
    runner.run_pass(0)
    warm_up_s = time.perf_counter() - warm_start

    passes = timed_passes(runner, args.seconds, tracer)
    walls = [p["wall_s"] for p in passes if not p["traced"]]
    relative = [p["relative"] for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = tracer.layer_metrics([(p["op_ids"], p["wall_s"]) for p in traced])
        metrics.update(import_breakdown)
        metrics["experiments.csv_rows"], metrics["experiments.csv_bytes"] = _csv_totals(ops)
        # Compared in cal, so a change of host speed between passes cancels.
        traced_relative = statistics.median(p["relative"] for p in traced)
        share = traced_relative / statistics.median(relative) - 1.0
        metrics["trace.overhead_s"] = share * statistics.median(walls)
        metrics["trace.overhead_share"] = 100.0 * share
        tracer.write_csv(root / WORK_DIR / f"{args.workload}.spans.csv")
    else:
        metrics = {
            "wall_cal": statistics.median(relative),
            "points_per_cal": rows_per_pass * len(relative) / sum(relative),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    if set(metrics) != set(declared):
        return _fail(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(metrics) ^ set(declared))}"
        )

    stat_after = _proc_stat_cpu()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(src),
        "thread_env": {
            name: os.environ.get(name) for name in (*THREAD_VARIABLES, "IRTR_LAB_THREADS")
        },
        "operations_per_pass": [op.label for op in ops],
        "rows_per_pass": rows_per_pass,
        "warm_up_s": warm_up_s,
        "passes": [
            {key: value for key, value in p.items() if key != "op_ids"} for p in passes
        ],
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": tail_percentile(walls),
        "wall_cal_tail": tail_percentile(relative),
        "host_steal_share": _steal_share(stat_before, stat_after),
        "run_s": time.perf_counter() - run_start,
        "errors": runner.errors[:20],
    }
    if not args.trace:
        context["setup_samples_s"] = setup_times
    print(json.dumps({"context": context}))

    result = {
        "correct": runner.failed == 0
        and all(math.isfinite(value) for value in metrics.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
