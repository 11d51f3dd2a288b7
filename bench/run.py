#!/usr/bin/env python3
"""End-to-end benchmark of the softaug command line.

Run from the root of a checkout:

    python3 bench/run.py --workload train_soft --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every iteration runs the workload's commands as a user
would, one ``python -m softaug.cli`` process per command, and the run
reports medians of wall time, CPU time and peak memory. With ``--trace 1``
the commands run once as processes, then in this process untraced and
traced (see tracing.py); the run reports per-layer counts and seconds.
Every run checks the artifacts the commands write. The last line of
standard output is one JSON object with the metrics BENCHMARK.json names;
the lines before it print every metric with its unit, the environment and
the artifact digests. See bench/README.md.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CONFIGS = {
    "gaussian": ROOT / "configs" / "soft_synth.ini",
    "uniform": ROOT / "configs" / "hard_synth.ini",
    "resize_crop": BENCH / "configs" / "resize_crop_synth.ini",
    "standard": BENCH / "configs" / "standard_synth.ini",
}
SOFT, HARD = CONFIGS["gaussian"], CONFIGS["uniform"]

IMPORT_REPEATS = 7        # fresh-process imports behind setup_s
COMPARE_SEEDS = 1         # one hard and one soft training per compare
OCCLUSION_TRIALS = 10
OCCLUSION_LAMBDAS = 5     # the CLI's default grid
SAMPLER_DRAWS = 100_000   # the CLI's default
DEADLINE_S = 150          # stop starting work; the run must end within 180 s
TRAIN_ARTIFACTS = ("epoch_log.csv", "final_metrics.csv", "checkpoint.bin")


class CheckFailed(Exception):
    """An artifact is missing, malformed, or differs from the first run."""


# -- inputs -----------------------------------------------------------------

@dataclass(frozen=True)
class Arm:
    """The numbers of one experiment INI that the checks need."""

    epochs: int
    num_classes: int
    train_images: int
    test_images: int
    hidden: tuple[int, ...]

    @classmethod
    def read(cls, path: Path) -> "Arm":
        ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        ini.read_string(path.read_text(), source=str(path))
        classes = ini.getint("dataset", "num_classes")
        return cls(ini.getint("train", "epochs"), classes,
                   classes * ini.getint("dataset", "train_per_class"),
                   classes * ini.getint("dataset", "test_per_class"),
                   tuple(int(h) for h in ini.get("train", "hidden").split(",")))


@dataclass
class Step:
    """One CLI command of a workload and the checks on what it writes."""

    label: str                       # unique in the workload; names its out dir
    argv: list[str]                  # arguments after `softaug`, without --out
    check: Callable[[Path], dict]    # raises CheckFailed; returns quality facts
    artifacts: tuple[str, ...]       # deterministic files, digested every run


@dataclass
class Plan:
    setup: list[Step]
    steps: list[Step]
    # report-only rate: name -> (items per iteration, labels of the steps timed)
    rates: dict[str, tuple[float, tuple[str, ...]]]
    quality_step: str                # label whose check facts are the quality


def _csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {text!r}")
    return value


def _unit_interval(name: str, text: str) -> float:
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise CheckFailed(f"{name} = {value} outside [0, 1]")
    return value


def check_train(arm: Arm) -> Callable[[Path], dict]:
    def check(out: Path) -> dict:
        log = _csv(out / "epoch_log.csv")
        if log[0] != ["epoch", "mean_loss", "top1_error", "lr", "sigma"]:
            raise CheckFailed(f"epoch_log.csv header {log[0]}")
        if [row[0] for row in log[1:]] != [str(e) for e in range(arm.epochs)]:
            raise CheckFailed(f"epoch_log.csv has {len(log) - 1} rows, not {arm.epochs}")
        for row in log[1:]:
            for cell in row:
                _number(cell)
        final = dict(_csv(out / "final_metrics.csv")[1:])
        facts = {key: _unit_interval(key, final[key]) for key in ("test_top1_error", "test_ece")}
        data = (out / "checkpoint.bin").read_bytes()
        magic, version, count = struct.unpack_from("<8sII", data)
        sizes = struct.unpack_from(f"<{count}I", data, 16)
        expected = (3 * 32 * 32, *arm.hidden, arm.num_classes)
        length = 16 + 4 * count + 8 * sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
        if (magic, version, sizes, len(data)) != (b"SAMLP001", 1, expected, length):
            raise CheckFailed(f"checkpoint.bin header {magic!r} v{version} {sizes}, "
                              f"{len(data)} bytes")
        return facts
    return check


def check_compare(seed: int) -> Callable[[Path], dict]:
    def check(out: Path) -> dict:
        rows = _csv(out / "compare.csv")
        if rows[0] != ["arm", "seed", "top1_error", "ece"]:
            raise CheckFailed(f"compare.csv header {rows[0]}")
        seeds = [str(seed + i) for i in range(COMPARE_SEEDS)]
        arms = {HARD.stem: [], SOFT.stem: []}
        for arm, run_seed, err, ece in rows[1:-1]:
            arms[arm].append((run_seed, _unit_interval("top1_error", err),
                              _unit_interval("ece", ece)))
        for arm, runs in arms.items():
            if [run[0] for run in runs] != seeds:
                raise CheckFailed(f"compare.csv arm {arm} has seeds {[r[0] for r in runs]}")
        means = {arm: [statistics.fmean(run[k] for run in runs) for k in (1, 2)]
                 for arm, runs in arms.items()}
        label, _, d_err, d_ece = rows[-1]
        delta = [_number(d_err), _number(d_ece)]
        want = [b - a for a, b in zip(means[HARD.stem], means[SOFT.stem])]
        if label != "delta" or any(abs(d - w) > 1e-5 for d, w in zip(delta, want)):
            raise CheckFailed(f"compare.csv delta row {rows[-1]} != B - A = {want}")
        return {"test_top1_error": means[SOFT.stem][0], "test_ece": means[SOFT.stem][1],
                "delta_top1_error": delta[0], "delta_ece": delta[1]}
    return check


def check_occlusion(clean_metrics: Path) -> Callable[[Path], dict]:
    def check(out: Path) -> dict:
        rows = _csv(out / "occlusion.csv")
        if rows[0] != ["lambda", "top1_error"] or len(rows) != 1 + OCCLUSION_LAMBDAS:
            raise CheckFailed(f"occlusion.csv has header {rows[0]} and {len(rows) - 1} rows")
        errors = [(_number(lam), _unit_interval("top1_error", err)) for lam, err in rows[1:]]
        clean = _number(dict(_csv(clean_metrics)[1:])["test_top1_error"])
        if errors[0] != (0.0, clean):
            raise CheckFailed(f"occlusion.csv first row {errors[0]} != (0, clean error {clean})")
        return {}
    return check


def check_sampler(kind: str) -> Callable[[Path], dict]:
    def check(out: Path) -> dict:
        rows = dict(_csv(out / "sampler_stats.csv")[1:])
        if rows["kind"] != kind or int(rows["draws"]) != SAMPLER_DRAWS:
            raise CheckFailed(f"sampler_stats.csv kind {rows['kind']}, draws {rows['draws']}")
        hist = sum(int(rows[f"vis_hist_bin_{m}"]) for m in range(1, 11))
        if hist != SAMPLER_DRAWS:
            raise CheckFailed(f"visibility histogram holds {hist} draws")
        for key, value in rows.items():
            if key != "kind":
                _number(value)
        return {}
    return check


def plan_for(workload: str, seed: int, work: Path) -> Plan:
    """The commands of one workload; every random choice follows ``seed``."""
    hard, soft = Arm.read(HARD), Arm.read(SOFT)
    train_soft = Step("train", ["train", "--config", str(SOFT), "--seed", str(seed)],
                      check_train(soft), TRAIN_ARTIFACTS)
    if workload == "train_soft":
        samples = soft.epochs * soft.train_images
        return Plan([], [train_soft], {"train_samples_per_s": (samples, ("train",))}, "train")
    if workload == "compare_arms":
        compare = Step("compare", ["compare", "--config-a", str(HARD), "--config-b", str(SOFT),
                                   "--seeds", str(COMPARE_SEEDS), "--seed", str(seed)],
                       check_compare(seed), ("compare.csv",))
        samples = COMPARE_SEEDS * (hard.epochs * hard.train_images
                                   + soft.epochs * soft.train_images)
        return Plan([], [compare], {"train_samples_per_s": (samples, ("compare",))}, "compare")
    if workload == "probe_eval":
        checkpoint = work / "setup" / "train"
        occlusion = Step("occlusion", ["occlusion", "--config", str(SOFT), "--checkpoint",
                                       str(checkpoint / "checkpoint.bin"), "--seed", str(seed),
                                       "--trials", str(OCCLUSION_TRIALS)],
                         check_occlusion(checkpoint / "final_metrics.csv"), ("occlusion.csv",))
        samplers = [Step(f"sampler_{kind}", ["sampler-stats", "--config", str(path),
                                             "--seed", str(seed)],
                         check_sampler(kind), ("sampler_stats.csv",))
                    for kind, path in CONFIGS.items()]
        images = OCCLUSION_LAMBDAS * OCCLUSION_TRIALS * soft.test_images
        rates = {"occlusion_images_per_s": (images, ("occlusion",)),
                 "sampler_draws_per_s": (len(samplers) * SAMPLER_DRAWS,
                                         tuple(step.label for step in samplers))}
        return Plan([train_soft], [occlusion, *samplers], rates, "train")
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("train_soft", "compare_arms", "probe_eval")


# -- running commands -------------------------------------------------------

@dataclass
class Result:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: str = ""


def cli_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(argv: list[str], log: Path, deadline: float) -> Result:
    """Run one child to completion; CPU and peak memory come from its own
    rusage. The child is killed when the run's deadline passes, or when
    this process is interrupted or terminated."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=fh, stderr=fh,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss * 1024 / 1e6, log.read_text(errors="replace")[-500:])


def run_in_process(argv: list[str]) -> Result:
    """Call the CLI entry point in this process, output captured; only the
    exit code and wall time are measured."""
    import softaug.cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = softaug.cli.main(argv)
    wall = time.perf_counter() - start
    return Result(code, wall, 0.0, 0.0, buffer.getvalue()[-500:])


class Ledger:
    """Attempts, failures, and the digests of the first run of each artifact."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def record(self, step: Step, out: Path, result: Result) -> dict | None:
        self.attempted += 1
        try:
            if result.code != 0:
                raise CheckFailed(f"exit code {result.code}: {result.log.strip()}")
            facts = step.check(out)
            for name in step.artifacts:
                key = f"{step.label}/{name}"
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                if self.digests.setdefault(key, digest) != digest:
                    raise CheckFailed(f"{key} differs from the first run")
            return facts
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, struct.error) as exc:
            self.fail(f"{step.label}: {type(exc).__name__}: {exc}")
            return None


def run_steps(steps: list[Step], work: Path, ledger: Ledger, deadline: float,
              in_process: bool = False) -> tuple[dict[str, Result], dict[str, dict]]:
    results, facts = {}, {}
    for step in steps:
        out = work / step.label
        shutil.rmtree(out, ignore_errors=True)
        argv = [*step.argv, "--out", str(out)]
        if in_process:
            result = run_in_process(argv)
        else:
            work.mkdir(parents=True, exist_ok=True)
            result = run_process([sys.executable, "-m", "softaug.cli", *argv],
                                 work / f"{step.label}.log", deadline)
        results[step.label] = result
        step_facts = ledger.record(step, out, result)
        if step_facts is not None:
            facts[step.label] = step_facts
    return results, facts


# -- statistics and environment ---------------------------------------------

def summary(samples: list[float], unit: str) -> dict:
    """Median, the highest of p50/p90/p95/p99 with at least ten samples
    beyond it (nearest rank; none below 20 samples), the count, and the
    samples in run order."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for p in (99, 95, 90, 50):
        if n * (100 - p) / 100 >= 10:
            tail = [p, ordered[math.ceil(p / 100 * n) - 1]]
            break
    return {"value": statistics.median(ordered), "unit": unit, "n": n, "tail": tail,
            "min": ordered[0], "max": ordered[-1], "samples": samples}


def blas_threads() -> int | None:
    """Thread count reported by a loaded OpenBLAS, if one can be called."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "configs").glob("*.ini")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {key: os.environ[key] for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if key in os.environ},
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


# -- the two kinds of run ---------------------------------------------------

def measure(plan: Plan, work: Path, seconds: int, deadline: float, ledger: Ledger) -> dict:
    """Untraced: repeat the workload's commands until ``seconds`` have passed."""
    imports = [run_process([sys.executable, "-c", "import softaug"],
                           work / "import.log", deadline)
               for _ in range(IMPORT_REPEATS)]
    if any(result.code != 0 for result in imports):
        raise SystemExit(f"bench: cannot import softaug from {SRC}: {imports[0].log}")
    _, setup_facts = run_steps(plan.setup, work / "setup", ledger, deadline)
    iterations: list[dict[str, Result]] = []
    facts: dict[str, dict] = {}
    start = time.monotonic()
    while True:
        results, step_facts = run_steps(plan.steps, work / "iter", ledger, deadline)
        iterations.append(results)
        facts = facts or step_facts
        now = time.monotonic()
        if now - start >= seconds or now + (now - start) / len(iterations) > deadline:
            break

    walls = [sum(r.wall_s for r in results.values()) for results in iterations]
    metrics = {
        "setup_s": summary([r.wall_s for r in imports], "s"),
        "wall_s": summary(walls, "s"),
        "cpu_s": summary([sum(r.cpu_s for r in results.values()) for results in iterations],
                         "s"),
        "peak_rss_mb": summary([max(r.rss_mb for r in results.values())
                                for results in iterations], "MB"),
    }
    for name, (items, labels) in plan.rates.items():
        metrics[name] = summary(
            [items / sum(results[label].wall_s for label in labels) for results in iterations],
            "1/s")
    quality = {**setup_facts, **facts}.get(plan.quality_step, {})
    for name, value in quality.items():
        metrics[name] = {"value": value, "unit": "fraction"}
    metrics["failed_share"] = {"value": ledger.failed / max(ledger.attempted, 1),
                               "unit": "fraction"}
    return metrics


def trace(plan: Plan, work: Path, deadline: float, ledger: Ledger,
          names: list[str]) -> dict[str, float]:
    """Traced: one untraced pass as processes, then one untraced and one
    traced pass in this process; all three must write identical bytes."""
    run_steps(plan.setup, work / "setup", ledger, deadline)
    run_steps(plan.steps, work / "process", ledger, deadline)
    plain, _ = run_steps(plan.steps, work / "plain", ledger, deadline, in_process=True)
    with tracing.Tracer() as tracer:
        traced = {}
        for run_id, step in enumerate(plan.steps, 1):
            tracer.run_id = run_id
            traced.update(run_steps([step], work / "traced", ledger, deadline,
                                    in_process=True)[0])
    tracer.write(work / "spans.jsonl")

    train_s = tracer.total("model.train", 1)
    accounted = tracer.total("model.train", 2) + tracer.children_seconds("model.train")
    if abs(train_s - accounted) > 1e-6 * max(train_s, 1.0):
        ledger.fail(f"model.train {train_s} s != self + children {accounted} s")

    overhead = (sum(r.wall_s for r in traced.values())
                - sum(r.wall_s for r in plain.values()))
    return {name: overhead if name == "trace.overhead_s" else tracing.layer_metric(tracer, name)
            for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn termination into SystemExit so run_process reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S

    missing = [str(path.relative_to(ROOT)) for path in
               (SRC / "softaug" / "cli.py", *CONFIGS.values(), ROOT / "BENCHMARK.json")
               if not path.is_file()]
    if missing:
        print(f"bench: not a softaug checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    work = OUT / f"{args.workload}-s{args.seed}" / ("trace" if args.trace else "run")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = plan_for(args.workload, args.seed, work)
    ledger = Ledger()
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed)}

    if args.trace:
        sys.path.insert(0, str(SRC))
        unknown = [name for name in units
                   if name != "trace.overhead_s" and not tracing.can_compute(name)]
        if unknown:
            raise SystemExit(f"bench: no tracer for per-layer metrics {unknown}")
        values = trace(plan, work, deadline, ledger, list(units))
        report["per_layer"] = {name: {"value": values[name], "unit": units[name]}
                               for name in units}
        metrics = report["per_layer"]
    else:
        report["end_to_end"] = measure(plan, work, args.seconds, deadline, ledger)
        metrics = {name: {"value": report["end_to_end"][name]["value"], "unit": unit}
                   for name, unit in units.items()}
    report.update(attempted=ledger.attempted, failed=ledger.failed, errors=ledger.errors,
                  digests=ledger.digests)
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for path in work.iterdir():
        if path.is_dir():  # artifacts; the digests above stand for them
            shutil.rmtree(path)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(report["env"]))
    for name, entry in report.get("end_to_end", report.get("per_layer")).items():
        extra = {key: entry[key] for key in ("n", "tail", "min", "max") if key in entry}
        print(f"metric {name} {entry['value']!r} {entry['unit']}"
              + (f"  {json.dumps(extra)}" if extra else ""))
    for key, digest in sorted(ledger.digests.items()):
        print(f"sha256 {key} {digest}")
    for error in ledger.errors:
        print(f"error {error}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
