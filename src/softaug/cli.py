"""Command line interface and experiment configuration.

Experiments are described by small INI files with [dataset], [sampler],
[softening], [train], and [output] sections. Every command runs in one
order: parse, check the config, data and checkpoint, make the run
directory with ``_run_dir``, work, write. The directory is ``--out``,
else the config's [output] dir. ``_run_dir`` first removes the files
the command writes, so a rerun that fails in its work leaves the
directory but no earlier run's artifacts, then writes the config
snapshots byte for byte, so results stay attributable. A failed check
creates nothing. Exit codes: 0 success, 2 invalid config or inputs, 3
numeric failure during training.

The parser bounds the integer flags (``--seed`` >= 0, ``--points`` >= 2,
``--trials``, ``--draws``, ``--seeds`` >= 1) and rejects an empty
``--out``: such a value exits 2 with a usage line before the config is
read.

``compare`` trains its arm x seed models in a pool of worker processes
forked from this one on Linux, each put on one OpenBLAS thread as it
starts; elsewhere it runs them in this process, one after another.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import os
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    IMAGE_EDGE,
    LabeledDataset,
    ParseError,
    check_synth_classes,
    compute_stats,
    normalize,
    parse_cifar10,
    parse_cifar100,
    synth_shapes,
)
from .geometry import _covered_fraction
from .metrics import (
    DEFAULT_OCCLUSION_GRID,
    _bin_sums,
    ece,
    evaluate,
    occlusion_sweep,
    top1_error,
    write_sweep_csv,
)
from .metrics import write_csv as _write_csv  # the benchmark tracer patches this name
from .model import (
    CheckpointError,
    EpochStats,
    NonFiniteLossError,
    TrainConfig,
    _set_blas_threads,
    check_trainable,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .sampling import (
    GaussianCropConfig,
    RandomSource,
    ResizeCropConfig,
    StandardCropConfig,
    UniformCropConfig,
    _SAME_SIZE,
    _windows,
)
from .softening import SofteningPolicy, soften

# seed offset separating a synthetic test split from its train split
TEST_SEED_OFFSET = 1_000_003

# compare forks workers on Linux only: Python's docs call fork unsafe on macOS; Windows has none
_FORK_WORKERS = sys.platform == "linux"

# section -> key -> type: the one list of INI keys; any other key is rejected
_KEYS = {
    "dataset": {"source": str, "num_classes": int, "train_per_class": int,
                "test_per_class": int, "seed": int, "train_path": str, "test_path": str},
    "sampler": {"kind": str, "sigma": float, "length": int, "range": int, "min_length": int,
                "width": int, "height": int, "scale_min": float, "scale_max": float,
                "ratio_min": float, "ratio_max": float},
    "softening": {"mode": str, "k": float, "p_min": float, "alpha": float},
    "train": {"epochs": int, "batch_size": int, "lr0": float, "momentum": float,
              "weight_decay": float, "seed": int, "hidden": str,  # a comma list, split below
              "sigma_decay_final_epochs": int, "sigma_decay_factor": float},
    "output": {"dir": str},
}

# the one list of [dataset] sources: (required keys, optional keys, CIFAR parser, classes)
_SOURCES = {
    "synth": ({"num_classes", "train_per_class", "test_per_class"}, {"seed"}, None, None),
    "cifar10": ({"train_path", "test_path"}, {"num_classes"}, parse_cifar10, 10),
    "cifar100": ({"train_path", "test_path"}, {"num_classes"}, parse_cifar100, 100),
}

# [sampler] kind -> (required keys, optional keys, config class): the one list of kinds
_KINDS = {
    "gaussian": ({"sigma"}, {"length"}, GaussianCropConfig),
    "uniform": ({"range"}, {"length"}, UniformCropConfig),
    "resize_crop": ({"sigma", "min_length"}, {"width", "height"}, ResizeCropConfig),
    "standard": (set(), {"width", "height", "scale_min", "scale_max",
                         "ratio_min", "ratio_max"}, StandardCropConfig),
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class DatasetSpec:
    """Everything that determines the data; arms compare only on equal specs."""

    source: str
    num_classes: int
    train_per_class: int = 0
    test_per_class: int = 0
    seed: int = 0
    train_path: str = ""
    test_path: str = ""

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {tuple(_SOURCES)}, got {self.source!r}")
        fixed = _SOURCES[self.source][3]
        if fixed is None:
            check_synth_classes(self.num_classes)
            for key in ("train_per_class", "test_per_class"):
                if getattr(self, key) < 1:
                    raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        elif self.num_classes != fixed:
            raise ValueError(f"num_classes must be {fixed} for {self.source}, "
                             f"got {self.num_classes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        required, optional = _SOURCES[self.source][:2]
        for field in fields(self)[1:]:  # all but source
            if field.name not in required | optional and getattr(self, field.name) != field.default:
                raise ValueError(f"{field.name} does not apply to source {self.source}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment INI: its raw bytes, the data, how to train, where to write."""

    raw: bytes
    dataset: DatasetSpec
    train: TrainConfig
    out_dir: str


def _section(parser: configparser.ConfigParser, name: str, required: tuple = ()) -> dict:
    """Every key ``name`` sets, parsed by its ``_KEYS`` type. A ``required``
    key left out is an error; any other is absent, so its default applies."""
    values = {}
    for key in parser.options(name):
        raw = parser.get(name, key).strip()
        try:
            values[key] = _KEYS[name][key](raw)
        except ValueError:
            raise ConfigError(f"[{name}] {key}: cannot parse {raw!r}") from None
    for key in required:
        if key not in values:
            raise ConfigError(f"[{name}] is missing required key '{key}'")
    return values


def _choose(values: dict, section: str, selector: str, choices: dict) -> str:
    """Pop ``selector`` from ``values`` and check the keys left against
    the (required, optional) sets its row starts with; returns the choice."""
    choice = values.pop(selector)
    if choice not in choices:
        raise ConfigError(f"[{section}] {selector} must be one of {tuple(choices)}, got {choice!r}")
    required, optional = choices[choice][:2]
    for key in values:
        if key not in required | optional:
            raise ConfigError(f"[{section}] {key} does not apply to {selector}={choice}")
    for key in _KEYS[section]:
        if key in required and key not in values:
            raise ConfigError(f"[{section}] {selector}={choice} requires key '{key}'")
    return choice


def _build(section: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)`` with its ValueError naming ``section``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _at_least(low: int):
    """argparse type of an integer flag that must be >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'abc'"
    return parse


def _nonempty(text: str) -> str:
    """argparse type of ``--out``: an empty value is an error, not the config's dir."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _parse_list(raw: str, kind, what: str) -> tuple:
    """The comma-separated ``kind`` values of ``raw``, blank items skipped;
    a ConfigError naming ``what`` if none is left or one does not parse."""
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"{what}: empty list")
    try:
        return tuple(kind(part) for part in parts)
    except ValueError:
        raise ConfigError(f"{what}: cannot parse {raw!r}") from None


def _parse_sampler(parser: configparser.ConfigParser):
    values = _section(parser, "sampler", ("kind",))
    config = _KINDS[_choose(values, "sampler", "kind", _KINDS)][2]
    if config in _SAME_SIZE:
        # every source renders IMAGE_EDGE-px images
        length = values.pop("length", IMAGE_EDGE)
        if length != IMAGE_EDGE:
            raise ConfigError(f"[sampler] length {length} != image edge {IMAGE_EDGE}")
        if config is GaussianCropConfig:
            return _build("sampler", config, values["sigma"], IMAGE_EDGE)
        range_r = values["range"]
        if range_r > IMAGE_EDGE:
            raise ConfigError(f"[sampler] range {range_r} exceeds image edge {IMAGE_EDGE}")
        return _build("sampler", config, range_r)
    return _build("sampler", config, **{"width": 224, "height": 224, **values})


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate one experiment INI.

    Unknown sections or keys are rejected so typos fail loudly instead
    of silently reverting to defaults. Keys the INI leaves out take the
    library dataclasses' defaults (the INI alone defaults a ``resize_crop``
    or ``standard`` width and height, to 224); the dataclasses check each
    value and this function checks the rules that span keys or sections.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        # drop a leading UTF-8 byte-order mark, as Windows Notepad writes
        parser.read_string(raw.decode("utf-8").removeprefix("\ufeff"), source=path)
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None

    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"[DEFAULT] is not supported; set {sorted(parser.defaults())} per section")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        extra = set(parser.options(section)) - _KEYS[section].keys()
        if extra:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(extra)}")
    for section in _KEYS:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    values = _section(parser, "dataset", ("source",))
    source = _choose(values, "dataset", "source", _SOURCES)
    values.setdefault("num_classes", _SOURCES[source][3])  # synth requires the key
    dataset = _build("dataset", DatasetSpec, source, **values)
    sampler = _parse_sampler(parser)

    chance = 1.0 / dataset.num_classes
    softening = _section(parser, "softening", ("mode",))
    if softening.pop("p_min", chance) != chance:
        raise ConfigError(
            f"[softening] p_min is derived as 1/num_classes = {chance!r}; "
            f"remove the key or set it to exactly that value"
        )
    policy = _build("softening", SofteningPolicy, p_min=chance, **softening)
    options = _section(parser, "train", ("epochs", "batch_size", "lr0"))
    if "hidden" in options:
        options["hidden_sizes"] = _parse_list(options.pop("hidden"), int, "[train] hidden")
    train_cfg = _build("train", TrainConfig, policy=policy, sampler=sampler, **options)
    out_dir = _section(parser, "output", ("dir",))["dir"]
    if not out_dir:  # Path("") would be the current directory
        raise ConfigError("[output] dir is empty")
    return ExperimentConfig(raw, dataset, train_cfg, out_dir)


def build_datasets(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Construct and normalize the train/test splits a spec describes.

    Normalization stats always come from the train split. A CIFAR file
    that is empty or malformed is a ParseError whose message starts with
    ``{split}_path {path}: ``, raised before any training.
    """
    parse = _SOURCES[spec.source][2]
    if parse is None:
        train_set = synth_shapes(spec.train_per_class, spec.num_classes, spec.seed, "train")
        test_set = synth_shapes(spec.test_per_class, spec.num_classes,
                                spec.seed + TEST_SEED_OFFSET, "test")
    else:
        splits = []
        for split, path in (("train", spec.train_path), ("test", spec.test_path)):
            try:
                splits.append(parse(Path(path).read_bytes(), split))
                if len(splits[-1]) == 0:
                    raise ParseError("the file holds no records")
            except ParseError as err:
                raise ParseError(f"{split}_path {path}: {err}") from None
        train_set, test_set = splits
    stats = compute_stats(train_set)
    return normalize(train_set, stats), normalize(test_set, stats)


def _run_dir(args: argparse.Namespace, cfg: ExperimentConfig, writes: tuple,
             *snapshots) -> list[Path]:
    """Make ``--out``, else ``cfg``'s [output] dir, right after the command's checks
    and before its work; remove the files in ``writes``, so none is left from an
    earlier run, then write each (name, raw) config snapshot. Returns the paths of
    ``writes``, in order: the command writes and names its files through them."""
    out = Path(args.out or cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    paths = [out / name for name in writes]
    for path in paths:
        path.unlink(missing_ok=True)
    for name, raw in snapshots:
        (out / name).write_bytes(raw)
    return paths


def cmd_train(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    tcfg = cfg.train if args.seed is None else replace(cfg.train, seed=args.seed)
    check_trainable(tcfg, cfg.dataset.num_classes, IMAGE_EDGE)
    train_set, test_set = build_datasets(cfg.dataset)
    log_csv, metrics_csv, checkpoint = _run_dir(
        args, cfg, ("epoch_log.csv", "final_metrics.csv", "checkpoint.bin"),
        ("config.ini", cfg.raw))
    model, log = train(train_set, tcfg)
    _write_csv(log_csv, [f.name for f in fields(EpochStats)], [astuple(s) for s in log])
    records = evaluate(model, test_set)
    err = top1_error(records)
    report = ece(records)
    _write_csv(metrics_csv, ["metric", "value"],
               [["test_top1_error", err], ["test_ece", report.ece]])
    save_checkpoint(model, str(checkpoint))
    print(f"train: wrote {checkpoint.parent} (test top-1 error {err:.4f}, ece {report.ece:.4f})")


def cmd_curve(args: argparse.Namespace) -> None:
    """One softening curve per requested k, on a shared uniform v grid."""
    cfg = parse_config(args.config)
    policy = cfg.train.policy
    ks = (policy.k,) if args.k_list is None else _parse_list(args.k_list, float, "--k-list")
    curves = [replace(policy, k=k) for k in ks]  # checks every k
    (path,) = _run_dir(args, cfg, ("curve.csv",))
    grid = np.linspace(0.0, 1.0, args.points)
    rows = [[curve.k, float(v), soften(float(v), curve)] for curve in curves for v in grid]
    _write_csv(path, ["k", "v", "p"], rows)
    print(f"curve: wrote {path} "
          f"({len(ks)} curve(s) x {args.points} points, p_min={policy.p_min:g})")


def cmd_occlusion(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    if args.lambdas is not None:
        lambdas = _parse_list(args.lambdas, float, "--lambdas")
        if any(not 0.0 <= lam <= 1.0 for lam in lambdas):
            raise ConfigError(f"--lambdas must lie in [0, 1], got {args.lambdas!r}")
    else:
        lambdas = DEFAULT_OCCLUSION_GRID
    _, test_set = build_datasets(cfg.dataset)
    model = load_checkpoint(args.checkpoint)
    n, c, h, w = test_set.images.shape
    if model.layer_sizes[0] != c * h * w or model.layer_sizes[-1] != test_set.num_classes:
        raise CheckpointError(
            f"checkpoint expects input {model.layer_sizes[0]} and "
            f"{model.layer_sizes[-1]} classes; dataset has input {c * h * w} and "
            f"{test_set.num_classes} classes"
        )
    (path,) = _run_dir(args, cfg, ("occlusion.csv",))
    rows = occlusion_sweep(model, test_set, RandomSource(args.seed), lambdas,
                           trials_per_image=args.trials)
    write_sweep_csv(rows, str(path))
    print(f"occlusion: wrote {path} "
          f"(top-1 error {rows[0][1]:.4f} at lambda={rows[0][0]:g})")


def _visibility_rows(vs: np.ndarray) -> list[list]:
    """Summary plus a 10-bin histogram by ECE's bin rule, ``_bin_sums``."""
    rows = [
        ["mean_visibility", vs.mean()],
        ["min_visibility", vs.min()],
        ["max_visibility", vs.max()],
        ["frac_visibility_positive", float((vs > 0).mean())],
        ["frac_fully_visible", float((vs == 1.0).mean())],
    ]
    return rows + [[f"vis_hist_bin_{m}", int(n)] for m, n in enumerate(_bin_sums(vs, 10), 1)]


def _sampler_stats_rows(sampler, draws: int, seed: int) -> list[list]:
    kind = next(kind for kind, row in _KINDS.items() if row[2] is type(sampler))
    windows = _windows(sampler, draws, IMAGE_EDGE, RandomSource(seed).generator)
    rows: list[list] = [["kind", kind], ["draws", draws]]
    if isinstance(sampler, _SAME_SIZE):
        width = height = IMAGE_EDGE
        # tx, ty, tx, ty, ...: the order of the draws, which the sums follow
        offsets = windows[:, :2].astype(float).reshape(-1)
        rows += [
            ["edge", IMAGE_EDGE],
            ["mean_offset", offsets.mean()],
            ["std_offset", offsets.std()],
            ["min_offset", int(offsets.min())],
            ["max_offset", int(offsets.max())],
        ]
    else:
        width, height = sampler.width, sampler.height
        ws, hs = windows[:, 2].astype(float), windows[:, 3].astype(float)
        rows += [
            ["width", width],
            ["height", height],
            ["mean_w", ws.mean()],
            ["mean_h", hs.mean()],
            ["min_w", int(ws.min())],
            ["max_w", int(ws.max())],
            ["min_h", int(hs.min())],
            ["max_h", int(hs.max())],
            ["mean_area_fraction", float((ws * hs / (width * height)).mean())],
        ]
    return rows + _visibility_rows(_covered_fraction(*windows.T, width, height))


def cmd_sampler_stats(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    (path,) = _run_dir(args, cfg, ("sampler_stats.csv",))
    rows = _sampler_stats_rows(cfg.train.sampler, args.draws, args.seed)
    _write_csv(path, ["metric", "value"], rows)
    print(f"sampler-stats: wrote {path}")


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A pool of ``workers`` processes forked from this one, numpy and ``softaug``
    imported, each put on one OpenBLAS thread whatever count this one runs. On exit
    the pending jobs are cancelled, the running ones finished and every worker
    joined. A worker that died surfaces as a ChildProcessError."""
    # imported here so the commands without a pool skip their import time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # the executor forks every worker at the first submit, before it starts its manager thread
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_blas_threads, initargs=(1,))
    try:
        yield pool
    except BrokenProcessPool as exc:
        # killed or out of memory: an OS-level failure, which main exits 2 on
        raise ChildProcessError(str(exc)) from None
    finally:
        pool.shutdown(cancel_futures=True)


def _train_eval(spec: DatasetSpec, tcfg: TrainConfig) -> tuple[float, float]:
    """One compare job: train on ``spec``'s train split and return (top-1
    error, ECE) on its test split. A pool worker renders the splits itself,
    which is cheaper than rendering them once before the fork."""
    train_set, test_set = build_datasets(spec)
    model, _ = train(train_set, tcfg)
    records = evaluate(model, test_set)
    return top1_error(records), ece(records).ece


def cmd_compare(args: argparse.Namespace) -> None:
    cfg_a = parse_config(args.config_a)
    cfg_b = parse_config(args.config_b)
    if cfg_a.dataset != cfg_b.dataset:
        raise ConfigError(
            "compare needs both arms on identical [dataset] settings; "
            f"got {cfg_a.dataset} vs {cfg_b.dataset}"
        )
    spec = cfg_a.dataset
    if _SOURCES[spec.source][2] is None:
        # rendered data: reserved, never touched; a size too large to hold fails before any write
        for per_class in (spec.train_per_class, spec.test_per_class):
            np.empty((spec.num_classes * per_class, 3, IMAGE_EDGE, IMAGE_EDGE))
    else:
        # the spec fixes the shape, but only a decode proves the labels valid
        build_datasets(spec)
    for cfg in (cfg_a, cfg_b):
        check_trainable(cfg.train, spec.num_classes, IMAGE_EDGE)
    (compare_csv,) = _run_dir(args, cfg_a, ("compare.csv",),
                              ("config_a.ini", cfg_a.raw), ("config_b.ini", cfg_b.raw))
    name_a, name_b = Path(args.config_a).stem, Path(args.config_b).stem
    if name_a == name_b:
        name_a += "_a"
        name_b += "_b"
    base = cfg_a.train.seed if args.seed is None else args.seed
    jobs = [(name, replace(cfg.train, seed=base + i))
            for name, cfg in ((name_a, cfg_a), (name_b, cfg_b)) for i in range(args.seeds)]
    if _FORK_WORKERS:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with _worker_pool(min(len(jobs), cpus or 1)) as pool:
            futures = [pool.submit(_train_eval, spec, tcfg) for _, tcfg in jobs]
            # read in submission order: rows and the first error follow the serial order
            results = [future.result() for future in futures]
    else:
        results = [_train_eval(spec, tcfg) for _, tcfg in jobs]
    rows = [[name, tcfg.seed, *result] for (name, tcfg), result in zip(jobs, results)]
    # arm b's mean over its seeds minus arm a's, per metric column
    n = args.seeds
    delta_err, delta_ece = (sum(row[col] for row in rows[n:]) / n
                            - sum(row[col] for row in rows[:n]) / n for col in (2, 3))
    rows.append(["delta", "", delta_err, delta_ece])
    _write_csv(compare_csv, ["arm", "seed", "top1_error", "ece"], rows)
    print(f"compare: wrote {compare_csv} "
          f"({name_b} - {name_a}: top-1 {delta_err:+.4f}, ece {delta_ece:+.4f})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softaug",
        description="Train and probe small classifiers under softened crop targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=_nonempty, default=None,
                     help="override the [output] dir (for compare, arm A's)")
    config = argparse.ArgumentParser(add_help=False, parents=[out])
    config.add_argument("--config", required=True)

    p_train = sub.add_parser("train", parents=[config],
                             help="train one model and write its artifacts")
    p_train.add_argument("--seed", type=_at_least(0), default=None,
                         help="override the [train] seed")
    p_train.set_defaults(func=cmd_train)

    p_curve = sub.add_parser("curve", parents=[config],
                             help="tabulate the softening curve p(v)")
    p_curve.add_argument("--points", type=_at_least(2), default=101)
    p_curve.add_argument("--k-list", default=None,
                         help="comma list of curve exponents (default: config k)")
    p_curve.set_defaults(func=cmd_curve)

    p_occ = sub.add_parser("occlusion", parents=[config],
                           help="error of a checkpoint under growing occlusion")
    p_occ.add_argument("--checkpoint", required=True)
    p_occ.add_argument("--seed", type=_at_least(0), default=0)
    p_occ.add_argument("--lambdas", default=None,
                       help="comma list of occluded area fractions")
    p_occ.add_argument("--trials", type=_at_least(1), default=1)
    p_occ.set_defaults(func=cmd_occlusion)

    p_stats = sub.add_parser("sampler-stats", parents=[config],
                             help="empirical statistics of the configured sampler")
    p_stats.add_argument("--draws", type=_at_least(1), default=100_000)
    p_stats.add_argument("--seed", type=_at_least(0), default=0)
    p_stats.set_defaults(func=cmd_sampler_stats)

    p_cmp = sub.add_parser("compare", parents=[out], help="train two arms over shared seeds")
    p_cmp.add_argument("--config-a", required=True)
    p_cmp.add_argument("--config-b", required=True)
    p_cmp.add_argument("--seeds", type=_at_least(1), default=3)
    p_cmp.add_argument("--seed", type=_at_least(0), default=None,
                       help="base seed (default: arm A's [train] seed)")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # ConfigError, ParseError, CheckpointError are all ValueErrors; a
        # MemoryError means a configured size the machine cannot hold
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
