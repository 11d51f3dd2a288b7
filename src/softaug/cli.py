"""Command line interface and experiment configuration.

Experiments are described by small INI files with [dataset], [sampler],
[softening], [train], and [output] sections. Every run directory gets a
byte-for-byte snapshot of the config it was launched with, written
before any training starts, so results stay attributable. Exit codes:
0 success, 2 invalid config or inputs, 3 numeric failure during
training.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    IMAGE_EDGE,
    LabeledDataset,
    compute_stats,
    normalize,
    parse_cifar10,
    parse_cifar100,
    synth_shapes,
)
from .geometry import crop_visibility, visibility
from .metrics import (
    DEFAULT_OCCLUSION_GRID,
    ece,
    evaluate,
    occlusion_sweep,
    top1_error,
    write_sweep_csv,
)
from .model import (
    CheckpointError,
    NonFiniteLossError,
    SigmaDecay,
    TrainConfig,
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
    draw_gaussian_window,
    draw_resize_crop,
    draw_standard_resize_crop,
    draw_uniform_window,
)
from .softening import SofteningPolicy, label_smoothing_confidence, soften

# seed offset separating a synthetic test split from its train split
TEST_SEED_OFFSET = 1_000_003

_SOURCES = ("synth", "cifar10", "cifar100")

_SECTION_KEYS = {
    "dataset": {"source", "num_classes", "train_per_class", "test_per_class",
                "seed", "train_path", "test_path"},
    "sampler": {"kind", "sigma", "range", "length", "width", "height", "min_length",
                "scale_min", "scale_max", "ratio_min", "ratio_max"},
    "softening": {"mode", "k", "p_min", "alpha"},
    "train": {"epochs", "batch_size", "lr0", "momentum", "weight_decay", "seed",
              "hidden", "sigma_decay_final_epochs", "sigma_decay_factor"},
    "output": {"dir"},
}

_KIND_KEYS = {
    "gaussian": ({"sigma"}, {"length"}),
    "uniform": ({"range"}, {"length"}),
    "resize_crop": ({"sigma", "min_length"}, {"width", "height"}),
    "standard": (set(), {"width", "height", "scale_min", "scale_max",
                         "ratio_min", "ratio_max"}),
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
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment INI: its raw bytes, the data, how to train, where to write."""

    path: str
    raw: bytes
    dataset: DatasetSpec
    train: TrainConfig
    out_dir: str


def _value(parser: configparser.ConfigParser, section: str, key: str, kind,
           default=None, required: bool = False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
        return default
    raw = parser.get(section, key).strip()
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _given(parser: configparser.ConfigParser, section: str, kinds: dict) -> dict:
    """The keys of ``kinds`` that ``section`` sets, parsed; absent keys are
    left out so the dataclass default applies."""
    return {key: _value(parser, section, key, kind)
            for key, kind in kinds.items() if parser.has_option(section, key)}


def _build(section: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)`` with its ValueError naming ``section``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _parse_hidden(raw: str) -> tuple[int, ...]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ValueError("empty")
    return tuple(int(part) for part in parts)


def _parse_dataset(parser: configparser.ConfigParser) -> DatasetSpec:
    source = _value(parser, "dataset", "source", str, required=True)
    if source not in _SOURCES:
        raise ConfigError(f"[dataset] source must be one of {_SOURCES}, got {source!r}")
    if source == "synth":
        foreign = ("train_path", "test_path")
        required = ("num_classes", "train_per_class", "test_per_class")
    else:
        foreign = ("train_per_class", "test_per_class", "seed")
        required = ("train_path", "test_path")
    for key in foreign:
        if parser.has_option("dataset", key):
            raise ConfigError(f"[dataset] {key} does not apply to source={source}")
    fields = _given(parser, "dataset", {
        "num_classes": int, "train_per_class": int, "test_per_class": int, "seed": int,
        "train_path": str, "test_path": str})
    if source != "synth":
        fixed = 10 if source == "cifar10" else 100
        if fields.setdefault("num_classes", fixed) != fixed:
            raise ConfigError(f"[dataset] num_classes must be {fixed} for {source}")
    for key in required:
        if key not in fields:
            raise ConfigError(f"[dataset] is missing required key '{key}'")
    return _build("dataset", DatasetSpec, source, **fields)


def _parse_sampler(parser: configparser.ConfigParser):
    kind = _value(parser, "sampler", "kind", str, required=True)
    if kind not in _KIND_KEYS:
        raise ConfigError(f"[sampler] kind must be one of {tuple(_KIND_KEYS)}, got {kind!r}")
    required_keys, optional_keys = _KIND_KEYS[kind]
    allowed = required_keys | optional_keys | {"kind"}
    for key in parser.options("sampler"):
        if key not in allowed:
            raise ConfigError(f"[sampler] {key} does not apply to kind={kind}")
    for key in required_keys:
        if not parser.has_option("sampler", key):
            raise ConfigError(f"[sampler] kind={kind} requires key '{key}'")

    def get(key, parse, default=None):
        return _value(parser, "sampler", key, parse, default)

    if kind in ("gaussian", "uniform"):
        # every source renders IMAGE_EDGE-px images
        length = get("length", int, IMAGE_EDGE)
        if length != IMAGE_EDGE:
            raise ConfigError(f"[sampler] length {length} != image edge {IMAGE_EDGE}")
        if kind == "gaussian":
            return _build("sampler", GaussianCropConfig, get("sigma", float), IMAGE_EDGE)
        range_r = get("range", int)
        if range_r > IMAGE_EDGE:
            raise ConfigError(f"[sampler] range {range_r} exceeds image edge {IMAGE_EDGE}")
        return _build("sampler", UniformCropConfig, range_r)
    width, height = get("width", int, 224), get("height", int, 224)
    if kind == "resize_crop":
        return _build("sampler", ResizeCropConfig, get("sigma", float), width, height,
                      get("min_length", int))
    return _build("sampler", StandardCropConfig, width, height, **_given(parser, "sampler", {
        "scale_min": float, "scale_max": float, "ratio_min": float, "ratio_max": float}))


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate one experiment INI.

    Unknown sections or keys are rejected so typos fail loudly instead
    of silently reverting to defaults. Keys the INI leaves out take the
    library dataclasses' defaults; the dataclasses check each value and
    this function checks the rules that span keys or sections.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(raw.decode("utf-8"), source=path)
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        extra = set(parser.options(section)) - _SECTION_KEYS[section]
        if extra:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(extra)}")
    for section in _SECTION_KEYS:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    dataset = _parse_dataset(parser)
    sampler = _parse_sampler(parser)

    chance = 1.0 / dataset.num_classes
    p_min = _value(parser, "softening", "p_min", float)
    if p_min is not None and p_min != chance:
        raise ConfigError(
            f"[softening] p_min is derived as 1/num_classes = {chance!r}; "
            f"remove the key or set it to exactly that value"
        )
    policy = _build("softening", SofteningPolicy, p_min=chance,
                    mode=_value(parser, "softening", "mode", str, required=True),
                    **_given(parser, "softening", {"k": float}))
    alpha = _value(parser, "softening", "alpha", float)
    if alpha is not None and _build("softening", label_smoothing_confidence, alpha) < chance:
        raise ConfigError(
            f"[softening] alpha={alpha} puts the constant confidence below "
            f"chance level 1/{dataset.num_classes}"
        )

    decay = _build("train", SigmaDecay,
                   _value(parser, "train", "sigma_decay_final_epochs", int, default=0),
                   _value(parser, "train", "sigma_decay_factor", float, default=1000.0))
    options = _given(parser, "train", {"momentum": float, "weight_decay": float, "seed": int})
    if parser.has_option("train", "hidden"):
        options["hidden_sizes"] = _value(parser, "train", "hidden", _parse_hidden)
    train_cfg = _build(
        "train", TrainConfig,
        epochs=_value(parser, "train", "epochs", int, required=True),
        batch_size=_value(parser, "train", "batch_size", int, required=True),
        lr0=_value(parser, "train", "lr0", float, required=True),
        policy=policy, sampler=sampler, sigma_decay=decay, fixed_alpha=alpha, **options,
    )
    out_dir = _value(parser, "output", "dir", str, required=True)
    return ExperimentConfig(path, raw, dataset, train_cfg, out_dir)


def build_datasets(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Construct and normalize the train/test splits a spec describes.

    Normalization stats always come from the train split.
    """
    if spec.source == "synth":
        train_set = synth_shapes(spec.train_per_class, spec.num_classes, spec.seed, "train")
        test_set = synth_shapes(spec.test_per_class, spec.num_classes,
                                spec.seed + TEST_SEED_OFFSET, "test")
    else:
        parse = parse_cifar10 if spec.source == "cifar10" else parse_cifar100
        train_set = parse(Path(spec.train_path).read_bytes(), "train")
        test_set = parse(Path(spec.test_path).read_bytes(), "test")
    stats = compute_stats(train_set)
    return normalize(train_set, stats), normalize(test_set, stats)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _snapshot(cfg: ExperimentConfig, out: Path, name: str = "config.ini") -> None:
    (out / name).write_bytes(cfg.raw)


def cmd_train(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    out = Path(args.out or cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    # snapshot first: a crashed run still records what it was
    _snapshot(cfg, out)
    train_set, test_set = build_datasets(cfg.dataset)
    tcfg = cfg.train if args.seed is None else replace(cfg.train, seed=args.seed)
    model, log = train(train_set, tcfg)
    _write_csv(
        out / "epoch_log.csv",
        ["epoch", "mean_loss", "top1_error", "lr", "sigma"],
        [[s.epoch, s.mean_loss, s.top1_error, s.lr, s.sigma] for s in log],
    )
    records = evaluate(model, test_set)
    err = top1_error(records)
    report = ece(records)
    _write_csv(
        out / "final_metrics.csv",
        ["metric", "value"],
        [["test_top1_error", err], ["test_ece", report.ece]],
    )
    save_checkpoint(model, str(out / "checkpoint.bin"))
    print(f"train: wrote {out} (test top-1 error {err:.4f}, ece {report.ece:.4f})")


def _parse_float_list(raw: str, what: str) -> tuple[float, ...]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"{what}: empty list")
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"{what}: cannot parse {raw!r}") from None


def cmd_curve(args: argparse.Namespace) -> None:
    """One softening curve per requested k, on a shared uniform v grid."""
    cfg = parse_config(args.config)
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    policy = cfg.train.policy
    ks = _parse_float_list(args.k_list, "--k-list") if args.k_list else (policy.k,)
    out = Path(args.out or cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    rows = []
    for k in ks:
        curve = replace(policy, k=k)
        for v in np.linspace(0.0, 1.0, args.points):
            rows.append([k, float(v), soften(float(v), curve)])
    _write_csv(out / "curve.csv", ["k", "v", "p"], rows)
    print(f"curve: wrote {out / 'curve.csv'} "
          f"({len(ks)} curve(s) x {args.points} points, p_min={policy.p_min:g})")


def cmd_occlusion(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.lambdas:
        lambdas = _parse_float_list(args.lambdas, "--lambdas")
        if any(not 0.0 <= lam <= 1.0 for lam in lambdas):
            raise ConfigError(f"--lambdas must lie in [0, 1], got {args.lambdas!r}")
    else:
        lambdas = DEFAULT_OCCLUSION_GRID
    out = Path(args.out or cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    _, test_set = build_datasets(cfg.dataset)
    model = load_checkpoint(args.checkpoint)
    n, c, h, w = test_set.images.shape
    if model.layer_sizes[0] != c * h * w or model.layer_sizes[-1] != test_set.num_classes:
        raise CheckpointError(
            f"checkpoint expects input {model.layer_sizes[0]} and "
            f"{model.layer_sizes[-1]} classes; dataset has input {c * h * w} and "
            f"{test_set.num_classes} classes"
        )
    rows = occlusion_sweep(model, test_set, RandomSource(args.seed), lambdas,
                           trials_per_image=args.trials)
    write_sweep_csv(rows, str(out / "occlusion.csv"))
    print(f"occlusion: wrote {out / 'occlusion.csv'} "
          f"(top-1 error {rows[0][1]:.4f} at lambda={rows[0][0]:g})")


def _visibility_rows(vs: np.ndarray) -> list[list]:
    """Summary plus a 10-bin histogram, bins right-inclusive like ECE's."""
    rows = [
        ["mean_visibility", vs.mean()],
        ["min_visibility", vs.min()],
        ["max_visibility", vs.max()],
        ["frac_visibility_positive", float((vs > 0).mean())],
        ["frac_fully_visible", float((vs == 1.0).mean())],
    ]
    edges = np.arange(1, 10) / 10
    bins = np.searchsorted(edges, vs, side="left") + 1
    counts = np.bincount(bins, minlength=11)[1:]
    for m in range(10):
        rows.append([f"vis_hist_bin_{m + 1}", int(counts[m])])
    return rows


def _sampler_stats_rows(sampler, draws: int, seed: int) -> list[list]:
    rng = RandomSource(seed)
    kind = {GaussianCropConfig: "gaussian", UniformCropConfig: "uniform",
            ResizeCropConfig: "resize_crop", StandardCropConfig: "standard"}[type(sampler)]
    rows: list[list] = [["kind", kind], ["draws", draws]]
    if kind in ("gaussian", "uniform"):
        draw = draw_gaussian_window if kind == "gaussian" else draw_uniform_window
        offsets = np.empty(2 * draws)
        vs = np.empty(draws)
        for i in range(draws):
            tx, ty = draw(sampler, rng)
            offsets[2 * i] = tx
            offsets[2 * i + 1] = ty
            vs[i] = visibility(tx, ty, IMAGE_EDGE, IMAGE_EDGE)
        rows += [
            ["edge", IMAGE_EDGE],
            ["mean_offset", offsets.mean()],
            ["std_offset", offsets.std()],
            ["min_offset", int(offsets.min())],
            ["max_offset", int(offsets.max())],
        ]
        return rows + _visibility_rows(vs)
    draw = draw_resize_crop if kind == "resize_crop" else draw_standard_resize_crop
    windows = [draw(sampler, rng) for _ in range(draws)]
    width, height = sampler.width, sampler.height
    ws = np.array([win.w for win in windows], dtype=float)
    hs = np.array([win.h for win in windows], dtype=float)
    vs = np.array([crop_visibility(win, width, height) for win in windows])
    area = width * height
    rows += [
        ["width", width],
        ["height", height],
        ["mean_w", ws.mean()],
        ["mean_h", hs.mean()],
        ["min_w", int(ws.min())],
        ["max_w", int(ws.max())],
        ["min_h", int(hs.min())],
        ["max_h", int(hs.max())],
        ["mean_area_fraction", float((ws * hs / area).mean())],
    ]
    return rows + _visibility_rows(vs)


def cmd_sampler_stats(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    if args.draws < 1:
        raise ConfigError(f"--draws must be >= 1, got {args.draws}")
    out = Path(args.out or cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    rows = _sampler_stats_rows(cfg.train.sampler, args.draws, args.seed)
    _write_csv(out / "sampler_stats.csv", ["metric", "value"], rows)
    print(f"sampler-stats: wrote {out / 'sampler_stats.csv'}")


def cmd_compare(args: argparse.Namespace) -> None:
    cfg_a = parse_config(args.config_a)
    cfg_b = parse_config(args.config_b)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if cfg_a.dataset != cfg_b.dataset:
        raise ConfigError(
            "compare needs both arms on identical [dataset] settings; "
            f"got {cfg_a.dataset} vs {cfg_b.dataset}"
        )
    out = Path(args.out or cfg_a.out_dir)
    os.makedirs(out, exist_ok=True)
    _snapshot(cfg_a, out, "config_a.ini")
    _snapshot(cfg_b, out, "config_b.ini")
    train_set, test_set = build_datasets(cfg_a.dataset)
    name_a = Path(args.config_a).stem
    name_b = Path(args.config_b).stem
    if name_a == name_b:
        name_a += "_a"
        name_b += "_b"
    base = cfg_a.train.seed if args.seed is None else args.seed
    rows: list[list] = []
    means = {}
    for name, cfg in ((name_a, cfg_a), (name_b, cfg_b)):
        errs, eces = [], []
        for i in range(args.seeds):
            model, _ = train(train_set, replace(cfg.train, seed=base + i))
            records = evaluate(model, test_set)
            errs.append(top1_error(records))
            eces.append(ece(records).ece)
            rows.append([name, base + i, errs[-1], eces[-1]])
        means[name] = (sum(errs) / len(errs), sum(eces) / len(eces))
    delta_err = means[name_b][0] - means[name_a][0]
    delta_ece = means[name_b][1] - means[name_a][1]
    rows.append(["delta", "", delta_err, delta_ece])
    _write_csv(out / "compare.csv", ["arm", "seed", "top1_error", "ece"], rows)
    print(
        f"compare: wrote {out / 'compare.csv'} "
        f"({name_b} - {name_a}: top-1 {delta_err:+.4f}, ece {delta_ece:+.4f})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softaug",
        description="Train and probe small classifiers under softened crop targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and write its artifacts")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the [train] seed")
    p_train.add_argument("--out", default=None, help="override the [output] dir")
    p_train.set_defaults(func=cmd_train)

    p_curve = sub.add_parser("curve", help="tabulate the softening curve p(v)")
    p_curve.add_argument("--config", required=True)
    p_curve.add_argument("--points", type=int, default=101)
    p_curve.add_argument("--k-list", default=None,
                         help="comma list of curve exponents (default: config k)")
    p_curve.add_argument("--out", default=None)
    p_curve.set_defaults(func=cmd_curve)

    p_occ = sub.add_parser("occlusion",
                           help="error of a checkpoint under growing occlusion")
    p_occ.add_argument("--config", required=True)
    p_occ.add_argument("--checkpoint", required=True)
    p_occ.add_argument("--seed", type=int, default=0)
    p_occ.add_argument("--lambdas", default=None,
                       help="comma list of occluded area fractions")
    p_occ.add_argument("--trials", type=int, default=1)
    p_occ.add_argument("--out", default=None)
    p_occ.set_defaults(func=cmd_occlusion)

    p_stats = sub.add_parser("sampler-stats",
                             help="empirical statistics of the configured sampler")
    p_stats.add_argument("--config", required=True)
    p_stats.add_argument("--draws", type=int, default=100_000)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--out", default=None)
    p_stats.set_defaults(func=cmd_sampler_stats)

    p_cmp = sub.add_parser("compare", help="train two arms over shared seeds")
    p_cmp.add_argument("--config-a", required=True)
    p_cmp.add_argument("--config-b", required=True)
    p_cmp.add_argument("--seeds", type=int, default=3)
    p_cmp.add_argument("--seed", type=int, default=None,
                       help="base seed (default: arm A's [train] seed)")
    p_cmp.add_argument("--out", default=None,
                       help="override arm A's [output] dir")
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
    except (ValueError, OSError) as exc:
        # ConfigError, ParseError, CheckpointError are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
