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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    LabeledDataset,
    compute_stats,
    normalize,
    parse_cifar10,
    parse_cifar100,
    synth_shapes,
)
from .geometry import crop_visibility, visibility
from .loss import canonical_mode
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
    UniformCropConfig,
    draw_gaussian_window,
    draw_resize_crop,
    draw_standard_resize_crop,
    draw_uniform_window,
)
from .softening import SofteningPolicy, soften

# seed offset separating a synthetic test split from its train split
TEST_SEED_OFFSET = 1_000_003

_SOURCES = ("synth", "cifar10", "cifar100")
_KINDS = ("gaussian", "uniform", "resize_crop", "standard")

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


@dataclass
class ExperimentConfig:
    """Typed view of one experiment INI plus its raw bytes."""

    path: str
    raw: bytes
    # dataset
    source: str
    num_classes: int
    train_per_class: int
    test_per_class: int
    data_seed: int
    train_path: str
    test_path: str
    # sampler
    sampler_kind: str
    sigma: float
    range_r: int
    length: int  # 0 means "use the image edge"
    width: int
    height: int
    min_length: int
    scale_min: float
    scale_max: float
    ratio_min: float
    ratio_max: float
    # softening
    soften_mode: str
    k: float
    alpha: float | None
    # train
    epochs: int
    batch_size: int
    lr0: float
    momentum: float
    weight_decay: float
    train_seed: int
    hidden_sizes: tuple[int, ...]
    sigma_decay_final: int
    sigma_decay_factor: float
    # output
    out_dir: str

    def dataset_key(self) -> tuple:
        """Everything that determines the data; compared across arms."""
        return (self.source, self.num_classes, self.train_per_class,
                self.test_per_class, self.data_seed, self.train_path, self.test_path)


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


def _parse_hidden(raw: str) -> tuple[int, ...]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ValueError("empty")
    return tuple(int(part) for part in parts)


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate one experiment INI.

    Unknown sections or keys are rejected so typos fail loudly instead
    of silently reverting to defaults.
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

    source = _value(parser, "dataset", "source", str, required=True)
    if source not in _SOURCES:
        raise ConfigError(f"[dataset] source must be one of {_SOURCES}, got {source!r}")
    if source == "synth":
        for key in ("train_path", "test_path"):
            if parser.has_option("dataset", key):
                raise ConfigError(f"[dataset] {key} does not apply to source=synth")
        num_classes = _value(parser, "dataset", "num_classes", int, required=True)
        train_per_class = _value(parser, "dataset", "train_per_class", int, required=True)
        test_per_class = _value(parser, "dataset", "test_per_class", int, required=True)
        data_seed = _value(parser, "dataset", "seed", int, default=0)
        train_path = test_path = ""
    else:
        for key in ("train_per_class", "test_per_class", "seed"):
            if parser.has_option("dataset", key):
                raise ConfigError(f"[dataset] {key} does not apply to source={source}")
        fixed = 10 if source == "cifar10" else 100
        num_classes = _value(parser, "dataset", "num_classes", int, default=fixed)
        if num_classes != fixed:
            raise ConfigError(f"[dataset] num_classes must be {fixed} for {source}")
        train_path = _value(parser, "dataset", "train_path", str, required=True)
        test_path = _value(parser, "dataset", "test_path", str, required=True)
        train_per_class = test_per_class = 0
        data_seed = 0
    if num_classes < 2:
        raise ConfigError(f"[dataset] num_classes must be >= 2, got {num_classes}")

    kind = _value(parser, "sampler", "kind", str, required=True)
    if kind not in _KINDS:
        raise ConfigError(f"[sampler] kind must be one of {_KINDS}, got {kind!r}")
    required_keys, optional_keys = _KIND_KEYS[kind]
    allowed = required_keys | optional_keys | {"kind"}
    for key in parser.options("sampler"):
        if key not in allowed:
            raise ConfigError(f"[sampler] {key} does not apply to kind={kind}")
    for key in required_keys:
        if not parser.has_option("sampler", key):
            raise ConfigError(f"[sampler] kind={kind} requires key '{key}'")
    sigma = _value(parser, "sampler", "sigma", float, default=0.0)
    range_r = _value(parser, "sampler", "range", int, default=0)
    length = _value(parser, "sampler", "length", int, default=0)
    width = _value(parser, "sampler", "width", int, default=224)
    height = _value(parser, "sampler", "height", int, default=224)
    min_length = _value(parser, "sampler", "min_length", int, default=0)
    scale_min = _value(parser, "sampler", "scale_min", float, default=0.08)
    scale_max = _value(parser, "sampler", "scale_max", float, default=1.0)
    ratio_min = _value(parser, "sampler", "ratio_min", float, default=3.0 / 4.0)
    ratio_max = _value(parser, "sampler", "ratio_max", float, default=4.0 / 3.0)

    mode_raw = _value(parser, "softening", "mode", str, required=True)
    try:
        mode = canonical_mode(mode_raw)
    except ValueError as exc:
        raise ConfigError(f"[softening] {exc}") from None
    k = _value(parser, "softening", "k", float, default=2.0)
    p_min = _value(parser, "softening", "p_min", float)
    if p_min is not None and p_min != 1.0 / num_classes:
        raise ConfigError(
            f"[softening] p_min is derived as 1/num_classes = {1.0 / num_classes!r}; "
            f"remove the key or set it to exactly that value"
        )
    alpha = _value(parser, "softening", "alpha", float)
    if alpha is not None:
        if not 0.0 <= alpha < 1.0:
            raise ConfigError(f"[softening] alpha must be in [0, 1), got {alpha}")
        if 1.0 - alpha < 1.0 / num_classes:
            raise ConfigError(
                f"[softening] alpha={alpha} puts the constant confidence below "
                f"chance level 1/{num_classes}"
            )

    epochs = _value(parser, "train", "epochs", int, required=True)
    batch_size = _value(parser, "train", "batch_size", int, required=True)
    lr0 = _value(parser, "train", "lr0", float, required=True)
    momentum = _value(parser, "train", "momentum", float, default=0.9)
    weight_decay = _value(parser, "train", "weight_decay", float, default=5e-4)
    train_seed = _value(parser, "train", "seed", int, default=0)
    hidden = _value(parser, "train", "hidden", _parse_hidden, default=(256,))
    sd_final = _value(parser, "train", "sigma_decay_final_epochs", int, default=0)
    sd_factor = _value(parser, "train", "sigma_decay_factor", float, default=1000.0)

    out_dir = _value(parser, "output", "dir", str, required=True)

    return ExperimentConfig(
        path=path, raw=raw,
        source=source, num_classes=num_classes, train_per_class=train_per_class,
        test_per_class=test_per_class, data_seed=data_seed,
        train_path=train_path, test_path=test_path,
        sampler_kind=kind, sigma=sigma, range_r=range_r, length=length,
        width=width, height=height, min_length=min_length,
        scale_min=scale_min, scale_max=scale_max,
        ratio_min=ratio_min, ratio_max=ratio_max,
        soften_mode=mode, k=k, alpha=alpha,
        epochs=epochs, batch_size=batch_size, lr0=lr0, momentum=momentum,
        weight_decay=weight_decay, train_seed=train_seed, hidden_sizes=hidden,
        sigma_decay_final=sd_final, sigma_decay_factor=sd_factor,
        out_dir=out_dir,
    )


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Construct and normalize the train/test splits a config describes.

    Normalization stats always come from the train split.
    """
    if cfg.source == "synth":
        train_set = synth_shapes(cfg.train_per_class, cfg.num_classes, cfg.data_seed,
                                 "train")
        test_set = synth_shapes(cfg.test_per_class, cfg.num_classes,
                                cfg.data_seed + TEST_SEED_OFFSET, "test")
    else:
        parse = parse_cifar10 if cfg.source == "cifar10" else parse_cifar100
        train_set = parse(Path(cfg.train_path).read_bytes(), "train")
        test_set = parse(Path(cfg.test_path).read_bytes(), "test")
    stats = compute_stats(train_set)
    return normalize(train_set, stats), normalize(test_set, stats)


def build_policy(cfg: ExperimentConfig) -> SofteningPolicy:
    return SofteningPolicy(k=cfg.k, p_min=1.0 / cfg.num_classes, mode=cfg.soften_mode)


def build_sampler(cfg: ExperimentConfig,
                  edge: int) -> GaussianCropConfig | UniformCropConfig:
    """The same-size offset sampler of a gaussian or uniform config, for
    square images of side ``edge``."""
    if cfg.length and cfg.length != edge:
        raise ConfigError(f"[sampler] length {cfg.length} != image edge {edge}")
    if cfg.sampler_kind == "gaussian":
        return GaussianCropConfig(cfg.sigma, edge)
    if cfg.sampler_kind == "uniform":
        return UniformCropConfig(cfg.range_r)
    raise ConfigError(
        f"[sampler] kind={cfg.sampler_kind} cannot train; use gaussian or uniform"
    )


def build_train_config(cfg: ExperimentConfig, image_edge: int,
                       seed: int | None = None) -> TrainConfig:
    sampler = build_sampler(cfg, image_edge)
    decay = None
    if cfg.sigma_decay_final > 0:
        decay = SigmaDecay(cfg.sigma_decay_final, cfg.sigma_decay_factor)
    try:
        return TrainConfig(
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr0=cfg.lr0,
            policy=build_policy(cfg), sampler=sampler, momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            seed=cfg.train_seed if seed is None else seed,
            hidden_sizes=cfg.hidden_sizes, sigma_decay=decay,
            fixed_alpha=cfg.alpha,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    train_set, test_set = build_datasets(cfg)
    edge = train_set.images.shape[2]
    tcfg = build_train_config(cfg, edge, seed=args.seed)
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
    ks = _parse_float_list(args.k_list, "--k-list") if args.k_list else (cfg.k,)
    out = Path(args.out or cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    p_min = 1.0 / cfg.num_classes
    rows = []
    for k in ks:
        policy = SofteningPolicy(k=k, p_min=p_min, mode="target_and_weight")
        for v in np.linspace(0.0, 1.0, args.points):
            rows.append([k, float(v), soften(float(v), policy)])
    _write_csv(out / "curve.csv", ["k", "v", "p"], rows)
    print(f"curve: wrote {out / 'curve.csv'} "
          f"({len(ks)} curve(s) x {args.points} points, p_min={p_min:g})")


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
    _, test_set = build_datasets(cfg)
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


def _sampler_stats_rows(cfg: ExperimentConfig, draws: int, seed: int) -> list[list]:
    rng = RandomSource(seed)
    rows: list[list] = [["kind", cfg.sampler_kind], ["draws", draws]]
    if cfg.sampler_kind in ("gaussian", "uniform"):
        edge = cfg.length if cfg.length else 32
        sampler_cfg = build_sampler(cfg, edge)
        draw = (draw_gaussian_window if cfg.sampler_kind == "gaussian"
                else draw_uniform_window)
        offsets = np.empty(2 * draws)
        vs = np.empty(draws)
        for i in range(draws):
            tx, ty = draw(sampler_cfg, rng)
            offsets[2 * i] = tx
            offsets[2 * i + 1] = ty
            vs[i] = visibility(tx, ty, edge, edge)
        rows += [
            ["edge", edge],
            ["mean_offset", offsets.mean()],
            ["std_offset", offsets.std()],
            ["min_offset", int(offsets.min())],
            ["max_offset", int(offsets.max())],
        ]
        return rows + _visibility_rows(vs)
    if cfg.sampler_kind == "resize_crop":
        sampler_cfg = ResizeCropConfig(cfg.sigma, cfg.width, cfg.height, cfg.min_length)
        windows = [draw_resize_crop(sampler_cfg, rng) for _ in range(draws)]
    else:
        windows = [
            draw_standard_resize_crop(cfg.width, cfg.height, rng, cfg.scale_min,
                                      cfg.scale_max, cfg.ratio_min, cfg.ratio_max)
            for _ in range(draws)
        ]
    ws = np.array([win.w for win in windows], dtype=float)
    hs = np.array([win.h for win in windows], dtype=float)
    vs = np.array([crop_visibility(win, cfg.width, cfg.height) for win in windows])
    area = cfg.width * cfg.height
    rows += [
        ["width", cfg.width],
        ["height", cfg.height],
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
    rows = _sampler_stats_rows(cfg, args.draws, args.seed)
    _write_csv(out / "sampler_stats.csv", ["metric", "value"], rows)
    print(f"sampler-stats: wrote {out / 'sampler_stats.csv'}")


def cmd_compare(args: argparse.Namespace) -> None:
    cfg_a = parse_config(args.config_a)
    cfg_b = parse_config(args.config_b)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if cfg_a.dataset_key() != cfg_b.dataset_key():
        raise ConfigError(
            "compare needs both arms on identical [dataset] settings; "
            f"got {cfg_a.dataset_key()} vs {cfg_b.dataset_key()}"
        )
    out = Path(args.out or cfg_a.out_dir)
    os.makedirs(out, exist_ok=True)
    _snapshot(cfg_a, out, "config_a.ini")
    _snapshot(cfg_b, out, "config_b.ini")
    train_set, test_set = build_datasets(cfg_a)
    edge = train_set.images.shape[2]
    name_a = Path(args.config_a).stem
    name_b = Path(args.config_b).stem
    if name_a == name_b:
        name_a += "_a"
        name_b += "_b"
    base = cfg_a.train_seed if args.seed is None else args.seed
    rows: list[list] = []
    means = {}
    for name, cfg in ((name_a, cfg_a), (name_b, cfg_b)):
        errs, eces = [], []
        for i in range(args.seeds):
            tcfg = build_train_config(cfg, edge, seed=base + i)
            model, _ = train(train_set, tcfg)
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
