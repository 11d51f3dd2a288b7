"""In-process tracer for the softaug layers.

The layers are the package modules. ``Tracer`` wraps their public
functions (plus the private hot paths the trainer calls) in every
``softaug`` namespace that holds them, and the ``RandomSource`` methods on
the class, for the duration of a ``with`` block. Each wrapped call pushes a
frame on a stack, so every call knows its caller and its self time (its
duration minus the time of the wrapped calls it made).

Coarse calls (commands, training, evaluation, checkpoint and CSV I/O)
are kept as individual spans: id, run id, name, parent span id, start,
end. Per-sample calls (the augment path, samplers, random draws) run
hundreds of thousands of times per command, so they are aggregated per
(name, caller) instead: call count, total seconds, self seconds. Both are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> {attribute: metric name}; an attribute "RandomSource.x" is a
# method patched on the class. Metric names drop the leading underscore.
SPANNED = {
    "cli": {"main": "cli.main", "parse_config": "cli.parse_config",
            "_write_csv": "cli.write_csv", "build_datasets": "cli.build_datasets"},
    "data": {"synth_shapes": "data.synth_shapes", "normalize": "data.normalize",
             "compute_stats": "data.compute_stats"},
    "model": {"train": "model.train", "_backward_batch": "model.backward_batch",
              "forward_batch": "model.forward_batch", "init_mlp": "model.init_mlp",
              "save_checkpoint": "model.save_checkpoint",
              "load_checkpoint": "model.load_checkpoint"},
    "metrics": {"evaluate": "metrics.evaluate", "ece": "metrics.ece",
                "occlusion_sweep": "metrics.occlusion_sweep",
                "write_sweep_csv": "metrics.write_sweep_csv"},
    "loss": {"soft_loss": "loss.soft_loss", "soft_loss_grad": "loss.soft_loss_grad"},
    "sslweights": {"pair_weights": "sslweights.pair_weights"},
}
COUNTED = {
    "data": {"hflip": "data.hflip"},
    "sampling": {"draw_offset": "sampling.draw_offset",
                 "draw_uniform_offset": "sampling.draw_uniform_offset",
                 "draw_resize_crop": "sampling.draw_resize_crop",
                 "draw_standard_resize_crop": "sampling.draw_standard_resize_crop",
                 "RandomSource.split": "sampling.split",
                 "RandomSource.normal": "sampling.normal",
                 "RandomSource.uniform": "sampling.uniform",
                 "RandomSource.integers": "sampling.integers",
                 "RandomSource.random": "sampling.random"},
    "geometry": {"pad_and_crop": "geometry.pad_and_crop",
                 "visibility": "geometry.visibility",
                 "crop_visibility": "geometry.crop_visibility",
                 "occlude": "geometry.occlude"},
    "softening": {"soften": "softening.soften"},
}
TRACED_NAMES = frozenset(
    name for table in (SPANNED, COUNTED) for attrs in table.values() for name in attrs.values()
)


def _backward_gflop(model, x, *_args) -> float:
    """Multiply-adds of one batch backward pass, counted as 2 flops each:
    the forward pass, every weight gradient, and the error propagated
    into every layer but the first."""
    sizes = model.layer_sizes
    products = [fan_in * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
    return 2.0 * x.shape[0] * (2 * sum(products) + sum(products[1:])) / 1e9


WORK = {"model.backward_batch": _backward_gflop}


class Tracer:
    """Context manager that patches the softaug layers while it is open."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        # (name, caller name or None) -> [calls, total_s, self_s, work]
        self.stats: dict[tuple[str, str | None], list] = {}
        # (span id, run id, name, parent span id or 0, start, end)
        self.spans: list[tuple] = []
        self.run_id = 0
        self._last_span = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, spanned: bool):
        stack, stats, spans, clock = self.stack, self.stats, self.spans, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else 0
            if spanned:
                self._last_span += 1
                span = self._last_span
            else:
                span = parent_span
            frame = [name, 0.0, span]  # name, seconds in wrapped children, nearest span
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (name, parent[0] if parent else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if work is not None:
                    entry[3] += work(*args)
                if parent is not None:
                    parent[1] += duration
                if spanned:
                    spans.append((span, self.run_id, name, parent_span, start, end))

        return wrapper

    def __enter__(self) -> "Tracer":
        layers = {layer: importlib.import_module(f"softaug.{layer}")
                  for table in (SPANNED, COUNTED) for layer in table}
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "softaug" or key.startswith("softaug.")]
        try:
            for table, spanned in ((SPANNED, True), (COUNTED, False)):
                for layer, attrs in table.items():
                    for attr, name in attrs.items():
                        if "." in attr:
                            owner_name, method = attr.split(".")
                            owner = getattr(layers[layer], owner_name)
                            self._patch(owner, method,
                                        self._wrap(name, getattr(owner, method), spanned))
                            continue
                        original = getattr(layers[layer], attr)
                        wrapped = self._wrap(name, original, spanned)
                        # rebind in every namespace that imported the function
                        for mod in modules:
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    self._patch(mod, key, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- derived numbers ---------------------------------------------------

    def total(self, name: str, column: int, caller: str | None = "*") -> float:
        """Sum of one stats column (0 calls, 1 seconds, 2 self seconds,
        3 work) over every caller of ``name``, or over one caller."""
        return sum((entry[column] for (callee, parent), entry in self.stats.items()
                    if callee == name and (caller == "*" or parent == caller)),
                   0 if column == 0 else 0.0)

    def children_seconds(self, name: str) -> float:
        """Seconds spent in wrapped calls made directly by ``name``."""
        return sum(entry[1] for (_, parent), entry in self.stats.items() if parent == name)

    def write(self, path) -> None:
        """Spans and per-caller aggregates as JSON lines."""
        with open(path, "w") as fh:
            for span, run, name, parent, start, end in self.spans:
                fh.write(json.dumps({"span": span, "run": run, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")
            for (name, caller), (calls, total, own, work) in sorted(
                    self.stats.items(), key=lambda item: (item[0][0], str(item[0][1]))):
                fh.write(json.dumps({"name": name, "caller": caller, "calls": calls,
                                     "s": total, "self_s": own, "work": work}) + "\n")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Metrics that are not a plain column of one traced function.
DERIVED = {
    # offsets returned per normal draw: rejection sampling wastes the rest
    "sampling.draw_offset.accept_ratio": lambda t: ratio(
        t.total("sampling.draw_offset", 0),
        t.total("sampling.normal", 0, caller="sampling.draw_offset")),
    # windows per aspect-ratio try; each call also draws its target area
    "sampling.standard.accept_ratio": lambda t: ratio(
        t.total("sampling.draw_standard_resize_crop", 0),
        t.total("sampling.uniform", 0, caller="sampling.draw_standard_resize_crop")
        - t.total("sampling.draw_standard_resize_crop", 0)),
}
COLUMNS = {"calls": 0, "s": 1, "self_s": 2, "gflop": 3}


def layer_metric(tracer: Tracer, metric: str) -> float:
    """Value of a per-layer metric named ``<layer>.<function>.<column>``
    or listed in DERIVED. Functions never called read 0."""
    if metric in DERIVED:
        return DERIVED[metric](tracer)
    name, column = metric.rsplit(".", 1)
    return tracer.total(name, COLUMNS[column])


def can_compute(metric: str) -> bool:
    if metric in DERIVED:
        return True
    name, _, column = metric.rpartition(".")
    return name in TRACED_NAMES and column in COLUMNS
