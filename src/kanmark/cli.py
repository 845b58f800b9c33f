"""Experiment runner, the I/O around :mod:`kanmark.pipeline`: train clean
models, embed watermarks, run attacks, verify ownership, sweep pruning rates.

Subcommands: train-clean, embed, attack, verify, prune-sweep, report.
Configs, checkpoints, and reports are JSON. A checkpoint's parameters sit
beside it in <checkpoint>.params as raw float64 bytes, whose SHA-256 the JSON
records; both files are byte-stable across save/load/save. Reports are JSON
lines appended to <out>/report.jsonl.

Exit codes: 0 success, 2 config error (a bad flag among them, checked before
any data is read), unusable --out, diverged training or an array too large
to allocate (nothing is written), 3 data error or an unreadable or damaged
report.jsonl (a bad line named by number), 4 dimension or checkpoint error,
among them widths or a grid record that break the config's rules (named by
field), targets that do not fit the model's output width and a loaded model
whose activations overflow.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .attacks import check_step, finetune, prune_sweep
from .data import (DataError, Dataset, average_pool, decode_idx, gen_feynman, read_idx,
                   split_indices)
from .kan import KanModel, KanLayer, prune_kan
from .mlp import MlpModel
from .numeric import NonFiniteError, ShapeError, views
from .pipeline import CALIBRATION_ROWS, build_detector, embed_watermark, train_clean
from .spline import build_grid
from .training import TASKS, DivergenceError, evaluate
from .watermark import verify

FORMAT_VERSION = 5
# Byte layout of a checkpoint's params file: little-endian float64.
PARAMS_DTYPE = "<f8"
ATTACK_KINDS = ("finetune", "prune", "retrain_after_prune")
SPLITS = ("train", "test", "holdout")


class ConfigError(Exception):
    """Bad configuration file, flag value, or missing input path."""


class CheckpointError(Exception):
    """Checkpoint has the wrong version, kind, or shape for the command."""


# ---------------------------------------------------------------------------
# seeds

def derive_seed(master: int, label: str) -> int:
    """Stable named sub-seed fan-out from one master seed."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class SeedBundle:
    """Named sub-seeds so each pipeline stage is independently reproducible."""

    def __init__(self, master: int):
        self.init = derive_seed(master, "init")
        self.data = derive_seed(master, "data")
        self.signal = derive_seed(master, "signal")
        self.detector = derive_seed(master, "detector")
        self.attack = derive_seed(master, "attack")


# ---------------------------------------------------------------------------
# config

# Every config key: (default, kind), optionally followed by least and most,
# which bound every number in the value. kind is int (a JSON integer, never
# 8.0), float (an int or a finite float), str, a tuple of allowed values, [kind]
# (a non-empty list) or [kind, kind, ...] (exactly that many). null is allowed
# only where the default is null; bools are never numbers. Values are checked,
# never coerced, so a well-typed config keeps its config_hash. The same leaves
# judge the attack and verify flags and a checkpoint's widths and grid records.
SCHEMA = {
    "task": ("classification", tuple(TASKS)),
    "dataset": {
        "kind": ("idx", ("idx", "feynman")),
        "images": (None, str), "labels": (None, str),
        "test_images": (None, str), "test_labels": (None, str),
        "limit": (None, int, 1), "pool": (None, int, 1),
        "formula": (None, str), "n": (3000, int, 1),
        "fractions": ([0.7, 0.15, 0.15], [float, float, float], 0),
    },
    "model": {"widths": (None, [int], 1), "hidden": (None, int, 1)},
    "grid": {"degree": (3, int, 0), "intervals": (5, int, 1),
             "t_min": (-1.0, float), "t_max": (1.0, float)},
    "train": {"epochs": (50, int, 0), "lr": (1e-3, float, 0),
              "batch_size": (64, int, 1), "stages": (None, [[int, float]], 0)},
    "watermark": {
        "band": (None, [int, int], 0), "alpha": (None, float, 0),
        "amplitude_scale": (0.3, float, 0), "epochs": (8, int, 1),
        "lr_main": (None, float, 0), "lr_wm": (None, float, 0),
        # numpy seeds its generator from a non-negative key only
        "key": (None, int, 0),
    },
    "detector": {
        "hidden": ([64, 32], [int], 1), "epochs": (50, int, 0),
        "lr": (1e-3, float, 0), "n_shuffles": (10, int, 0),
        "n_samples": (2000, int, 1), "batch_size": (128, int, 1),
    },
    "attack": {"kind": ("finetune", ATTACK_KINDS), "lr": (1e-3, float, 0),
               "epochs": (8, int, 0), "ratio": (0.6, float, 0, 1)},
    "tau": (0.5, float, 0, 1),
    "seed": (0, int),
}


def _fits(value, kind, least=None, most=None) -> bool:
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(kind, list):
        kinds = kind * len(value) if len(kind) == 1 and isinstance(value, list) else kind
        return (isinstance(value, list) and 0 < len(value) == len(kinds)
                and all(_fits(v, k, least, most) for v, k in zip(value, kinds)))
    if kind is str:
        return isinstance(value, str)
    number = type(value) is int or (kind is float and type(value) is float
                                    and math.isfinite(value))
    return number and (least is None or value >= least) and (most is None or value <= most)


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return "one of " + ", ".join(map(repr, kind))
    if isinstance(kind, list):
        return "[" + ", ".join(map(_describe, kind)) + (", ...]" if len(kind) == 1 else "]")
    return {int: "int", float: "number", str: "string"}[kind]


def _merge(cfg, schema: dict, path: str = "") -> dict:
    """``cfg`` with every missing key set to its default; raises ConfigError
    on an unknown key or a value that does not fit its leaf."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config root'} must be a JSON object")
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"unknown config key {path}{key!r}")
    out = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            out[key] = _merge(cfg.get(key, {}), spec, f"{path}{key}.")
            continue
        out[key] = value = cfg[key] if key in cfg else copy.deepcopy(spec[0])
        _check(path + key, value, spec, null=spec[0] is None)
    return out


def _check(name: str, value, spec, null: bool) -> None:
    """Raises ConfigError naming ``name`` unless ``value`` fits the leaf ``spec``
    or is null where ``null``."""
    if not (value is None and null or _fits(value, *spec[1:])):
        kind, least, most = (*spec[1:], None, None)[:3]
        bounds = ("" if least is None else f" (numbers >= {least})" if most is None
                  else f" (numbers in [{least}, {most}])")
        raise ConfigError(f"{name} must be {_describe(kind)}{bounds}"
                          f"{' or null' if null else ''}, got {json.dumps(value)}")


def read_json(path):
    """The JSON value of the file at ``path``, decoded as UTF-8. Raises
    OSError, or ValueError when the file is not UTF-8 (UnicodeDecodeError)
    or not JSON."""
    return json.loads(Path(path).read_bytes().decode("utf-8"))


def load_config(path, seed_override: int | None = None) -> dict:
    try:
        raw = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 (UnicodeDecodeError) or not JSON
        raise ConfigError(f"config {path} is not UTF-8 JSON: {exc}") from exc
    cfg = check_config(raw)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    return cfg


def check_config(raw) -> dict:
    """``raw`` with each missing key set to its :data:`SCHEMA` default, checked
    key by key and by the rules that span keys; raises ConfigError."""
    cfg = _merge(raw, SCHEMA)
    ds = cfg["dataset"]
    if ds["kind"] == "idx" and not (ds["images"] and ds["labels"]):
        raise ConfigError("idx dataset needs images and labels paths")
    if bool(ds["test_images"]) != bool(ds["test_labels"]):
        raise ConfigError("dataset.test_images and dataset.test_labels come as a pair")
    if ds["kind"] == "feynman" and not ds["formula"]:
        raise ConfigError("feynman dataset needs a formula id")
    if ds["kind"] == "feynman" and cfg["task"] == "classification":
        raise ConfigError("feynman targets are real-valued: the task is regression")
    if abs(sum(ds["fractions"]) - 1.0) > 1e-9:
        raise ConfigError("dataset.fractions (train, test, holdout) must sum "
                          f"to 1, got {ds['fractions']!r}")
    widths = cfg["model"]["widths"]
    if widths and len(widths) < 2:
        raise ConfigError(f"model.widths must list input and output widths, got {widths}")
    band = cfg["watermark"]["band"]
    if band is not None and band[0] > band[1]:
        raise ConfigError(f"watermark.band must be [lo, hi] with lo <= hi, got {band!r}")
    _constructs("grid", lambda: build_grid(**cfg["grid"]))  # t_min < t_max
    return cfg


def _constructs(name: str, build):
    """Returns ``build()``; its TypeError or ValueError, other than a
    ShapeError, NonFiniteError or DivergenceError, becomes a ConfigError."""
    try:
        return build()
    except (ShapeError, NonFiniteError, DivergenceError):
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# datasets

def resolve_dataset(cfg: dict, bundle: SeedBundle, *names: str) -> tuple:
    """The named :data:`SPLITS` of the config's dataset, in the order named;
    (train, test, holdout) when none is named. Every file is read and checked
    and no split may be empty (ConfigError), but only the rows of the named
    splits are decoded into Datasets."""
    ds = cfg["dataset"]
    seed = derive_seed(bundle.data, "split")

    def read(images, labels):
        """(take, row count) of an IDX pair: take(rows) decodes and pools rows."""
        pixels, targets = read_idx(images, labels, limit=ds["limit"])

        def take(rows):
            return average_pool(decode_idx(pixels[rows], targets[rows]), ds["pool"] or 1)
        take(slice(0))  # the pool must fit the images, whichever rows are decoded
        return take, len(targets)

    if ds["kind"] == "feynman":
        full = gen_feynman(ds["formula"], ds["n"], seed=bundle.data)

        def take(rows):
            return Dataset(full.inputs[rows], full.targets[rows])
        parts = [(take, rows) for rows in split_indices(len(full), ds["fractions"], seed)]
    elif ds["test_images"]:
        primary, n = read(ds["images"], ds["labels"])
        take, m = read(ds["test_images"], ds["test_labels"])
        parts = [(primary, np.arange(n)),
                 *((take, rows) for rows in split_indices(m, [0.5, 0.5], seed))]
    else:
        take, n = read(ds["images"], ds["labels"])
        parts = [(take, rows) for rows in split_indices(n, ds["fractions"], seed)]
    sizes = [len(rows) for _, rows in parts]
    if 0 in sizes:
        raise ConfigError(f"(train, test, holdout) split sizes {sizes}: none may be empty")
    return tuple(take(rows) for take, rows in
                 (parts[SPLITS.index(name)] for name in names or SPLITS))


def _train_clean(kind: str, cfg: dict, bundle: SeedBundle, train):
    """:func:`train_clean` on the CLI's sub-seeds."""
    init = bundle.init if kind == "kan" else derive_seed(bundle.init, "mlp")
    stages = range(1 + len(cfg["train"]["stages"] or []))
    return train_clean(kind, cfg, train, init,
                       [derive_seed(bundle.data, f"fit-stage-{si}") for si in stages])


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, model, stage: str, cfg_hash: str, seed: int,
                    extra: dict | None = None) -> None:
    """Writes ``model``'s flat ``params`` vector as raw PARAMS_DTYPE bytes to
    ``<path>.params``, then canonical JSON to ``path``: readable metadata plus
    the params file's SHA-256. Raises ValueError on non-finite parameters."""
    if not isinstance(model, (KanModel, MlpModel)):
        raise CheckpointError(f"cannot checkpoint a {type(model).__name__}")
    if not np.all(np.isfinite(model.params)):
        raise ValueError("cannot checkpoint non-finite parameters")
    blob = np.asarray(model.params, PARAMS_DTYPE).tobytes()
    payload = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "config_hash": cfg_hash,
        "seed": int(seed),
        "kind": "kan" if isinstance(model, KanModel) else "mlp",
        "widths": model.widths,
        "params_sha256": hashlib.sha256(blob).hexdigest(),
    }
    if isinstance(model, KanModel):
        payload["layers"] = [{"grid": {key: getattr(layer.grid, key) for key in SCHEMA["grid"]}}
                             for layer in model.layers]
    if extra:
        payload["extra"] = extra
    # The params first: a save cut short leaves no JSON or one whose digest fails.
    Path(f"{path}.params").write_bytes(blob)
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def load_checkpoint(path):
    """Returns (model, payload-metadata) of the JSON at ``path`` and the params
    file ``<path>.params``."""
    try:
        payload = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 (UnicodeDecodeError) or not JSON
        raise CheckpointError(f"checkpoint {path} is not UTF-8 JSON: {exc}") from exc
    # Malformed payloads raise lookup/type errors here, bad values ValueError and
    # widths or a grid record that break the config's rules ConfigError.
    try:
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"checkpoint {path}: format_version {version}, "
                                  f"expected {FORMAT_VERSION}")
        kind = payload.get("kind")
        if kind not in ("kan", "mlp"):
            raise CheckpointError(f"checkpoint {path}: unknown kind {kind!r}")
        widths, layers = payload["widths"], payload.get("layers")
        _check("widths", widths, SCHEMA["model"]["widths"], null=False)
        edges = list(zip(widths[1:], widths))  # (out, in) of each layer
        if kind == "mlp":
            shapes = [shape for edge in edges for shape in (edge, edge[:1])]
        elif len(layers) != len(edges):
            raise ValueError(f"{len(layers)} layer records for widths {widths}")
        else:  # basis counts from checked records, before build_grid allocates
            for k, rec in enumerate(layers):
                keys, need = sorted(rec["grid"]), sorted(SCHEMA["grid"])
                if keys != need:  # a missing key never takes its default
                    raise ConfigError(f"layers[{k}].grid holds keys {keys}, not {need}")
                _merge(rec["grid"], SCHEMA["grid"], f"layers[{k}].grid.")
            counts = [rec["grid"]["intervals"] + rec["grid"]["degree"] for rec in layers]
            shapes = [shape for edge, count in zip(edges, counts)
                      for shape in ((*edge, count), edge, edge)]
        need = sum(math.prod(shape) for shape in shapes) * np.dtype(PARAMS_DTYPE).itemsize
        blob_path = Path(f"{path}.params")  # named by the path, never by the contents
        try:
            with open(blob_path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if size != need:  # checked before a byte is read or a grid built
                    raise CheckpointError(f"params file {blob_path} holds {size} bytes, "
                                          f"widths {widths} need {need}")
                blob = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read params file {blob_path}: {exc}") from exc
        if hashlib.sha256(blob).hexdigest() != payload.get("params_sha256"):
            raise CheckpointError(f"params file {blob_path} does not match the "
                                  f"params_sha256 of {path}")
        arrays = views(np.frombuffer(blob, dtype=PARAMS_DTYPE), shapes)
        if kind == "mlp":
            model = MlpModel(arrays[0::2], arrays[1::2])
        else:
            model = KanModel([KanLayer(build_grid(**rec["grid"]), *arrays[3 * k:3 * k + 3])
                              for k, rec in enumerate(layers)])
    except (ConfigError, KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is malformed: "
                              f"{type(exc).__name__}: {exc}") from exc
    return model, payload


def _load(path, kind: str):
    """The model of a checkpoint that must hold a ``kind`` model."""
    model, meta = load_checkpoint(path)
    if meta["kind"] != kind:
        raise CheckpointError(f"{path}: expected kind {kind!r}, got {meta['kind']!r}")
    return model


# ---------------------------------------------------------------------------
# report

def append_report_row(out_dir, stage, cfg, main_metric, metric_kind,
                      wm_rate=None, decision=None, **extra) -> None:
    row = {
        "stage": stage,
        "metric_kind": metric_kind,
        "main_metric": round(float(main_metric), 6),
        "wm_detection_rate": None if wm_rate is None else round(100.0 * wm_rate, 4),
        "decision": decision,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **extra,
    }
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with open(Path(out_dir) / "report.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True, allow_nan=False) + "\n")


def _conclude(args, cfg, test, saves, stage, **row):
    """Evaluates the first model of ``saves`` ((file name, model, checkpoint
    stage, extra) each) on the test split, then creates --out and writes each
    checkpoint and one report row; returns the printed metric and first path."""
    metrics = evaluate(saves[0][1], test.inputs, test.targets, cfg["task"])
    _, _, metric, _, kind, scale = TASKS[cfg["task"]]
    value = scale * metrics[metric]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, model, ckpt_stage, extra in saves:
        save_checkpoint(out / name, model, ckpt_stage, config_hash(cfg), cfg["seed"], extra)
    append_report_row(out, stage, cfg, value, kind, **row)
    return f"{kind} {value:.4f}", out / saves[0][0]


# ---------------------------------------------------------------------------
# commands

def _setup(args, *names: str):
    """(config, seed bundle, the named splits) of a command; all three
    splits when none is named."""
    cfg = load_config(args.config, args.seed)
    bundle = SeedBundle(cfg["seed"])
    return cfg, bundle, resolve_dataset(cfg, bundle, *names)


def cmd_train_clean(args) -> int:
    cfg, bundle, (train, test) = _setup(args, "train", "test")
    model = _train_clean(args.model, cfg, bundle, train)
    metric, ckpt = _conclude(args, cfg, test,
                             [(f"clean-{args.model}.json", model, "clean", None)],
                             "clean", model=args.model)
    print(f"clean {args.model}: {metric} -> {ckpt}")
    return 0


def cmd_embed(args) -> int:
    cfg, bundle, (train, test, hold) = _setup(args)
    clean = _load(args.clean_ckpt, "kan")
    key = cfg["watermark"]["key"]
    wm, extra = _constructs("watermark", lambda: embed_watermark(
        clean, cfg, train, bundle.signal if key is None else key,
        derive_seed(bundle.data, "embed")))
    detector = build_detector(wm, clean, cfg, train, bundle.detector,
                              derive_seed(bundle.detector, "train"))
    result = verify(wm, detector, hold.inputs, tau=cfg["tau"])
    metric, wm_path = _conclude(args, cfg, test, [
        ("watermarked-kan.json", wm, "watermarked", extra),
        ("detector-mlp.json", detector, "detector", extra)],
        "watermarked", wm_rate=result.detection_rate, decision=result.decision)
    lo, hi = extra["band"]
    print(f"watermarked: {metric}, detection rate {100 * result.detection_rate:.2f}%, "
          f"band [{lo}, {hi}] ({hi - lo + 1} sign bits) -> {wm_path}")
    return 0


def cmd_attack(args) -> int:
    flags = {"kind": {"retrain": "retrain_after_prune"}.get(args.kind, args.kind),
             "lr": args.lr, "epochs": args.epochs, "ratio": args.ratio}
    flags = {key: value for key, value in flags.items() if value is not None}
    _merge(flags, SCHEMA["attack"], "attack.")  # checked before any data is read
    cfg, bundle, (train, test) = _setup(args, "train", "test")
    atk = {**cfg["attack"], **flags}
    wm = _load(args.wm_ckpt, "kan")
    kind = atk["kind"]
    # float(): the checkpoint and report row record lr and ratio as floats
    provenance = {"kind": kind, "lr": float(atk["lr"]), "epochs": atk["epochs"],
                  "ratio": None if kind == "finetune" else float(atk["ratio"])}
    attacked = wm if kind == "finetune" else prune_kan(wm, provenance["ratio"],
                                                       train.inputs[:CALIBRATION_ROWS])
    if kind != "prune":  # lr 0 fits SCHEMA, so finetune's refusal is a config error
        attacked = _constructs("attack", functools.partial(
            finetune, attacked, train.inputs, train.targets, cfg["task"],
            epochs=atk["epochs"], lr=provenance["lr"], seed=bundle.attack))
    metric, ckpt = _conclude(args, cfg, test, [
        (f"attacked-{kind}.json", attacked, "attacked", provenance)],
        f"attacked:{kind}", **provenance)
    print(f"attacked ({kind}): {metric} -> {ckpt}")
    return 0


def cmd_verify(args) -> int:
    if args.tau is not None:  # checked before any data is read
        _merge({"tau": args.tau}, {"tau": SCHEMA["tau"]})
    cfg, bundle, (hold,) = _setup(args, "holdout")
    tau = args.tau if args.tau is not None else cfg["tau"]
    detector = _load(args.detector_ckpt, "mlp")
    suspect = _load(args.suspect_ckpt, "kan")
    result = verify(suspect, detector, hold.inputs, tau=tau)
    append_report_row(args.out, "verify", cfg, 0.0, "none",
                      wm_rate=result.detection_rate, decision=result.decision,
                      suspect=Path(args.suspect_ckpt).name)
    print(f"detection rate {100 * result.detection_rate:.2f}% "
          f"(tau {100 * tau:.0f}%) -> decision "
          f"{'WATERMARKED' if result.decision else 'clean'}")
    return 0


def cmd_prune_sweep(args) -> int:
    _constructs("prune-sweep --step", lambda: check_step(args.step))
    cfg, bundle, (train, test) = _setup(args, "train", "test")
    if cfg["task"] != "classification":
        raise ConfigError("prune-sweep is a classification experiment")
    kan, mlp = (_train_clean(kind, cfg, bundle, train) for kind in ("kan", "mlp"))
    rows = prune_sweep(kan, mlp, test.inputs, test.targets,
                       calibration=train.inputs[:CALIBRATION_ROWS], step=args.step)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "prune_sweep.json").write_text(canonical_json(rows), encoding="utf-8")
    print(f"{'ratio':>6} {'mlp loss':>9} {'mlp acc':>8} {'kan loss':>9} {'kan acc':>8}")
    for row in rows:
        print(f"{row['ratio']:>6} {row['mlp_loss']:9.4f} "
              f"{100 * row['mlp_accuracy']:7.2f}% {row['kan_loss']:9.4f} "
              f"{100 * row['kan_accuracy']:7.2f}%")
    return 0


def cmd_report(args) -> int:
    path = Path(args.out) / "report.jsonl"
    if not path.exists():
        print(f"no report at {path}")
        return 0
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    width = max(len(f"attacked:{kind}") for kind in ATTACK_KINDS)  # the longest stage
    table = [f"{'stage':<{width}} {'metric':>12} {'value':>10} {'wm rate %':>10} "
             f"{'decision':>9}"]
    for number, line in enumerate(data.splitlines(), 1):
        if not line:
            continue
        # Not UTF-8 or JSON (ValueErrors), not an object, or a field missing or mistyped.
        try:
            row = json.loads(line)
            rate = row.get("wm_detection_rate")
            decision = row.get("decision")
            table.append(f"{row['stage']:<{width}} {row['metric_kind']:>12} "
                         f"{row['main_metric']:>10.4f} "
                         f"{rate if rate is not None else '-':>10} "
                         f"{str(decision) if decision is not None else '-':>9}")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise DataError(f"{path} line {number} is not a report row: "
                            f"{type(exc).__name__}: {exc}") from exc
    print("\n".join(table))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache  # built once per process; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanmark",
        description="KAN activation-watermarking experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="runs", help="output directory")

    p = sub.add_parser("train-clean", help="train a clean model")
    common(p)
    p.add_argument("--model", choices=("kan", "mlp"), default="kan")
    p.set_defaults(func=cmd_train_clean)

    p = sub.add_parser("embed", help="embed the watermark and train a detector")
    common(p)
    p.add_argument("--clean-ckpt", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("attack", help="run a watermark-removal attack")
    common(p)
    p.add_argument("--wm-ckpt", required=True)
    p.add_argument("--kind", choices=("finetune", "prune", "retrain"))
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--ratio", type=float)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="verify a suspect model")
    common(p)
    p.add_argument("--detector-ckpt", required=True)
    p.add_argument("--suspect-ckpt", required=True)
    p.add_argument("--tau", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prune-sweep", help="KAN vs MLP pruning comparison")
    common(p)
    p.add_argument("--step", type=float, default=0.1)
    p.set_defaults(func=cmd_prune_sweep)

    p = sub.add_parser("report", help="print the accumulated report")
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = Path(args.out)  # every command's --out, checked before anything runs
        if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
            raise ConfigError(f"--out {out} is not a directory and cannot become one")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, MemoryError) as exc:
        print(f"error: {exc}; nothing saved", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ShapeError, NonFiniteError, CheckpointError) as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
