"""Experiment runner: train clean models, embed watermarks, run removal
attacks, verify ownership, and reproduce the pruning sweep.

Subcommands: train-clean, embed, attack, verify, prune-sweep, report.
Configs, checkpoints, and reports are JSON (checkpoints carry parameters as
one base64 string of float64 bytes and are byte-stable across
save/load/save). Reports are JSON lines appended to <out>/report.jsonl.

Exit codes: 0 success, 2 config error or diverged training (no checkpoint
is written), 3 data error, 4 dimension or checkpoint-compatibility error.
"""

from __future__ import annotations

import argparse
import base64
import copy
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .attacks import ATTACK_KINDS, AttackSpec, check_step, prune_sweep, run_attack
from .data import DataError, average_pool, gen_feynman, load_idx, split_dataset
from .kan import KanModel, KanLayer
from .mlp import MlpModel
from .numeric import ShapeError, adam, views
from .spline import build_grid
from .training import TASKS, DivergenceError, evaluate, fit
from .watermark import (build_detector_dataset, calibrate_amplitude,
                        default_band, embed, gen_signal, train_detector,
                        verify)

FORMAT_VERSION = 2
# Byte layout of a checkpoint's params blob: little-endian float64.
PARAMS_DTYPE = "<f8"


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
        self.master = int(master)
        self.init = derive_seed(master, "init")
        self.data = derive_seed(master, "data")
        self.signal = derive_seed(master, "signal")
        self.detector = derive_seed(master, "detector")
        self.attack = derive_seed(master, "attack")


# ---------------------------------------------------------------------------
# config

# Every config key: (default, kind) or (default, kind, least). kind is int (a
# JSON integer, never 8.0), float (an int or a finite float), str, a tuple of
# allowed values, [kind] (a non-empty list) or [kind, kind, ...] (exactly that
# many). least bounds every number in the value; null is allowed only where the
# default is null; bools are never numbers. Values are checked, never coerced,
# so a well-typed config keeps its config_hash.
SCHEMA = {
    "task": ("classification", TASKS),
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
               "epochs": (8, int, 0), "ratio": (0.6, float, 0)},
    "tau": (0.5, float, 0),
    "seed": (0, int),
}


def _fits(value, kind, least) -> bool:
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(kind, list):
        kinds = kind * len(value) if len(kind) == 1 and isinstance(value, list) else kind
        return (isinstance(value, list) and 0 < len(value) == len(kinds)
                and all(_fits(v, k, least) for v, k in zip(value, kinds)))
    if kind is str:
        return isinstance(value, str)
    number = type(value) is int or (kind is float and type(value) is float
                                    and math.isfinite(value))
    return number and (least is None or value >= least)


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
        default, kind, least = (*spec, None)[:3]
        value = cfg[key] if key in cfg else copy.deepcopy(default)
        if not (value is None and default is None or _fits(value, kind, least)):
            raise ConfigError(
                f"{path}{key} must be {_describe(kind)}"
                f"{'' if least is None else f' (numbers >= {least})'}"
                f"{' or null' if default is None else ''}, got {json.dumps(value)}")
        out[key] = value
    return out


def load_config(path, seed_override: int | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = _merge(raw, SCHEMA)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    """The rules that span fields or need a constructor; :data:`SCHEMA`
    has already checked each key's type and least value."""
    ds = cfg["dataset"]
    if ds["kind"] == "idx" and not (ds["images"] and ds["labels"]):
        raise ConfigError("idx dataset needs images and labels paths")
    if bool(ds["test_images"]) != bool(ds["test_labels"]):
        raise ConfigError("dataset.test_images and dataset.test_labels come as a pair")
    if ds["kind"] == "feynman" and not ds["formula"]:
        raise ConfigError("feynman dataset needs a formula id")
    if abs(sum(ds["fractions"]) - 1.0) > 1e-9:
        raise ConfigError("dataset.fractions (train, test, holdout) must sum "
                          f"to 1, got {ds['fractions']!r}")
    _check_tau(cfg["tau"])
    widths = cfg["model"]["widths"]
    if widths and len(widths) < 2:
        raise ConfigError(f"model.widths must list input and output widths, got {widths}")
    band = cfg["watermark"]["band"]
    if band is not None and band[0] > band[1]:
        raise ConfigError(f"watermark.band must be [lo, hi] with lo <= hi, got {band!r}")
    _constructs("grid", lambda: build_grid(**cfg["grid"]))  # t_min < t_max


def _check_tau(tau) -> None:
    """The detection threshold, from the config or ``verify --tau``, is a
    rate in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must be a number in [0, 1], got {tau!r}")


def _constructs(name: str, build):
    """Returns ``build()``; its TypeError or ValueError, other than a
    ShapeError, becomes a ConfigError."""
    try:
        return build()
    except ShapeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# datasets

def resolve_dataset(cfg: dict, bundle: SeedBundle):
    """Build (train, test, holdout) Datasets from the config; raises
    ConfigError when one of them is empty."""
    ds = cfg["dataset"]
    seed = derive_seed(bundle.data, "split")

    def load(images, labels):
        loaded = load_idx(images, labels, limit=ds["limit"])
        if ds["pool"]:
            loaded = average_pool(loaded, ds["pool"])
        return loaded

    if ds["kind"] == "feynman":
        full = gen_feynman(ds["formula"], ds["n"], seed=bundle.data)
        splits = split_dataset(full, ds["fractions"], seed=seed)
    elif ds["test_images"]:
        primary = load(ds["images"], ds["labels"])
        secondary = load(ds["test_images"], ds["test_labels"])
        splits = [primary, *split_dataset(secondary, [0.5, 0.5], seed=seed)]
    else:
        splits = split_dataset(load(ds["images"], ds["labels"]), ds["fractions"],
                               seed=seed)
    sizes = [len(split) for split in splits]
    if 0 in sizes:
        raise ConfigError(f"(train, test, holdout) split sizes {sizes}: none may be empty")
    return splits


def resolve_widths(cfg: dict, input_dim: int) -> list[int]:
    if cfg["model"]["widths"]:
        widths = list(cfg["model"]["widths"])
        if widths[0] != input_dim:
            raise ShapeError(f"config widths start at {widths[0]}, "
                             f"data has {input_dim} columns")
        return widths
    if cfg["task"] == "classification":
        return [input_dim, cfg["model"]["hidden"] or 32, 10]
    return [input_dim, cfg["model"]["hidden"] or 5, 1]


def _fit_stages(model, train, task, cfg, bundle):
    """``train.epochs`` at ``train.lr``, then each ``train.stages`` pair."""
    tr = cfg["train"]
    for si, (epochs, lr) in enumerate([(tr["epochs"], tr["lr"]), *(tr["stages"] or [])]):
        fit(model, train.inputs, train.targets, task, epochs, adam(lr),
            batch_size=tr["batch_size"],
            seed=derive_seed(bundle.data, f"fit-stage-{si}"))


def _new_model(kind: str, cfg: dict, bundle: SeedBundle, input_dim: int):
    """Freshly initialised ``kan`` or ``mlp`` model of the configured widths."""
    widths = resolve_widths(cfg, input_dim)
    if kind == "mlp":
        head = "logits" if cfg["task"] == "classification" else "scalar"
        return MlpModel.create(widths, head=head, seed=derive_seed(bundle.init, "mlp"))
    return KanModel.create(widths, grid=build_grid(**cfg["grid"]), seed=bundle.init)


# ---------------------------------------------------------------------------
# checkpoints

def _grid_to_dict(grid) -> dict:
    return {"degree": grid.degree, "intervals": grid.intervals,
            "t_min": grid.t_min, "t_max": grid.t_max}


def _encode_params(params) -> str:
    return base64.b64encode(np.asarray(params, PARAMS_DTYPE).tobytes()).decode("ascii")


def save_checkpoint(path, model, stage: str, cfg_hash: str, seed: int,
                    extra: dict | None = None) -> None:
    """Writes ``model`` as canonical JSON: readable metadata plus its flat
    ``params`` vector as one base64 string of PARAMS_DTYPE bytes. Raises
    ValueError on non-finite parameters."""
    if not isinstance(model, (KanModel, MlpModel)):
        raise CheckpointError(f"cannot checkpoint a {type(model).__name__}")
    if not np.all(np.isfinite(model.params)):
        raise ValueError("cannot checkpoint non-finite parameters")
    payload = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "config_hash": cfg_hash,
        "seed": int(seed),
        "widths": model.widths,
        "params": _encode_params(model.params),
    }
    if isinstance(model, KanModel):
        payload["kind"] = "kan"
        payload["layers"] = [{"grid": _grid_to_dict(layer.grid),
                              "prune_mask": layer.prune_mask.astype(int).tolist()}
                             for layer in model.layers]
    else:
        payload["kind"] = "mlp"
        payload["head"] = model.head
    if extra:
        payload["extra"] = extra
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def _from_version_1(payload: dict) -> dict:
    """A version-1 payload, which held each array as nested JSON lists and one
    grid for every KAN layer, in the version-2 layout."""
    kan = payload["kind"] == "kan"
    keys = ("coeffs", "w_b", "w_s") if kan else ("weight", "bias")
    params = np.concatenate([np.asarray(rec[key], dtype=np.float64).ravel()
                             for rec in payload["layers"] for key in keys])
    out = dict(payload, params=_encode_params(params))
    if kan:
        out["layers"] = [{"grid": payload["grid"], "prune_mask": rec["prune_mask"]}
                         for rec in payload["layers"]]
    return out


def load_checkpoint(path):
    """Returns (model, payload-metadata). Also reads version-1 checkpoints,
    which held parameters as nested decimal arrays."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    # Malformed payloads raise lookup/type errors here, bad values ValueError
    # (a bad base64 string raises binascii.Error, a ValueError).
    try:
        version = payload.get("format_version")
        if version not in (1, FORMAT_VERSION):
            raise CheckpointError(f"checkpoint {path}: format_version {version}, "
                                  f"expected {FORMAT_VERSION} or 1")
        kind = payload.get("kind")
        if kind not in ("kan", "mlp"):
            raise CheckpointError(f"checkpoint {path}: unknown kind {kind!r}")
        if version == 1:
            payload = _from_version_1(payload)
        widths, layers = payload["widths"], payload.get("layers")
        edges = list(zip(widths[1:], widths))  # (out, in) of each layer
        if kind == "mlp":
            shapes = [shape for edge in edges for shape in (edge, edge[:1])]
        elif len(layers) != len(edges):
            raise ValueError(f"{len(layers)} layer records for widths {widths}")
        else:
            grids = [build_grid(**rec["grid"]) for rec in layers]
            shapes = [shape for edge, grid in zip(edges, grids)
                      for shape in ((*edge, grid.basis_count), edge, edge)]
        params = np.frombuffer(base64.b64decode(payload["params"], validate=True),
                               dtype=PARAMS_DTYPE)
        need = sum(math.prod(shape) for shape in shapes)
        if params.size != need:
            raise ValueError(f"params hold {params.size} values, widths {widths} "
                             f"need {need}")
        arrays = views(params, shapes)
        if kind == "mlp":
            model = MlpModel(arrays[0::2], arrays[1::2], payload.get("head", "logits"))
        else:
            model = KanModel([KanLayer(grid, *arrays[3 * k:3 * k + 3], rec["prune_mask"])
                              for k, (grid, rec) in enumerate(zip(grids, layers))])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is malformed: "
                              f"{type(exc).__name__}: {exc}") from exc
    return model, payload


def _load_kan(path) -> tuple[KanModel, dict]:
    model, meta = load_checkpoint(path)
    if not isinstance(model, KanModel):
        raise CheckpointError(f"{path}: expected a kan checkpoint, "
                              f"got {meta.get('kind')!r}")
    return model, meta


# ---------------------------------------------------------------------------
# report

def append_report_row(out_dir, row: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    line = json.dumps(row, sort_keys=True, allow_nan=False)
    with open(out / "report.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def _report_row(stage, cfg, bundle, main_metric, metric_kind,
                wm_rate=None, decision=None, **extra):
    row = {
        "stage": stage,
        "metric_kind": metric_kind,
        "main_metric": round(float(main_metric), 6),
        "wm_detection_rate": None if wm_rate is None else round(100.0 * wm_rate, 4),
        "decision": decision,
        "config_hash": config_hash(cfg),
        "seed": bundle.master,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    row.update(extra)
    return row


def _main_metric(metrics: dict, task: str) -> tuple[float, str]:
    if task == "classification":
        return 100.0 * metrics["accuracy"], "accuracy_pct"
    return metrics["rmse"], "rmse"


# ---------------------------------------------------------------------------
# commands

def _setup(args):
    """(config, seed bundle, (train, test, holdout)) of a command."""
    cfg = load_config(args.config, args.seed)
    bundle = SeedBundle(cfg["seed"])
    return cfg, bundle, resolve_dataset(cfg, bundle)


def cmd_train_clean(args) -> int:
    cfg, bundle, (train, test, hold) = _setup(args)
    task = cfg["task"]
    model = _new_model(args.model, cfg, bundle, train.inputs.shape[1])
    _fit_stages(model, train, task, cfg, bundle)
    metrics = evaluate(model, test.inputs, test.targets, task)
    value, kind = _main_metric(metrics, task)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / f"clean-{args.model}.json"
    save_checkpoint(ckpt, model, "clean", config_hash(cfg), bundle.master)
    append_report_row(out, _report_row("clean", cfg, bundle, value, kind,
                                       model=args.model))
    print(f"clean {args.model}: {kind} {value:.4f} -> {ckpt}")
    return 0


def cmd_embed(args) -> int:
    cfg, bundle, (train, test, hold) = _setup(args)
    task = cfg["task"]
    clean, _ = _load_kan(args.clean_ckpt)
    wm_cfg = cfg["watermark"]
    n_sig = clean.layers[0].out_dim
    band = wm_cfg["band"] or list(default_band(n_sig))
    alpha = wm_cfg["alpha"]
    if alpha is None:
        alpha = _constructs("watermark.band", lambda: calibrate_amplitude(
            clean, train.inputs[:256], band, scale=wm_cfg["amplitude_scale"]))
    key = wm_cfg["key"] if wm_cfg["key"] is not None else bundle.signal
    signal = _constructs("watermark.band",
                         lambda: gen_signal(key, n_sig, band, alpha))
    lr_main = wm_cfg["lr_main"] if wm_cfg["lr_main"] is not None else cfg["train"]["lr"]
    wm = embed(clean, signal, train.inputs, train.targets, task,
               epochs=wm_cfg["epochs"], lr_main=lr_main, lr_wm=wm_cfg["lr_wm"],
               batch_size=cfg["train"]["batch_size"],
               seed=derive_seed(bundle.data, "embed"))

    det_cfg = cfg["detector"]
    det_rows = train.inputs[:det_cfg["n_samples"]]
    det_data = build_detector_dataset(wm, clean, det_rows,
                                      n_shuffles=det_cfg["n_shuffles"],
                                      seed=bundle.detector)
    detector = train_detector(det_data, hidden=det_cfg["hidden"],
                              epochs=det_cfg["epochs"], lr=det_cfg["lr"],
                              batch_size=det_cfg["batch_size"],
                              seed=derive_seed(bundle.detector, "train"))

    metrics = evaluate(wm, test.inputs, test.targets, task)
    value, kind = _main_metric(metrics, task)
    result = verify(wm, detector, hold.inputs, tau=cfg["tau"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    wm_path = out / "watermarked-kan.json"
    det_path = out / "detector-mlp.json"
    sig_extra = {"band": [int(band[0]), int(band[1])],
                 "alpha": float(alpha), "key": int(key)}
    save_checkpoint(wm_path, wm, "watermarked", chash, bundle.master,
                    extra=sig_extra)
    save_checkpoint(det_path, detector, "detector", chash, bundle.master,
                    extra=sig_extra)
    append_report_row(out, _report_row("watermarked", cfg, bundle, value, kind,
                                       wm_rate=result.detection_rate,
                                       decision=result.decision))
    print(f"watermarked: {kind} {value:.4f}, detection rate "
          f"{100 * result.detection_rate:.2f}% -> {wm_path}")
    return 0


def cmd_attack(args) -> int:
    cfg, bundle, (train, test, hold) = _setup(args)
    task = cfg["task"]
    flags = {"kind": {"retrain": "retrain_after_prune"}.get(args.kind, args.kind),
             "lr": args.lr, "epochs": args.epochs, "ratio": args.ratio}
    atk = _merge({**cfg["attack"], **{k: v for k, v in flags.items() if v is not None}},
                 SCHEMA["attack"], "attack.")
    wm, _ = _load_kan(args.wm_ckpt)
    # float(): the checkpoint and report row record lr and ratio as floats
    spec = _constructs("attack", lambda: AttackSpec(
        kind=atk["kind"], lr=float(atk["lr"]), epochs=atk["epochs"],
        prune_ratio=None if atk["kind"] == "finetune" else float(atk["ratio"]),
        seed=bundle.attack))
    attacked = run_attack(wm, spec, train.inputs, train.targets, task,
                          calibration=train.inputs[:256])
    metrics = evaluate(attacked, test.inputs, test.targets, task)
    value, kind = _main_metric(metrics, task)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    provenance = {"kind": spec.kind, "lr": spec.lr, "epochs": spec.epochs,
                  "ratio": spec.prune_ratio}
    ckpt = out / f"attacked-{spec.kind}.json"
    save_checkpoint(ckpt, attacked, "attacked", config_hash(cfg),
                    bundle.master, extra=provenance)
    append_report_row(out, _report_row(f"attacked:{spec.kind}", cfg, bundle,
                                       value, kind, **provenance))
    print(f"attacked ({spec.kind}): {kind} {value:.4f} -> {ckpt}")
    return 0


def cmd_verify(args) -> int:
    cfg, bundle, (train, test, hold) = _setup(args)
    tau = args.tau if args.tau is not None else cfg["tau"]
    _check_tau(tau)
    detector, det_meta = load_checkpoint(args.detector_ckpt)
    if not isinstance(detector, MlpModel):
        raise CheckpointError(f"{args.detector_ckpt}: expected an mlp detector")
    # Detectors saved before the watermark was fixed to layer 0 record its
    # layer; one trained on another layer cannot read layer 0.
    layer = det_meta.get("extra", {}).get("layer_index", 0)
    if layer != 0:
        raise CheckpointError(f"{args.detector_ckpt}: detector reads layer "
                              f"{layer}, but only layer 0 is watermarked")
    suspect, _ = _load_kan(args.suspect_ckpt)
    result = verify(suspect, detector, hold.inputs, tau=tau)
    out = Path(args.out)
    append_report_row(out, _report_row("verify", cfg, bundle, 0.0, "none",
                                       wm_rate=result.detection_rate,
                                       decision=result.decision,
                                       suspect=Path(args.suspect_ckpt).name))
    print(f"detection rate {100 * result.detection_rate:.2f}% "
          f"(tau {100 * tau:.0f}%) -> decision "
          f"{'WATERMARKED' if result.decision else 'clean'}")
    return 0


def cmd_prune_sweep(args) -> int:
    _constructs("prune-sweep --step", lambda: check_step(args.step))
    cfg, bundle, (train, test, hold) = _setup(args)
    if cfg["task"] != "classification":
        raise ConfigError("prune-sweep is a classification experiment")
    kan = _new_model("kan", cfg, bundle, train.inputs.shape[1])
    mlp = _new_model("mlp", cfg, bundle, train.inputs.shape[1])
    _fit_stages(kan, train, "classification", cfg, bundle)
    _fit_stages(mlp, train, "classification", cfg, bundle)
    rows = prune_sweep(kan, mlp, test.inputs, test.targets,
                       calibration=train.inputs[:256], step=args.step)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "prune_sweep.json").write_text(canonical_json(rows), encoding="utf-8")
    print(f"{'ratio':>6} {'mlp loss':>9} {'mlp acc':>8} {'kan loss':>9} {'kan acc':>8}")
    for row in rows:
        print(f"{row['ratio']:6.1f} {row['mlp_loss']:9.4f} "
              f"{100 * row['mlp_accuracy']:7.2f}% {row['kan_loss']:9.4f} "
              f"{100 * row['kan_accuracy']:7.2f}%")
    return 0


def cmd_report(args) -> int:
    path = Path(args.out) / "report.jsonl"
    if not path.exists():
        print(f"no report at {path}")
        return 0
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    print(f"{'stage':<24} {'metric':>12} {'value':>10} {'wm rate %':>10} {'decision':>9}")
    for row in rows:
        rate = row.get("wm_detection_rate")
        decision = row.get("decision")
        print(f"{row['stage']:<24} {row['metric_kind']:>12} "
              f"{row['main_metric']:>10.4f} "
              f"{rate if rate is not None else '-':>10} "
              f"{str(decision) if decision is not None else '-':>9}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanmark",
        description="KAN activation-watermarking experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
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
    p.add_argument("--kind", choices=("finetune", "prune", "retrain"),
                   default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--ratio", type=float, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="verify a suspect model")
    common(p)
    p.add_argument("--detector-ckpt", required=True)
    p.add_argument("--suspect-ckpt", required=True)
    p.add_argument("--tau", type=float, default=None)
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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}; nothing saved", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ShapeError, CheckpointError, IndexError) as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
