"""Experiment runner: train clean models, embed watermarks, run removal
attacks, verify ownership, and reproduce the pruning sweep.

Subcommands: train-clean, embed, attack, verify, prune-sweep, report.
Configs, checkpoints, and reports are JSON (checkpoints carry parameters as
nested decimal arrays and are byte-stable across save/load/save). Reports
are JSON lines appended to <out>/report.jsonl.

Exit codes: 0 success, 2 config error or diverged training (no checkpoint
is written), 3 data error, 4 dimension or checkpoint-compatibility error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .attacks import ATTACK_KINDS, AttackSpec, prune_sweep, run_attack
from .data import DataError, average_pool, gen_feynman, load_idx, split_dataset
from .kan import KanModel, KanLayer
from .mlp import MlpModel
from .numeric import ShapeError, adam
from .spline import build_grid
from .training import TASKS, DivergenceError, evaluate, fit
from .watermark import (build_detector_dataset, calibrate_amplitude,
                        default_band, embed, gen_signal, train_detector,
                        verify)

FORMAT_VERSION = 1


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

DEFAULTS = {
    "task": "classification",
    "dataset": {
        "kind": "idx",
        "images": None, "labels": None,
        "test_images": None, "test_labels": None,
        "limit": None, "pool": None,
        "formula": None, "n": 3000,
        "fractions": [0.7, 0.15, 0.15],
    },
    "model": {"widths": None, "hidden": None},
    "grid": {"degree": 3, "intervals": 5, "t_min": -1.0, "t_max": 1.0},
    "train": {"epochs": 50, "lr": 1e-3, "batch_size": 64, "stages": None},
    "watermark": {
        "band": None, "alpha": None, "amplitude_scale": 0.3,
        "epochs": 8, "lr_main": None, "lr_wm": None, "key": None,
    },
    "detector": {
        "hidden": [64, 32], "epochs": 50, "lr": 1e-3,
        "n_shuffles": 10, "n_samples": 2000, "batch_size": 128,
    },
    "attack": {"kind": "finetune", "lr": 1e-3, "epochs": 8, "ratio": 0.6},
    "tau": 0.5,
    "seed": 0,
}


def _merge_defaults(cfg: dict, defaults: dict, path: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        if key in cfg and isinstance(default, dict) and isinstance(cfg[key], dict):
            out[key] = _merge_defaults(cfg[key], default, f"{path}{key}.")
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = copy.deepcopy(default)
    for key in cfg:
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key!r}")
    return out


def load_config(path, seed_override: int | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge_defaults(raw, DEFAULTS)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    if cfg["task"] not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {cfg['task']!r}")
    ds = cfg["dataset"]
    if ds["kind"] not in ("idx", "feynman"):
        raise ConfigError(f"dataset.kind must be idx or feynman, got {ds['kind']!r}")
    if ds["kind"] == "idx" and not (ds["images"] and ds["labels"]):
        raise ConfigError("idx dataset needs images and labels paths")
    if ds["kind"] == "feynman" and not ds["formula"]:
        raise ConfigError("feynman dataset needs a formula id")
    fr = ds["fractions"]
    if not isinstance(fr, list) or not fr or abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError(f"dataset.fractions must sum to 1, got {fr}")
    _check_tau(cfg["tau"])
    if cfg["attack"]["kind"] not in ATTACK_KINDS:
        raise ConfigError(f"unknown attack kind {cfg['attack']['kind']!r}")
    widths = cfg["model"]["widths"]
    if widths and len(widths) < 2:
        raise ConfigError(f"model.widths must list input and output widths, got {widths}")
    for key, least in (("watermark.epochs", 1), ("detector.epochs", 0),
                       ("detector.n_shuffles", 0), ("detector.n_samples", 1)):
        section, name = key.split(".")
        if cfg[section][name] < least:
            raise ConfigError(f"{key} must be >= {least}")
    wm = cfg["watermark"]
    # The grid and the optimizers are built by the constructors the commands
    # use, so their bounds live in one place.
    _constructs("grid", lambda: build_grid(**cfg["grid"]))
    _constructs("train.lr / train.stages",
                lambda: [adam(lr) for _, lr in train_stages(cfg)])
    if any(epochs < 0 for epochs, _ in train_stages(cfg)):
        raise ConfigError("train.epochs and every train.stages epoch count must be >= 0")
    for key in ("lr_main", "lr_wm"):
        if wm[key] is not None:
            _constructs(f"watermark.{key}", lambda: adam(float(wm[key])))
    _constructs("detector.lr", lambda: adam(float(cfg["detector"]["lr"])))
    alpha = wm["alpha"]
    if alpha is not None and not (isinstance(alpha, (int, float))
                                  and np.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"watermark.alpha must be a finite number >= 0, got {alpha!r}")
    band = wm["band"]
    if band is not None and not (isinstance(band, list) and len(band) == 2
                                 and all(type(k) is int for k in band)
                                 and 0 <= band[0] <= band[1]):
        raise ConfigError(f"watermark.band must be two ints 0 <= lo <= hi, got {band!r}")


def _check_tau(tau) -> None:
    """The detection threshold, from the config or ``verify --tau``, is a
    rate in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must be in [0, 1], got {tau}")


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
    """Build (train, test, holdout) Datasets from the config."""
    ds = cfg["dataset"]
    fractions = ds["fractions"]
    if ds["kind"] == "feynman":
        full = gen_feynman(ds["formula"], int(ds["n"]), seed=bundle.data)
        return split_dataset(full, fractions, seed=derive_seed(bundle.data, "split"))

    def load(images, labels):
        loaded = load_idx(images, labels, limit=ds["limit"])
        if ds["pool"]:
            loaded = average_pool(loaded, int(ds["pool"]))
        return loaded

    primary = load(ds["images"], ds["labels"])
    if ds["test_images"]:
        secondary = load(ds["test_images"], ds["test_labels"])
        return [primary, *split_dataset(secondary, [0.5, 0.5],
                                        seed=derive_seed(bundle.data, "split"))]
    return split_dataset(primary, fractions, seed=derive_seed(bundle.data, "split"))


def resolve_widths(cfg: dict, input_dim: int) -> list[int]:
    if cfg["model"]["widths"]:
        widths = [int(w) for w in cfg["model"]["widths"]]
        if widths[0] != input_dim:
            raise ShapeError(f"config widths start at {widths[0]}, "
                             f"data has {input_dim} columns")
        return widths
    if cfg["task"] == "classification":
        hidden = cfg["model"]["hidden"] or 32
        return [input_dim, int(hidden), 10]
    hidden = cfg["model"]["hidden"] or 5
    return [input_dim, int(hidden), 1]


def train_stages(cfg: dict) -> list[tuple[int, float]]:
    tr = cfg["train"]
    stages = [(int(tr["epochs"]), float(tr["lr"]))]
    if tr["stages"]:
        stages += [(int(e), float(lr)) for e, lr in tr["stages"]]
    return stages


def _fit_stages(model, train, task, cfg, bundle):
    for si, (epochs, lr) in enumerate(train_stages(cfg)):
        fit(model, train.inputs, train.targets, task, epochs, adam(lr),
            batch_size=int(cfg["train"]["batch_size"]),
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


def save_checkpoint(path, model, stage: str, cfg_hash: str, seed: int,
                    extra: dict | None = None) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "config_hash": cfg_hash,
        "seed": int(seed),
    }
    if isinstance(model, KanModel):
        payload["kind"] = "kan"
        payload["widths"] = model.widths
        payload["grid"] = _grid_to_dict(model.layers[0].grid)
        payload["layers"] = [{
            "coeffs": layer.coeffs.tolist(),
            "w_b": layer.w_b.tolist(),
            "w_s": layer.w_s.tolist(),
            "prune_mask": layer.prune_mask.astype(int).tolist(),
        } for layer in model.layers]
    elif isinstance(model, MlpModel):
        payload["kind"] = "mlp"
        payload["widths"] = model.widths
        payload["head"] = model.head
        payload["layers"] = [{"weight": w.tolist(), "bias": b.tolist()}
                             for w, b in zip(model.weights, model.biases)]
    else:
        raise CheckpointError(f"cannot checkpoint a {type(model).__name__}")
    if extra:
        payload["extra"] = extra
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def load_checkpoint(path):
    """Returns (model, payload-metadata)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    # Malformed payloads raise lookup/type errors here, bad values ValueError.
    try:
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"checkpoint {path}: format_version {version}, "
                                  f"expected {FORMAT_VERSION}")
        kind = payload.get("kind")
        if kind == "kan":
            g = payload["grid"]
            grid = build_grid(g["degree"], g["intervals"], g["t_min"], g["t_max"])
            layers = [KanLayer(grid, rec["coeffs"], rec["w_b"], rec["w_s"],
                               rec["prune_mask"]) for rec in payload["layers"]]
            return KanModel(layers), payload
        if kind == "mlp":
            layers = payload["layers"]
            return MlpModel([rec["weight"] for rec in layers],
                            [rec["bias"] for rec in layers],
                            payload.get("head", "logits")), payload
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is malformed: "
                              f"{type(exc).__name__}: {exc}") from exc
    raise CheckpointError(f"checkpoint {path}: unknown kind {kind!r}")


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
    if wm_cfg["alpha"] is not None:
        alpha = float(wm_cfg["alpha"])
    else:
        alpha = _constructs("watermark.band", lambda: calibrate_amplitude(
            clean, train.inputs[:256], band, scale=float(wm_cfg["amplitude_scale"])))
    key = wm_cfg["key"] if wm_cfg["key"] is not None else bundle.signal
    signal = _constructs("watermark.band",
                         lambda: gen_signal(int(key), n_sig, band, alpha))
    lr_main = float(wm_cfg["lr_main"] if wm_cfg["lr_main"] is not None
                    else cfg["train"]["lr"])
    lr_wm = None if wm_cfg["lr_wm"] is None else float(wm_cfg["lr_wm"])
    wm = embed(clean, signal, train.inputs, train.targets, task,
               epochs=int(wm_cfg["epochs"]), lr_main=lr_main, lr_wm=lr_wm,
               batch_size=int(cfg["train"]["batch_size"]),
               seed=derive_seed(bundle.data, "embed"))

    det_cfg = cfg["detector"]
    det_rows = train.inputs[:int(det_cfg["n_samples"])]
    det_data = build_detector_dataset(wm, clean, det_rows,
                                      n_shuffles=int(det_cfg["n_shuffles"]),
                                      seed=bundle.detector)
    detector = train_detector(det_data, hidden=tuple(det_cfg["hidden"]),
                              epochs=int(det_cfg["epochs"]),
                              lr=float(det_cfg["lr"]),
                              batch_size=int(det_cfg["batch_size"]),
                              seed=derive_seed(bundle.detector, "train"))

    metrics = evaluate(wm, test.inputs, test.targets, task)
    value, kind = _main_metric(metrics, task)
    result = verify(wm, detector, hold.inputs, tau=float(cfg["tau"]))
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
    wm, _ = _load_kan(args.wm_ckpt)
    atk = dict(cfg["attack"])
    if args.kind:
        atk["kind"] = {"retrain": "retrain_after_prune"}.get(args.kind, args.kind)
    if args.lr is not None:
        atk["lr"] = args.lr
    if args.epochs is not None:
        atk["epochs"] = args.epochs
    if args.ratio is not None:
        atk["ratio"] = args.ratio
    try:
        spec = AttackSpec(kind=atk["kind"], lr=float(atk["lr"]),
                          epochs=int(atk["epochs"]),
                          prune_ratio=(None if atk["kind"] == "finetune"
                                       else float(atk["ratio"])),
                          seed=bundle.attack)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    tau = float(args.tau if args.tau is not None else cfg["tau"])
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
