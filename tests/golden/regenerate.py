"""Regenerate ``tests/golden/golden.json``: what the whole ``kanmark`` CLI
chain writes on two small configs, which ``tests/test_golden.py`` compares
every later tree against.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate only in the commit of a change that is meant to move the
numbers, and say so in CHANGES.md. The file records, per config:
- the SHA-256 of every checkpoint and of ``prune_sweep.json``;
- the report rows without their ``timestamp``;
- each checkpoint's decoded parameters (little-endian float64 bytes in
  base64, this file's own encoding, whatever the checkpoint format) and the
  prune-sweep rows, for hosts whose numbers may differ in the last bits;
- numpy's version, its BLAS and the CPU features numpy dispatches on, which
  decide whether a host is expected to reproduce the bytes.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from kanmark import Dataset, write_idx
from kanmark.cli import canonical_json, load_checkpoint, main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
# The IDX config's data: 300 seeded random-byte 4x4 images with labels 0-9.
IDX_FILES = ("idx-images.idx", "idx-labels.idx")

# Few epochs per stage and a one-layer detector, so both chains run in about
# a second. Paths are relative: the config, and so every config_hash, is the
# same wherever the chain runs.
STAGES = {"train": {"epochs": 4}, "watermark": {"epochs": 2},
          "detector": {"hidden": [8], "epochs": 4}, "attack": {"epochs": 2},
          "seed": 3}
CONFIGS = {
    "feynman": {"task": "regression",
                "dataset": {"kind": "feynman", "formula": "I.12.11", "n": 600,
                            "fractions": [0.8, 0.1, 0.1]},
                "model": {"widths": [2, 5, 1]}, **STAGES},
    "idx": {"dataset": {"images": IDX_FILES[0], "labels": IDX_FILES[1]},
            "model": {"widths": [16, 4, 10]}, **STAGES},
}
SUSPECTS = ("attacked-finetune", "attacked-prune", "attacked-retrain_after_prune",
            "clean-kan")


def commands(name: str) -> list[list[str]]:
    """The CLI chain of config ``name``, run in a directory holding c.json."""
    common = ["--config", "c.json", "--out", "runs"]
    chain = [["train-clean", *common],
             ["embed", *common, "--clean-ckpt", "runs/clean-kan.json"]]
    chain += [["attack", *common, "--wm-ckpt", "runs/watermarked-kan.json", "--kind", kind]
              for kind in ("finetune", "prune", "retrain")]
    chain += [["verify", *common, "--detector-ckpt", "runs/detector-mlp.json",
               "--suspect-ckpt", f"runs/{suspect}.json"] for suspect in SUSPECTS]
    if name == "idx":
        chain += [["prune-sweep", *common, "--step", "0.5"],
                  ["train-clean", *common, "--model", "mlp"]]
    return chain + [["report", "--out", "runs"]]


def write_idx_files(directory: Path) -> None:
    rng = np.random.default_rng(20)
    data = Dataset(rng.integers(0, 256, (300, 16)) / 127.5 - 1.0, rng.integers(0, 10, 300))
    write_idx(data, directory / IDX_FILES[0], directory / IDX_FILES[1])


def run_chain(name: str, workdir: Path) -> dict:
    """Runs config ``name``'s chain in ``workdir`` (the IDX data is copied
    from this directory) and returns what golden.json records for it."""
    workdir = Path(workdir)
    (workdir / "c.json").write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    if name == "idx":
        for file in IDX_FILES:
            shutil.copyfile(HERE / file, workdir / file)
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands(name):
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(argv)
            if status != 0:
                raise RuntimeError(f"kanmark {' '.join(argv)} exited {status}")
    finally:
        os.chdir(previous)
    return record(workdir / "runs")


def record(runs: Path) -> dict:
    files, params = {}, {}
    for path in sorted(runs.glob("*.json")):
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name != "prune_sweep.json":
            params[path.name] = base64.b64encode(
                np.asarray(load_checkpoint(path)[0].params, "<f8").tobytes()).decode("ascii")
    report = [json.loads(line) for line in (runs / "report.jsonl").read_text().splitlines()]
    for row in report:
        del row["timestamp"]
    sweep = runs / "prune_sweep.json"
    return {"files": files, "params": params, "report": report,
            "sweep": json.loads(sweep.read_text()) if sweep.exists() else None}


def environment() -> dict:
    """numpy's version, its BLAS and the CPU features numpy found: where all
    three match the golden file's, the bytes are expected to match too."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        try:
            from numpy.core._multiarray_umath import __cpu_features__ as features
        except ImportError:
            features = {}
    return {"numpy": np.__version__, "blas": blas,
            "cpu": " ".join(sorted(k for k, on in features.items() if on))}


def regenerate() -> None:
    write_idx_files(HERE)
    golden = {"environment": environment(), "configs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            (Path(tmp) / name).mkdir()
            golden["configs"][name] = run_chain(name, Path(tmp) / name)
    GOLDEN.write_text(canonical_json(golden), encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    regenerate()
