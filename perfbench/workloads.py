"""The two kanmark workloads and the client that drives kanmark.

kanmark is driven from outside, as a user drives it: the ``kanmark`` CLI is
called in-process through ``kanmark.cli.main``. Every workload receives only
inputs generated here from the workload seed.

- ``glyph-pipeline``: the headline experiment on seeded 8x8 glyphs.
- ``feynman-pipeline``: the README quickstart (Feynman I.12.11, [2, 5, 1]).

A round is the fixed unit of measured work; the runner repeats rounds for
the requested time. Rounds cycle through ``subseeds`` CLI seeds derived from
the workload seed, so a run sees each model set more than once and compares
its checkpoints byte for byte, and the quality metrics average over several
model sets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import glyphs

SUSPECTS = ("clean-kan", "watermarked-kan", "attacked-finetune",
            "attacked-prune", "attacked-retrain_after_prune")
ATTACKED = SUSPECTS[2:]
ORACLE_TOLERANCE = 1e-10


def subseed(seed: int, k: int) -> int:
    return seed * 16 + k


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Gate:
    """Counts operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Client:
    """Calls ``kanmark <argv>`` in-process and counts non-zero exits.

    The CLI's own output is captured; it is echoed to stderr on failure.
    When a tracer is attached, each call is one top-level stage span.
    """

    def __init__(self, gate: Gate):
        self.gate = gate
        self.tracer = None

    def __call__(self, stage: str, argv: list[str]) -> float:
        main = sys.modules["kanmark.cli"].main
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.begin(f"stage.{stage}") if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        if not self.gate.check(rc == 0, f"kanmark {' '.join(argv)} exited {rc}"):
            sys.stderr.write(out.getvalue() + err.getvalue())
        return elapsed


def report_rows(out_dir) -> list[dict]:
    path = Path(out_dir) / "report.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


class Pipeline:
    """train-clean -> embed -> attack x3 -> verify, all through the CLI.

    Holds the gate, the client, checkpoint digests and the oracle probe."""

    name = ""
    task = "classification"
    # Set-up is repeated, half before and half after the measured rounds, and
    # its median reported as setup_s.
    setup_repeats = 8
    # Main-task KAN training epochs of train-clean and of each training attack.
    train_epochs = 0
    attack_epochs = 0
    verify_passes = 5
    subseeds = 2
    config: dict = {}

    def __init__(self, seed: int, oracle, state: dict):
        self.seed = seed
        self.oracle = oracle
        self.gate = Gate()
        self.cli = Client(self.gate)
        self.digests: dict[str, dict[str, str]] = {}
        self.stored = state.setdefault(f"{self.name}:{seed}", {})
        self.train_rows = 0
        self.probe = None
        self.qualities: dict[str, dict] = {}

    # -- set-up --------------------------------------------------------------

    def setup(self, repeat: int) -> None:
        self.make_inputs()
        write_json("config.json", self.config)

    def write_glyphs(self, n: int) -> None:
        """Generate glyphs and round-trip them through write_idx/load_idx."""
        km = sys.modules["kanmark"]
        inputs, labels = glyphs.generate(n, self.seed)
        km.write_idx(km.Dataset(inputs, labels), "images-idx3", "labels-idx1",
                     image_shape=(glyphs.SIDE, glyphs.SIDE))
        loaded = km.load_idx("images-idx3", "labels-idx1")
        quantised = 2.0 * (np.round((inputs + 1.0) / 2.0 * 255.0) / 255.0) - 1.0
        self.gate.check(np.array_equal(loaded.targets, labels)
                        and np.allclose(loaded.inputs, quantised, rtol=0, atol=1e-12),
                        "IDX round trip changed the glyphs")
        # One probe row: a glyph with every other pixel set to a grid knot.
        probe = loaded.inputs[:1].copy()
        probe[0, ::2] = np.resize(np.linspace(-1.0, 1.0, 6), probe[0, ::2].size)
        self.probe = probe

    def prepare(self) -> None:
        """Count the CLI's training rows for the run seed."""
        cli = sys.modules["kanmark.cli"]
        cfg = cli.load_config("config.json", self.seed)
        self.train_rows = len(cli.resolve_dataset(cfg, cli.SeedBundle(self.seed))[0])

    def train_rows_per_round(self) -> int:
        """Main-task KAN rows trained by train-clean, finetune and retrain."""
        return self.train_rows * (self.train_epochs + 2 * self.attack_epochs)

    # -- rounds --------------------------------------------------------------

    def round(self, index: int) -> dict:
        """train-clean -> embed -> the three attacks -> verify. Returns CLI
        times in s and verify latencies in ms, each scaled to the nominal
        host speed by the calibration bursts on either side of its stage,
        and the same figures unscaled under ``wall``. ``train`` sums the
        stages that train the main task; ``round`` excludes the bursts."""
        sub = subseed(self.seed, index % self.subseeds)
        out = Path(f"round-{index}")
        common = ["--config", "config.json", "--seed", str(sub), "--out", str(out)]
        bursts = [calibration.burst()]
        start = time.perf_counter()
        train_clean = self.cli("train_clean", ["train-clean", *common])
        bursts.append(calibration.burst())
        embed = self.cli("embed", ["embed", *common, "--clean-ckpt",
                                   str(out / "clean-kan.json")])
        bursts.append(calibration.burst())
        attack = {kind: self.cli("attack", ["attack", *common, "--wm-ckpt",
                                            str(out / "watermarked-kan.json"), "--kind", kind])
                  for kind in ("finetune", "prune", "retrain")}
        bursts.append(calibration.burst())
        # Closed loop: round-robin passes of back-to-back verify calls.
        verify_ms = [
            1e3 * self.cli("verify", ["verify", *common, "--detector-ckpt",
                                      str(out / "detector-mlp.json"),
                                      "--suspect-ckpt", str(out / f"{suspect}.json")])
            for _ in range(self.verify_passes) for suspect in SUSPECTS]
        elapsed = time.perf_counter() - start - sum(map(sum, bursts[1:]))
        bursts.append(calibration.burst())

        def stages(f):
            """Stage figures with factors f = (train_clean, embed, attack, verify)."""
            attack_s = sum(attack.values()) * f[2]
            return {"train_clean": train_clean * f[0], "embed": embed * f[1],
                    "attack": attack_s, "verify_ms": [ms * f[3] for ms in verify_ms],
                    "train": train_clean * f[0] + (attack["finetune"] + attack["retrain"]) * f[2]}

        wall = stages((1.0,) * 4)
        times = stages([calibration.speed(*bursts[i:i + 2]) for i in range(4)])
        busy = [sum(t[k] for k in ("train_clean", "embed", "attack")) + sum(t["verify_ms"]) / 1e3
                for t in (wall, times)]
        wall["round"] = elapsed
        times["round"] = elapsed * busy[1] / busy[0]
        times["wall"] = wall
        return times

    def after_round(self, index: int, times: dict) -> None:
        out = Path(f"round-{index}")
        key = f"subseed-{index % self.subseeds}"
        self.record_checkpoints(key, out)
        if key not in self.qualities:
            try:
                self.qualities[key] = self.quality(report_rows(out))
            except (KeyError, ZeroDivisionError, TypeError) as exc:
                self.gate.check(False, f"{key}: report rows incomplete ({exc!r})")
                self.qualities[key] = {}
            else:
                self.check_quality(key, self.qualities[key])

    # -- correctness ---------------------------------------------------------

    def record_checkpoints(self, key: str, out_dir: Path) -> None:
        """Digest the checkpoints of one sub-seed; compare them with every
        earlier set for that sub-seed, in this run and in earlier runs of
        the same code and seed; probe new KAN checkpoints against the
        oracle."""
        names = (*SUSPECTS, "detector-mlp")
        found = {n: sha256(out_dir / f"{n}.json") for n in names
                 if (out_dir / f"{n}.json").exists()}
        self.gate.check(len(found) == len(names),
                        f"{key}: missing checkpoints {sorted(set(names) - set(found))}")
        for label, earlier in (("this run", self.digests.get(key)),
                               ("an earlier run", self.stored.get(key))):
            if earlier is not None:
                self.gate.check(earlier == found,
                                f"{key}: checkpoint digests differ from {label}")
        if key not in self.digests:
            self.digests[key] = found
            self.stored.setdefault(key, found)
            for n in SUSPECTS:
                if n in found:
                    self.check_oracle(out_dir / f"{n}.json")

    def check_oracle(self, path: Path) -> None:
        """Layer-0 forward of a checkpoint against the brute-force oracle."""
        km = sys.modules["kanmark"]
        try:
            model, _ = km.cli.load_checkpoint(path)
            ours = model.forward(self.probe)[1]
            ref = self.oracle.kan_forward_ref(km.KanModel([model.layers[0]]),
                                              self.probe)[0]
            error = float(np.max(np.abs(ours - ref)))
        except Exception as exc:
            error = math.inf
            print(f"oracle probe of {path.name} raised {exc!r}", file=sys.stderr)
        self.gate.check(error <= ORACLE_TOLERANCE,
                        f"{path.name}: layer-0 forward differs from the oracle by {error:.3g}")

    def check_quality(self, key: str, quality: dict) -> None:
        """Quality is exact for one code and seed: a set that differs from
        an earlier run's fails, so a quality difference between two commits
        on one seed comes from the change."""
        earlier = self.stored.setdefault(f"quality:{key}", quality)
        self.gate.check(earlier == quality,
                        f"{key}: quality {quality} differs from an earlier run's {earlier}")

    # -- quality -------------------------------------------------------------

    def quality(self, rows: list[dict]) -> dict[str, float]:
        """Watermark quality of one model set from the CLI's report rows."""
        by_stage = {r["stage"]: r for r in rows}
        rates = {}
        for r in rows:
            if r["stage"] == "verify":
                rates[r["suspect"].removesuffix(".json")] = r["wm_detection_rate"]
        clean, wm = by_stage["clean"]["main_metric"], by_stage["watermarked"]["main_metric"]
        if self.task == "classification":
            cost = clean - wm                       # accuracy points lost
        else:
            cost = 100.0 * (wm - clean) / clean     # relative RMSE increase
        return {
            "wm_detection_pct": by_stage["watermarked"]["wm_detection_rate"],
            "clean_rejection_pct": 100.0 - rates["clean-kan"],
            "quality.clean_detection_pct": rates["clean-kan"],
            "quality.attacked_detection_pct": statistics.fmean(rates[a] for a in ATTACKED),
            "quality.wm_task_cost_pct": cost,
        }

    def quality_metrics(self) -> tuple[dict[str, float], int]:
        """Quality averaged over the sub-seeds, and their count."""
        sets = [q for q in self.qualities.values() if q]
        if not sets:
            return {}, 0
        return {k: statistics.fmean(q[k] for q in sets) for k in sets[0]}, len(sets)


class GlyphPipeline(Pipeline):
    name = "glyph-pipeline"
    n = 1000
    train_epochs = 16
    attack_epochs = 4
    config = {
        "task": "classification",
        "dataset": {"kind": "idx", "images": "images-idx3", "labels": "labels-idx1",
                    "fractions": [0.7, 0.15, 0.15]},
        "model": {"widths": [64, 32, 10]},
        "train": {"epochs": train_epochs, "lr": 3e-3, "batch_size": 64},
        "attack": {"epochs": attack_epochs},
    }

    def make_inputs(self) -> None:
        self.write_glyphs(self.n)


class FeynmanPipeline(Pipeline):
    name = "feynman-pipeline"
    task = "regression"
    # Rounds are short, and quality varies more from seed to seed here.
    subseeds = 8
    train_epochs = 200
    # Three times the CLI default, so the attack stage lasts long enough
    # to time steadily.
    attack_epochs = 24
    config = {
        "task": "regression",
        "dataset": {"kind": "feynman", "formula": "I.12.11", "n": 600,
                    "fractions": [0.8, 0.1, 0.1]},
        "model": {"widths": [2, 5, 1]},
        "train": {"epochs": train_epochs, "lr": 0.001, "batch_size": 64},
        "attack": {"epochs": attack_epochs},
    }

    def make_inputs(self) -> None:
        km = sys.modules["kanmark"]
        data = km.gen_feynman("I.12.11", self.config["dataset"]["n"], seed=self.seed)
        self.gate.check(bool(np.all(np.isfinite(data.targets))),
                        "Feynman targets are not finite")
        grid = np.linspace(-1.0, 1.0, 6)
        self.probe = np.vstack([data.inputs[:2], np.stack([grid[:2], grid[-2:]])])


WORKLOADS = {w.name: w for w in (GlyphPipeline, FeynmanPipeline)}
