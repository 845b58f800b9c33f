"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced run."""

from __future__ import annotations

import math
import os
import sys

import numpy as np

import stats
from tracing import Instrumentation, Target, Tracer, summarise

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "train_rows_per_s": "rows/s",
    "train_clean_s": "s",
    "embed_s": "s",
    "attack_s": "s",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "wm_detection_pct": "%",
    "clean_rejection_pct": "%",
}


# -- counters: functions of (bound arguments, result) ------------------------

def _rows(arg):
    return lambda a, r: np.shape(a[arg])[0]


def _points(a, r):
    return np.size(a["x"])


def _forward_edge_bytes(a, r):
    """Bytes of (batch, out, in) arrays the layer keeps for backward."""
    layer, cache = a["self"], r[1]
    return sum(v.nbytes for v in cache.values()
               if isinstance(v, np.ndarray) and v.ndim == 3
               and v.shape[1:] == (layer.out_dim, layer.in_dim))


def _per_edge_bytes(a, r):
    return r.nbytes if np.ndim(r) == 3 else 0


def _file_bytes(*args):
    return lambda a, r: sum(os.path.getsize(a[n]) for n in args)


def _fit_steps(a, r):
    return a["epochs"] * math.ceil(np.shape(a["inputs"])[0] / a["batch_size"])


def _edges(a, r):
    return sum(layer.out_dim * layer.in_dim for layer in a["model"].layers)


def _targets() -> list[Target]:
    T = Target
    km = "kanmark."
    return [
        T("spline.basis", km + "kan", "basis_matrix", (("points", _points),)),
        T("spline.dbasis", km + "kan", "basis_derivative_matrix", (("points", _points),)),
        T("kan.forward", km + "kan", "KanLayer.forward",
          (("rows", _rows("x")), ("edge_bytes", _forward_edge_bytes))),
        T("kan.backward", km + "kan", "KanLayer.backward"),
        T("kan.per_edge", km + "kan", "KanLayer.per_edge_activations",
          (("rows", _rows("x")), ("edge_bytes", _per_edge_bytes))),
        T("kan.train_step", km + "kan", "KanModel.train_step"),
        T("kan.edge_importance", km + "kan", "edge_importance"),
        T("kan.prune", km + "attacks", "prune_kan", (("edges_ranked", _edges),)),
        T("mlp.forward", km + "mlp", "MlpModel.forward", (("rows", _rows("x")),)),
        T("mlp.backward", km + "mlp", "MlpModel.backward"),
        T("mlp.train_step", km + "mlp", "MlpModel.train_step"),
        *[T("numeric.optimizer_step", km + m, "optimizer_step")
          for m in ("kan", "mlp", "watermark")],
        *[T("numeric.loss", km + m, "cross_entropy_loss")
          for m in ("kan", "mlp", "training")],
        *[T("numeric.loss", km + m, "mse_loss")
          for m in ("kan", "mlp", "training", "watermark")],
        *[T("training.fit", km + m, "fit", (("steps", _fit_steps),))
          for m in ("cli", "attacks", "watermark")],
        T("transform.perturb_rows", km + "watermark", "perturb_rows"),
        T("transform.dct", km + "watermark", "dct"),
        T("watermark.layer_outputs", km + "watermark", "layer_outputs"),
        T("watermark.signal_step", km + "watermark", "signal_step"),
        T("watermark.detector_dataset", km + "cli", "build_detector_dataset",
          (("rows", lambda a, r: len(r)),)),
        T("watermark.verify", km + "cli", "verify"),
        T("data.load_idx", km + "cli", "load_idx",
          (("bytes", _file_bytes("images_path", "labels_path")),)),
        T("data.gen_feynman", km + "cli", "gen_feynman"),
        T("data.split", km + "cli", "split_dataset"),
        T("cli.resolve_dataset", km + "cli", "resolve_dataset"),
        T("cli.checkpoint_load", km + "cli", "load_checkpoint",
          (("bytes", _file_bytes("path")),)),
        T("cli.checkpoint_save", km + "cli", "save_checkpoint",
          (("bytes", _file_bytes("path")),)),
    ]


# Per-layer metrics reported by a traced run, per traced round. A name ends
# in .calls, .self_ms (span duration minus its children), .ms (whole span)
# or a counter of the wrapped call.
PER_LAYER = {
    "spline.basis.calls": "count",
    "spline.basis.points": "count",
    "spline.basis.self_ms": "ms",
    "spline.dbasis.points": "count",
    "spline.dbasis.self_ms": "ms",
    "kan.forward.calls": "count",
    "kan.forward.rows": "count",
    "kan.forward.self_ms": "ms",
    "kan.backward.self_ms": "ms",
    "kan.edge_tensor_mb": "MB-computed",
    "kan.per_edge.self_ms": "ms",
    "kan.prune.edges_ranked": "count",
    "kan.prune.self_ms": "ms",
    "numeric.optimizer_step.calls": "count",
    "numeric.optimizer_step.self_ms": "ms",
    "numeric.loss.self_ms": "ms",
    "training.fit.steps": "count",
    "training.fit.self_ms": "ms",
    "transform.perturb_rows.calls": "count",
    "transform.perturb_rows.self_ms": "ms",
    "transform.dct.calls": "count",
    "watermark.signal_step.calls": "count",
    "watermark.signal_step.self_ms": "ms",
    "watermark.layer_outputs.calls": "count",
    "watermark.layer_outputs.self_ms": "ms",
    "watermark.detector_dataset.rows": "count",
    "watermark.detector_dataset.self_ms": "ms",
    "mlp.train_step.calls": "count",
    "mlp.train_step.self_ms": "ms",
    "watermark.verify.self_ms": "ms",
    "mlp.forward.self_ms": "ms",
    "data.load_idx.bytes": "bytes",
    "data.load_idx.self_ms": "ms",
    "cli.resolve_dataset.self_ms": "ms",
    "cli.checkpoint_load.bytes": "bytes",
    "cli.checkpoint_load.self_ms": "ms",
    "cli.checkpoint_save.calls": "count",
    "cli.checkpoint_save.bytes": "bytes",
    "cli.checkpoint_save.self_ms": "ms",
    "stage.train_clean.ms": "ms",
    "stage.embed.ms": "ms",
    "stage.attack.ms": "ms",
    "stage.verify.ms": "ms",
    "trace.stage_coverage_pct": "%",
    "trace.overhead_pct": "%",
    "quality.clean_detection_pct": "%",
    "quality.attacked_detection_pct": "%",
    "quality.wm_task_cost_pct": "%",
}


def end_to_end(bench, rounds: list[dict], setups: list[dict],
               peak_rss_mb: float) -> tuple[dict[str, tuple], dict[str, float]]:
    """{metric: (value, sample count)} of an untraced run, with times scaled
    to the nominal host speed (see calibration.py), and {metric: value} of
    the same timings from unscaled wall times."""
    rows = bench.train_rows_per_round()
    n_verify = sum(len(r["verify_ms"]) for r in rounds)
    tail = stats.highest_percentile(n_verify)
    bench.gate.check(tail is not None and tail >= 90,
                     f"{n_verify} verify samples cannot support a p90")

    def timings(pick) -> dict[str, float]:
        """Timing metrics from the figures ``pick`` selects in each sample."""
        verify = [ms for r in rounds for ms in pick(r)["verify_ms"]]

        def med(key):
            return stats.median([pick(r)[key] for r in rounds])

        return {
            "setup_s": stats.median([pick(s)["setup"] for s in setups]),
            "run_s": med("round"),
            "train_rows_per_s": stats.median([rows / pick(r)["train"] for r in rounds]),
            "train_clean_s": med("train_clean"),
            "embed_s": med("embed"),
            "attack_s": med("attack"),
            "verify_ms_p50": stats.percentile(verify, 50),
            "verify_ms_p90": stats.percentile(verify, 90),
        }

    normalised = timings(lambda r: r)
    out = {name: (value, len(rounds)) for name, value in normalised.items()}
    out["setup_s"] = (normalised["setup_s"], len(setups))
    out["verify_ms_p50"] = (normalised["verify_ms_p50"], n_verify)
    out["verify_ms_p90"] = (normalised["verify_ms_p90"], n_verify)
    out["peak_rss_mb"] = (peak_rss_mb, 1)
    quality, sets = bench.quality_metrics()
    for name in END_TO_END:
        out.setdefault(name, (quality.get(name), sets))
    return {name: out[name] for name in END_TO_END}, timings(lambda r: r["wall"])


def traced(bench, seconds: float, run_rounds, trace_path) -> dict[str, tuple]:
    """Untraced rounds for half the time, then traced rounds; per-layer
    metrics are per traced round."""
    plain = run_rounds(bench, seconds / 2, 1)
    tracer = Tracer()
    bench.cli.tracer = tracer
    patches = Instrumentation(tracer, _targets(),
                              warn=lambda m: print(f"warning: {m}", file=sys.stderr))
    try:
        rounds = run_rounds(bench, seconds / 2, 1, first=len(plain))
    finally:
        patches.remove()
        bench.cli.tracer = None
    tracer.write(trace_path)

    n = len(rounds)
    summary = summarise(tracer.spans)
    values: dict[str, float] = {}
    for name, row in summary.items():
        values[f"{name}.calls"] = row["calls"] / n
        values[f"{name}.self_ms"] = 1e3 * row["self_s"] / n
        values[f"{name}.ms"] = 1e3 * row["total_s"] / n
    for name, total in tracer.counters.items():
        values[name] = total / n
    values["kan.edge_tensor_mb"] = (tracer.counters.get("kan.forward.edge_bytes", 0.0)
                                    + tracer.counters.get("kan.per_edge.edge_bytes", 0.0)) / 1e6 / n
    stage_s = sum(s.end - s.start for s in tracer.spans
                  if s.parent < 0 and s.name.startswith("stage."))
    values["trace.stage_coverage_pct"] = 100.0 * stage_s / sum(r["wall"]["round"] for r in rounds)
    values["trace.overhead_pct"] = 100.0 * (
        stats.median([r["round"] for r in rounds])
        / stats.median([r["round"] for r in plain]) - 1.0)
    quality, sets = bench.quality_metrics()
    out = {name: (values.get(name, 0.0), n) for name in PER_LAYER}
    out.update((name, (quality.get(name), sets)) for name in PER_LAYER if name in quality)
    return out
