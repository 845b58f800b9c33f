"""The names ``kanmark`` exports. Adding or removing one is an API change, so
it shows up here as an explicit edit.

Removed, with the reason:
- ``silu``: no kanmark code called it (a layer computes x * sigmoid(x) in
  ``KanLayer.prepare``), and the tests check SiLU against ``oracles.silu_ref``.
- ``cross_entropy_loss`` and ``mse_loss``: ``evaluate`` was their only caller.
  It now checks the model output and the targets once and calls the task's
  loss core, so ``evaluate(...)["loss"]`` is the checked loss.
- ``retrain_after_prune``: it was ``finetune`` of ``prune_kan``'s result, two
  public calls that ``kanmark attack`` and the tests now make themselves, so
  prune-then-train is written once, where it runs.
- ``train_detector``: it was ``MlpModel.create`` plus ``fit`` with a
  both-classes check that ``build_detector_dataset``'s labels always pass.
  ``kanmark.pipeline.build_detector``, its one caller, now makes the two calls
  itself, so the detector stage is one function.
"""

import types

import kanmark

PUBLIC_NAMES = [
    "DataError", "Dataset", "FEYNMAN", "FeynmanFormula", "KanLayer", "KanModel",
    "MlpModel", "OptimizerState", "ShapeError", "SplineGrid",
    "VerificationResult", "adam", "average_pool", "basis_and_slopes",
    "build_detector_dataset", "build_grid", "calibrate_amplitude", "dct",
    "edge_importances", "embed", "evaluate", "finetune", "fit", "gen_feynman",
    "gen_signal", "idct", "load_idx", "optimizer_step", "prune_kan", "prune_mlp",
    "prune_sweep", "signal_step", "softmax", "split_dataset", "verify",
    "write_idx",
]


def test_public_names_are_pinned():
    # Submodules are left out: which of them are attributes depends on what
    # has been imported so far.
    names = sorted(name for name, value in vars(kanmark).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
