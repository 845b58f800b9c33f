import numpy as np
import pytest

from kanmark import (KanModel, MlpModel, adam, evaluate, fit, gen_feynman,
                     prune_kan, prune_mlp)
from kanmark.attacks import finetune, prune_sweep
from kanmark import attacks
from kanmark.cli import SeedBundle, load_checkpoint, load_config, main, resolve_dataset, \
    save_checkpoint
from kanmark.kan import edge_importances

from oracles import prune_ref
from test_cli import write_config


def small_task(seed=0, n=160):
    ds = gen_feynman("I.12.11", n, seed=seed)
    return ds.inputs, ds.targets


def run_attack_command(tmp_path, wm, kind, *flags):
    """Runs `kanmark attack --kind <kind>` on ``wm`` with the regression
    config of test_cli; returns the attacked model, the training split and
    the attack seed."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = write_config(tmp_path / "c.json")
    save_checkpoint(tmp_path / "wm.json", wm, "watermarked", "hash", 0)
    out = tmp_path / "runs"
    assert main(["attack", "--config", path, "--wm-ckpt", str(tmp_path / "wm.json"),
                 "--kind", kind, "--ratio", "0.5", *flags, "--out", str(out)]) == 0
    cfg = load_config(path)
    bundle = SeedBundle(cfg["seed"])
    train, _, _ = resolve_dataset(cfg, bundle)
    name = "retrain_after_prune" if kind == "retrain" else kind
    return load_checkpoint(out / f"attacked-{name}.json")[0], train, bundle.attack


class TestAttackChecks:
    def test_training_attacks_need_positive_lr(self):
        x, y = small_task(seed=0)
        model = KanModel.create([2, 4, 1], seed=0)
        for lr in (0.0, -1e-3):
            with pytest.raises(ValueError, match="lr > 0"):
                finetune(model, x, y, "regression", lr=lr)
            with pytest.raises(ValueError, match="lr > 0"):
                finetune(prune_kan(model, 0.6, x[:32]), x, y, "regression", lr=lr)

    @pytest.mark.parametrize("ratio", [-0.1, 1.5])
    def test_ratio_outside_unit_interval(self, ratio):
        x, _ = small_task(seed=0)
        model = KanModel.create([2, 4, 1], seed=0)
        with pytest.raises(ValueError, match=r"prune ratio must be in \[0, 1\]"):
            prune_kan(model, ratio, x[:32])

    def test_negative_epochs(self):
        x, y = small_task(seed=0)
        model = KanModel.create([2, 4, 1], seed=0)
        for attacked in (model, prune_kan(model, 0.6, x[:32])):
            with pytest.raises(ValueError, match="epochs must be >= 0"):
                finetune(attacked, x, y, "regression", lr=1e-3, epochs=-1)


class TestFinetune:
    def test_zero_epochs_is_identity(self):
        x, y = small_task(seed=1)
        model = KanModel.create([2, 4, 1], seed=1)
        out = finetune(model, x, y, "regression", epochs=0, lr=1e-3)
        assert np.array_equal(out.params, model.params)

    def test_architecture_preserved_and_original_untouched(self):
        x, y = small_task(seed=2)
        model = KanModel.create([2, 4, 1], seed=2)
        snap = model.params.copy()
        out = finetune(model, x, y, "regression", epochs=2, lr=1e-3, seed=3)
        assert out.widths == model.widths
        assert np.array_equal(model.params, snap)

    def test_vanishing_lr_limit(self):
        x, y = small_task(seed=3)
        model = KanModel.create([2, 4, 1], seed=4)
        out = finetune(model, x, y, "regression", epochs=8, lr=1e-12, seed=5)
        assert np.max(np.abs(out.params - model.params)) < 1e-6

    def test_empty_data_rejected(self):
        model = KanModel.create([2, 4, 1], seed=6)
        with pytest.raises(ValueError):
            finetune(model, np.zeros((0, 2)), np.zeros(0), "regression")


class TestPruneAttack:
    def test_ratio_zero_unchanged(self):
        x, _ = small_task(seed=4)
        model = KanModel.create([2, 4, 1], seed=7)
        out = prune_kan(model, 0.0, x[:32])
        assert np.array_equal(out.params, model.params)

    def test_requires_calibration(self):
        model = KanModel.create([2, 4, 1], seed=8)
        with pytest.raises(ValueError):
            prune_kan(model, 0.5, None)

    def test_delegates_to_prune_kan(self, tmp_path):
        # the prune attack trains nothing, so its lr and epochs change nothing
        wm = KanModel.create([2, 4, 1], seed=9)
        got, train, _ = run_attack_command(tmp_path, wm, "prune", "--lr", "0.002",
                                        "--epochs", "8")
        assert np.array_equal(got.params, prune_kan(wm, 0.5, train.inputs[:256]).params)


class TestRetrainAfterPrune:
    def test_zero_epochs_equals_prune_with_lifted_masks(self):
        x, y = small_task(seed=6)
        model = KanModel.create([2, 4, 1], seed=10)
        out = finetune(prune_kan(model, 0.5, x[:32]), x, y, "regression", epochs=0)
        ref = prune_kan(model, 0.5, x[:32])
        assert np.array_equal(out.params, ref.params)

    def test_pruned_edges_become_trainable_again(self):
        x, y = small_task(seed=7)
        model = KanModel.create([2, 4, 1], seed=11)
        pruned = prune_kan(model, 0.5, x[:32])
        zeroed = pruned.layers[0].w_b == 0.0
        assert zeroed.sum() > 0
        out = finetune(pruned, x, y, "regression", lr=1e-2, epochs=3, seed=12)
        # w_b regrows; coeffs and w_s stay 0, as each one's gradient is a
        # multiple of the other
        assert np.any(np.abs(out.layers[0].w_b[zeroed]) > 0.0)
        assert np.all(out.layers[0].coeffs[zeroed] == 0.0)
        assert np.all(out.layers[0].w_s[zeroed] == 0.0)

    def test_architecture_preserved(self):
        x, y = small_task(seed=8)
        model = KanModel.create([2, 4, 1], seed=13)
        out = finetune(prune_kan(model, 0.6, x[:32]), x, y, "regression",
                       epochs=1, seed=14)
        assert out.widths == model.widths


@pytest.fixture(scope="module")
def trained_pair():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(300, 6))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64) + 2 * (x[:, 2] > 0).astype(np.int64)
    kan = KanModel.create([6, 8, 4], seed=1)
    mlp = MlpModel.create([6, 8, 4], seed=1)
    fit(kan, x[:200], y[:200], "classification", 5, adam(1e-2), 32, seed=2)
    fit(mlp, x[:200], y[:200], "classification", 5, adam(1e-2), 32, seed=2)
    return kan, mlp, x, y


class TestPruneSweep:
    def test_row_grid_and_zero_row(self, trained_pair):
        kan, mlp, x, y = trained_pair
        rows = prune_sweep(kan, mlp, x[200:], y[200:], calibration=x[:64])
        assert [row["ratio"] for row in rows] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        base_kan = evaluate(kan, x[200:], y[200:], "classification")
        assert rows[0]["kan_accuracy"] == base_kan["accuracy"]
        assert rows[0]["kan_loss"] == base_kan["loss"]

    def test_rows_are_independent_of_order(self, trained_pair):
        kan, mlp, x, y = trained_pair
        a = prune_sweep(kan, mlp, x[200:], y[200:], calibration=x[:64], step=0.5)
        b = prune_sweep(kan, mlp, x[200:], y[200:], calibration=x[:64], step=0.5)
        assert a == b

    def test_models_not_mutated(self, trained_pair):
        kan, mlp, x, y = trained_pair
        snap = kan.params.copy()
        prune_sweep(kan, mlp, x[200:], y[200:], calibration=x[:64], step=0.5)
        assert np.array_equal(kan.params, snap)

    @pytest.mark.parametrize("step", [0.1, 0.15, 0.25, 0.3, 1 / 3, 0.4, 0.5, 0.7, 1.0])
    def test_ratios_end_at_one_without_repeats(self, trained_pair, step):
        kan, mlp, x, y = trained_pair
        ratios = [row["ratio"] for row in prune_sweep(kan, mlp, x[200:], y[200:],
                                                      calibration=x[:64], step=step)]
        assert ratios[0] == 0.0 and ratios[-1] == 1.0
        assert ratios == sorted(set(ratios))

    def test_edges_ranked_once_per_sweep(self, trained_pair, monkeypatch):
        kan, mlp, x, y = trained_pair
        calls = []

        def counted(*args):
            calls.append(args)
            return edge_importances(*args)

        monkeypatch.setattr(attacks, "edge_importances", counted)
        rows = prune_sweep(kan, mlp, x[200:], y[200:], calibration=x[:64])
        assert len(rows) == 11 and len(calls) == 1
        for row in rows:
            kan_eval = evaluate(prune_kan(kan, row["ratio"], x[:64]),
                                x[200:], y[200:], "classification")
            mlp_eval = evaluate(prune_mlp(mlp, row["ratio"]),
                                x[200:], y[200:], "classification")
            assert row == {"ratio": row["ratio"],
                           "kan_loss": kan_eval["loss"],
                           "kan_accuracy": kan_eval["accuracy"],
                           "mlp_loss": mlp_eval["loss"],
                           "mlp_accuracy": mlp_eval["accuracy"]}

    def test_bad_step(self, trained_pair):
        kan, mlp, x, y = trained_pair
        with pytest.raises(ValueError):
            prune_sweep(kan, mlp, x[200:], y[200:], calibration=x[:64], step=0.0)


class TestRunAttack:
    def test_dispatch(self, tmp_path):
        # each kind of `kanmark attack` is finetune, prune_kan, or finetune of
        # prune_kan's result, with the attack seed of the config's master seed
        wm = KanModel.create([2, 4, 1], seed=15)
        for kind in ("finetune", "prune", "retrain"):
            got, train, attack_seed = run_attack_command(tmp_path / kind, wm, kind,
                                                         "--lr", "0.002", "--epochs", "1")

            def trained(model):
                return finetune(model, train.inputs, train.targets, "regression",
                                epochs=1, lr=0.002, seed=attack_seed)

            pruned = prune_kan(wm, 0.5, train.inputs[:256])
            want = {"finetune": trained(wm), "prune": pruned,
                    "retrain": trained(pruned)}[kind]
            assert np.array_equal(got.params, want.params), kind


ORACLE_RATIOS = (0.0, 0.1, 0.3, 0.5, 0.77, 1.0)


def same_bits(a, b):
    """Equal values and equal sign bits, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def tied_kan(seed):
    """[3, 4, 3, 2] KAN whose middle layer is zeroed (all of its importances
    tie at 0) and whose first layer has pre-pruned edges (importance 0)."""
    rng = np.random.default_rng(seed)
    model = KanModel.create([3, 4, 3, 2], seed=seed)
    for layer in model.layers:
        layer.w_b[:] = rng.normal(size=layer.w_b.shape)
        layer.w_s[:] = rng.normal(size=layer.w_s.shape)
    zeroed = model.layers[1]
    for a in (zeroed.coeffs, zeroed.w_b, zeroed.w_s):
        a[:] = 0.0
    first = model.layers[0]
    pruned = rng.random(first.w_b.shape) < 0.3
    for a in (first.coeffs, first.w_b, first.w_s):
        a[pruned] = 0.0
    return model, rng.uniform(-1, 1, size=(16, 3))


def tied_mlp(seed):
    """[4, 5, 3] MLP with a zero row and repeated magnitudes of both signs."""
    rng = np.random.default_rng(seed)
    model = MlpModel.create([4, 5, 3], seed=seed)
    model.weights[0][2] = 0.0
    for w in model.weights:
        tied = rng.random(w.shape) < 0.3
        w[tied] = rng.choice([-0.5, 0.5], size=int(tied.sum()))
    return model


class TestPruneOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ratio", ORACLE_RATIOS)
    def test_kan_matches_tuple_sort(self, seed, ratio):
        model, calib = tied_kan(seed)
        scores = edge_importances(model, calib)
        pruned = prune_kan(model, ratio, calib)
        for layer, orig, keep in zip(pruned.layers, model.layers,
                                     prune_ref(scores, ratio)):
            assert same_bits(layer.coeffs, np.where(keep[..., None], orig.coeffs, 0.0))
            assert same_bits(layer.w_b, np.where(keep, orig.w_b, 0.0))
            assert same_bits(layer.w_s, np.where(keep, orig.w_s, 0.0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ratio", ORACLE_RATIOS)
    def test_mlp_matches_tuple_sort(self, seed, ratio):
        model = tied_mlp(seed)
        pruned = prune_mlp(model, ratio)
        keeps = prune_ref([np.abs(w) for w in model.weights], ratio)
        for w, orig, keep in zip(pruned.weights, model.weights, keeps):
            assert same_bits(w, orig * keep)
        for b, orig in zip(pruned.biases, model.biases):
            assert same_bits(b, orig)
