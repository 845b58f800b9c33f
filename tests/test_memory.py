"""Peak traced memory of the passes that run layer 0 over many rows, on the
glyph fixture's shapes: 1257 training rows of 64 inputs, a 64-32-10 KAN on
the default grid, a 256-row calibration batch and 10 shuffles per sample.

Each bound was fixed before the first run: the arrays the pass keeps plus an
allowance for one chunk's temporaries. Passes that build their arrays for all
rows at once peak at several times these bounds.

IDX loads read a random-byte pair of 3000 28x28 images: a load keeps its
Dataset, and reads only the records it keeps plus every label."""

import struct
import tracemalloc

import numpy as np
import pytest

from kanmark import KanModel, build_detector_dataset, edge_importances, load_idx
from kanmark.training import batch_inputs

ROWS, WIDTHS, CALIBRATION, SHUFFLES = 1257, [64, 32, 10], 256, 10
MiB = 2**20


def traced_peak(run):
    """(run(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def inputs():
    return np.random.default_rng(41).uniform(-1.0, 1.0, size=(ROWS, WIDTHS[0]))


def test_batch_inputs_peak_is_prepared_arrays_plus_a_chunk(inputs):
    model = KanModel.create(WIDTHS, seed=42)
    gather, peak = traced_peak(lambda: batch_inputs(model, inputs))
    kept = inputs.size * (model.layers[0].grid.basis_count + 1) * 8
    assert peak <= kept + 2 * MiB
    assert gather(np.arange(3))["b"].shape == (3, WIDTHS[0] * 8)


def test_edge_importances_peak_is_bounded(inputs):
    model = KanModel.create(WIDTHS, seed=43)
    scores, peak = traced_peak(lambda: edge_importances(model, inputs[:CALIBRATION]))
    assert peak <= 6 * MiB
    assert [s.shape for s in scores] == [(32, 64), (10, 32)]


def detector_dataset_and_peak(inputs):
    wm, clean = KanModel.create(WIDTHS, seed=44), KanModel.create(WIDTHS, seed=45)
    (rows, labels), peak = traced_peak(lambda: build_detector_dataset(
        wm, clean, inputs, n_shuffles=SHUFFLES, seed=46))
    assert len(rows) == len(labels) == ROWS * (2 + 2 * SHUFFLES)
    return rows.nbytes + labels.nbytes, peak


def test_build_detector_dataset_peak_is_dataset_plus_a_chunk(inputs):
    kept, peak = detector_dataset_and_peak(inputs)
    assert peak <= kept + 3 * MiB


def test_build_detector_dataset_shuffles_in_place(inputs):
    # Beside the dataset, only the two layer outputs (0.6 MiB) and the labels'
    # temporaries fit: no index tensor and no copy of the rows to gather from.
    kept, peak = detector_dataset_and_peak(inputs)
    assert peak <= kept + 1 * MiB


def test_build_detector_dataset_frees_layer_outputs_before_labels(inputs):
    # The two layer outputs (0.3 MiB each) are freed before the int64 labels
    # (0.2 MiB) are built, with no cast copy: the peak comes while the outputs
    # fill the rows, and lies about 0.4 MiB above the dataset.
    kept, peak = detector_dataset_and_peak(inputs)
    assert peak <= kept + 0.5 * MiB


IDX_ROWS, IDX_SIDE, IDX_LIMIT = 3000, 28, 300


@pytest.fixture(scope="module")
def idx_pair(tmp_path_factory):
    rng = np.random.default_rng(47)
    directory = tmp_path_factory.mktemp("idx")
    images, labels = directory / "i.idx", directory / "l.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, IDX_ROWS, IDX_SIDE, IDX_SIDE)
                       + rng.integers(0, 256, IDX_ROWS * IDX_SIDE ** 2, np.uint8).tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, IDX_ROWS)
                       + rng.integers(0, 10, IDX_ROWS, np.uint8).tobytes())
    return images, labels


def load_and_peak(idx_pair, limit):
    data, peak = traced_peak(lambda: load_idx(*idx_pair, limit=limit))
    assert len(data) == min(limit or IDX_ROWS, IDX_ROWS)
    return data.inputs.nbytes + data.targets.nbytes, peak


def test_limited_idx_load_peak_is_the_kept_rows(idx_pair):
    kept, peak = load_and_peak(idx_pair, IDX_LIMIT)
    assert peak <= kept + 2 * MiB


def test_full_idx_load_peak_is_the_dataset_plus_the_payload(idx_pair):
    kept, peak = load_and_peak(idx_pair, None)
    assert peak <= kept + IDX_ROWS * (IDX_SIDE ** 2 + 1) + 1 * MiB
