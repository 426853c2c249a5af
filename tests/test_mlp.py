"""The MLP against hand-computed values and central finite differences.

The flat parameter buffer and the trainer are held bit for bit to the
per-parameter references of oracles.py in test_mlp_flat.py.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamloc.mlp import (
    MlpArchitecture,
    TrainConfig,
    backward,
    forward,
    init_model,
    loss_mse,
    predict,
    train,
)
from oracles import flatten


def finite_difference_grads(model, batch, target, step=1e-5):
    """Central differences on every parameter entry."""
    out = []
    for param in model.weights + model.biases:
        grad = np.empty_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + step
            up = loss_mse(forward(model, batch), target)
            param[idx] = original - step
            down = loss_mse(forward(model, batch), target)
            param[idx] = original
            grad[idx] = (up - down) / (2 * step)
            it.iternext()
        out.append(grad)
    n_w = len(model.weights)
    return out[:n_w], out[n_w:]


def test_init_deterministic():
    arch = MlpArchitecture(input_dim=5, hidden_layers=(8, 4))
    a = init_model(arch, seed=3)
    b = init_model(arch, seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_model(arch, seed=4)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_biases_zero_and_scales():
    arch = MlpArchitecture(input_dim=9, hidden_layers=(16,))
    model = init_model(arch, seed=0)
    assert all(np.all(b == 0.0) for b in model.biases)
    assert np.all(np.abs(model.weights[0]) <= 1.0 / math.sqrt(9))
    assert np.all(np.abs(model.weights[1]) <= 1.0 / math.sqrt(16))
    assert [w.shape for w in model.weights] == [(9, 16), (16, 2)]


def test_zero_input_maps_to_output_bias():
    model = init_model(MlpArchitecture(input_dim=4, hidden_layers=(7, 3)), seed=1)
    out = forward(model, np.zeros((2, 4)))
    assert np.array_equal(out, np.zeros((2, 2)))
    model.biases[-1][:] = (1.5, -2.5)
    out = forward(model, np.zeros((1, 4)))
    assert np.array_equal(out[0], [1.5, -2.5])


def test_forward_hand_computed():
    arch = MlpArchitecture(input_dim=1, hidden_layers=(1,))
    model = init_model(arch, seed=0)
    model.weights[0][:] = [[0.5]]
    model.biases[0][:] = [0.3]
    model.weights[1][:] = [[1.2, -0.7]]
    model.biases[1][:] = [0.1, -0.2]
    x = 0.8
    hidden = math.tanh(0.5 * x + 0.3)
    expected = [hidden * 1.2 + 0.1, hidden * -0.7 - 0.2]
    out = forward(model, [[x]])
    assert out[0] == pytest.approx(expected, abs=1e-12)


def test_output_layer_linearity():
    model = init_model(MlpArchitecture(input_dim=3, hidden_layers=(5,)), seed=2)
    model.biases[-1][:] = 0.0
    batch = np.random.default_rng(0).normal(size=(4, 3))
    base = forward(model, batch)
    model.weights[-1][...] *= 2.0
    assert np.allclose(forward(model, batch), 2.0 * base, atol=1e-12)


def test_forward_rows_independent():
    model = init_model(MlpArchitecture(input_dim=6, hidden_layers=(10,)), seed=3)
    batch = np.random.default_rng(1).normal(size=(5, 6))
    together = forward(model, batch)
    separate = np.vstack([forward(model, row.reshape(1, -1)) for row in batch])
    assert np.allclose(together, separate, atol=1e-12)
    assert together.shape == (5, 2)
    # changing one row leaves every other output row bit-identical
    modified = batch.copy()
    modified[3] += 10.0
    out = forward(model, modified)
    untouched = [0, 1, 2, 4]
    assert np.array_equal(out[untouched], together[untouched])
    assert not np.array_equal(out[3], together[3])


def test_loss_mse_examples():
    assert loss_mse(np.ones((3, 2)), np.ones((3, 2))) == 0.0
    assert loss_mse(np.full((5, 2), 3.0), np.full((5, 2), 1.0)) == 4.0
    assert loss_mse(np.array([[3.0]]), np.array([[0.0]])) == 9.0
    with pytest.raises(ValueError):
        loss_mse(np.ones((2, 2)), np.ones((3, 2)))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 300), cols=st.integers(1, 4), scale=st.sampled_from([1e-3, 1.0, 1e6]),
       seed=st.integers(0, 2**16))
@example(rows=1, cols=1, scale=1.0, seed=0)
@example(rows=65, cols=2, scale=1.0, seed=1)  # 130 elements: past one 128-element pairwise block
@example(rows=257, cols=3, scale=1e6, seed=2)
def test_loss_mse_bit_equal_to_np_mean(rows, cols, scale, seed):
    rng = np.random.default_rng(seed)
    pred, target = rng.normal(scale=scale, size=(2, rows, cols))
    expected = float(np.mean((pred - target) ** 2))
    assert np.float64(loss_mse(pred, target)).tobytes() == np.float64(expected).tobytes()


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for arch in [
        MlpArchitecture(input_dim=3, hidden_layers=()),
        MlpArchitecture(input_dim=4, hidden_layers=(6,)),
        MlpArchitecture(input_dim=5, hidden_layers=(7, 4)),
    ]:
        model = init_model(arch, seed=int(rng.integers(1 << 30)))
        batch = rng.normal(size=(6, arch.input_dim))
        target = rng.normal(size=(6, 2))
        analytic = flatten(*backward(model, batch, target))
        numeric = flatten(*finite_difference_grads(model, batch, target))
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4


def test_gradients_zero_at_exact_fit():
    model = init_model(MlpArchitecture(input_dim=3, hidden_layers=(4,)), seed=5)
    batch = np.random.default_rng(2).normal(size=(3, 3))
    target = forward(model, batch)
    weight_grads, bias_grads = backward(model, batch, target)
    assert all(np.all(g == 0.0) for g in weight_grads + bias_grads)


def test_gradient_of_duplicated_rows():
    model = init_model(MlpArchitecture(input_dim=4, hidden_layers=(5,)), seed=6)
    rng = np.random.default_rng(3)
    row = rng.normal(size=(1, 4))
    label = rng.normal(size=(1, 2))
    single = flatten(*backward(model, row, label))
    doubled = flatten(*backward(model, np.vstack([row, row]), np.vstack([label, label])))
    assert np.allclose(single, doubled, atol=1e-12)


def test_train_zero_learning_rate_keeps_params():
    model = init_model(MlpArchitecture(input_dim=3, hidden_layers=(4,)), seed=7)
    before = [p.copy() for p in model.weights + model.biases]
    rng = np.random.default_rng(4)
    train(model, rng.normal(size=(20, 3)), rng.normal(size=(20, 2)),
          TrainConfig(learning_rate=0.0, max_epochs=5, patience=10))
    for old, new in zip(before, model.weights + model.biases):
        assert np.array_equal(old, new)


def test_train_deterministic():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(40, 4))
    labels = rng.normal(size=(40, 2))
    cfg = TrainConfig(max_epochs=20, seed=11)
    a = train(init_model(MlpArchitecture(4, (8,)), seed=1), features, labels, cfg)
    b = train(init_model(MlpArchitecture(4, (8,)), seed=1), features, labels, cfg)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)
    assert a.training_log == b.training_log


def test_train_loss_decreases_on_quadratic():
    # linear model on linear data: convex MSE surface
    rng = np.random.default_rng(6)
    features = rng.normal(size=(64, 3))
    true_w = rng.normal(size=(3, 2))
    labels = features @ true_w
    model = init_model(MlpArchitecture(input_dim=3, hidden_layers=()), seed=8)
    initial = loss_mse(forward(model, features), labels)
    train(model, features, labels, TrainConfig(max_epochs=100, batch_size=64, patience=100, min_delta=0.0))
    assert model.training_log[-1] < initial
    assert min(model.training_log) < initial


def test_train_restores_best_params():
    rng = np.random.default_rng(7)
    features = rng.normal(size=(30, 3))
    labels = rng.normal(size=(30, 2))
    model = init_model(MlpArchitecture(3, (6,)), seed=9)
    train(model, features, labels, TrainConfig(max_epochs=40, patience=5, min_delta=0.0, seed=2))
    final_loss = loss_mse(forward(model, features), labels)
    assert final_loss == pytest.approx(min(model.training_log), abs=1e-12)


def test_train_early_stops_on_plateau():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(25, 3))
    labels = rng.normal(size=(25, 2))
    model = init_model(MlpArchitecture(3, (4,)), seed=10)
    # a huge min_delta: the first epoch sets the reference, none improve on it
    train(model, features, labels, TrainConfig(max_epochs=500, patience=3, min_delta=1e9))
    assert len(model.training_log) == 1 + 3


def test_train_empty_set_rejected():
    model = init_model(MlpArchitecture(3, (4,)), seed=0)
    with pytest.raises(ValueError):
        train(model, np.zeros((0, 3)), np.zeros((0, 2)), TrainConfig())


def test_predict_applies_normalization():
    model = init_model(MlpArchitecture(input_dim=2, hidden_layers=(4,)), seed=11)
    mean = np.array([10.0, -5.0])
    std = np.array([2.0, 0.0])  # zero std divides by 1
    raw = np.array([[12.0, -5.0]])
    expected = forward(model, np.array([[1.0, 0.0]]))
    assert np.array_equal(predict(model, raw, (mean, std)), expected)


def test_predict_row_permutation():
    model = init_model(MlpArchitecture(input_dim=3, hidden_layers=(5,)), seed=12)
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(6, 3))
    stats = (np.zeros(3), np.ones(3))
    base = predict(model, rows, stats)
    perm = [3, 0, 5, 1, 4, 2]
    assert np.array_equal(predict(model, rows[perm], stats), base[perm])


def test_predict_dimension_mismatch():
    model = init_model(MlpArchitecture(input_dim=3, hidden_layers=(5,)), seed=0)
    with pytest.raises(ValueError):
        predict(model, np.zeros((2, 4)), (np.zeros(3), np.ones(3)))


def test_architecture_validation():
    with pytest.raises(ValueError):
        MlpArchitecture(input_dim=0)
    with pytest.raises(ValueError):
        MlpArchitecture(input_dim=3, hidden_layers=(0,))
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_architecture_cached_dims_keep_dataclass_semantics():
    arch = MlpArchitecture(3, (5, 4))
    fresh = MlpArchitecture(3, (5, 4))
    assert arch.layer_dims == (3, 5, 4, 2)
    assert arch.param_count == 3 * 5 + 5 * 4 + 4 * 2 + 5 + 4 + 2
    assert arch.layer_dims is arch.layer_dims
    assert arch == fresh and hash(arch) == hash(fresh)
    assert {arch: 1}[fresh] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        arch.input_dim = 4
    wider = dataclasses.replace(arch, hidden_layers=(7,))
    assert wider == MlpArchitecture(3, (7,)) and wider != arch
    assert wider.layer_dims == (3, 7, 2)
    assert wider.param_count == 3 * 7 + 7 * 2 + 7 + 2

