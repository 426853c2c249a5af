"""The MLP's flat parameter buffer and trainer against the per-parameter
references in oracles.py.

`train` keeps every weight and bias in one buffer and runs one in-place Adam
update over it; `reference_train` is the per-parameter loop with a fresh
`features[rows]` gather per batch. Both apply the same elementwise operations
in the same order, so their results must agree bit for bit. `backward` is held
to `reference_backward`, and the weight and bias views to the buffer they read.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamloc.mlp import (
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    backward,
    forward,
    init_model,
    train,
)
from oracles import flatten, reference_backward, reference_train


@settings(max_examples=40, deadline=None)
@given(
    input_dim=st.integers(1, 5),
    hidden=st.lists(st.integers(1, 7), min_size=0, max_size=2),
    rows=st.integers(1, 40),
    batch_size=st.integers(1, 48),
    learning_rate=st.sampled_from([0.0, 0.003, 0.05, 0.5]),
    max_epochs=st.integers(1, 8),
    patience=st.integers(1, 4),
    min_delta=st.sampled_from([0.0, 1e-3, 1e9]),
    seed=st.integers(0, 2**16),
)
@example(input_dim=3, hidden=[], rows=10, batch_size=4, learning_rate=0.05, max_epochs=5,
         patience=4, min_delta=0.0, seed=1)
@example(input_dim=2, hidden=[5, 3], rows=13, batch_size=13, learning_rate=0.05, max_epochs=4,
         patience=4, min_delta=0.0, seed=2)
@example(input_dim=2, hidden=[4], rows=7, batch_size=30, learning_rate=0.05, max_epochs=6,
         patience=2, min_delta=1e9, seed=3)
@example(input_dim=4, hidden=[6], rows=20, batch_size=6, learning_rate=0.0, max_epochs=3,
         patience=4, min_delta=0.0, seed=4)
# the last epoch is not the best one, so the best-parameter restore matters
@example(input_dim=2, hidden=[5], rows=12, batch_size=5, learning_rate=0.5, max_epochs=6,
         patience=6, min_delta=0.0, seed=1)
def test_train_bit_equal_to_per_parameter_reference(
    input_dim, hidden, rows, batch_size, learning_rate, max_epochs, patience, min_delta, seed
):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(rows, input_dim))
    labels = rng.normal(size=(rows, 2))
    config = TrainConfig(batch_size=batch_size, max_epochs=max_epochs, learning_rate=learning_rate,
                         patience=patience, min_delta=min_delta, seed=seed + 1)
    model = init_model(MlpArchitecture(input_dim, tuple(hidden)), seed=seed)
    if learning_rate == 0.0:
        initial = flatten(model.weights, model.biases).tobytes()
    ref_weights, ref_biases, ref_log = reference_train(model.weights, model.biases, features, labels, config)

    train(model, features, labels, config)
    assert flatten(model.weights).tobytes() == flatten(ref_weights).tobytes()
    assert flatten(model.biases).tobytes() == flatten(ref_biases).tobytes()
    assert model.training_log == ref_log
    if min_delta == 1e9:
        assert len(model.training_log) == min(max_epochs, patience + 1)
    if learning_rate == 0.0:
        assert flatten(model.weights, model.biases).tobytes() == initial


def test_backward_matches_reference_and_out_buffer():
    rng = np.random.default_rng(1)
    arch = MlpArchitecture(4, (6, 3))
    model = init_model(arch, seed=2)
    batch, target = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    ref = reference_backward(model.weights, model.biases, batch, target)
    fresh = backward(model, batch, target)
    out = MlpModel(arch, np.full(arch.param_count, np.nan))
    into = backward(model, batch, target, out=out)
    assert flatten(*fresh).tobytes() == flatten(*into).tobytes() == flatten(*ref).tobytes()
    assert into[0] is out.weights and into[1] is out.biases
    assert all(np.shares_memory(g, out.params) for g in into[0] + into[1])
    assert out.params.tobytes() == flatten(*ref).tobytes()


# (4, (3, 7)) has the same 59 parameters as the model, in another layout
@pytest.mark.parametrize("other", [MlpArchitecture(4, (3, 7)), MlpArchitecture(4, (6, 2)), MlpArchitecture(4, (6,))])
def test_backward_rejects_out_of_another_architecture(other):
    rng = np.random.default_rng(3)
    model = init_model(MlpArchitecture(4, (6, 3)), seed=2)
    out = MlpModel(other, np.full(other.param_count, np.nan))
    with pytest.raises(ValueError, match="gradient architecture .* does not match model"):
        backward(model, rng.normal(size=(5, 4)), rng.normal(size=(5, 2)), out=out)
    assert np.isnan(out.params).all()


def test_backward_without_out_returns_unaliased_arrays():
    rng = np.random.default_rng(2)
    model = init_model(MlpArchitecture(3, (5,)), seed=3)
    batch, target = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    first = backward(model, batch, target)
    second = backward(model, batch, target)
    first_arrays = first[0] + first[1]
    for g in first_arrays:
        assert not np.shares_memory(g, model.params)
        assert not any(np.shares_memory(g, p) for p in model.weights + model.biases)
        assert not any(np.shares_memory(g, h) for h in second[0] + second[1])
    kept = [g.copy() for g in first_arrays]
    backward(model, batch * 2.0, target)
    assert flatten(first_arrays).tobytes() == flatten(kept).tobytes()


def test_weight_views_write_through_to_forward():
    model = init_model(MlpArchitecture(2, (3,)), seed=4)
    batch = np.array([[0.5, -1.0]])
    before = forward(model, batch)
    model.weights[1][0, 0] += 1.0
    assert all(np.shares_memory(p, model.params) for p in model.weights + model.biases)
    after = forward(model, batch)
    assert not np.array_equal(before, after)
    model.biases[1][...] = 0.0
    model.weights[1][...] = 0.0
    assert np.array_equal(forward(model, batch), np.zeros((1, 2)))


def test_hand_built_model_is_its_buffer():
    arch = MlpArchitecture(2, (3,))
    params = np.arange(6 + 6 + 3 + 2, dtype=float)
    model = MlpModel(arch, params)
    assert model.params is params
    assert all(np.shares_memory(p, params) for p in model.weights + model.biases)
    assert [p.shape for p in model.weights + model.biases] == [(2, 3), (3, 2), (3,), (2,)]
    assert flatten(model.weights, model.biases).tobytes() == params.tobytes()

    for size in (16, 18):
        with pytest.raises(ValueError, match=r"parameter buffer shape \(%d,\) does not match layer dims" % size):
            MlpModel(arch, np.zeros(size))
    with pytest.raises(ValueError, match="does not match layer dims"):
        MlpModel(arch, params.reshape(1, -1))


def test_train_starts_from_weights_written_through_a_view():
    rng = np.random.default_rng(5)
    features, labels = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
    config = TrainConfig(batch_size=4, max_epochs=3, learning_rate=0.05, seed=6)
    model = init_model(MlpArchitecture(2, (3,)), seed=7)
    with pytest.raises(TypeError):
        model.weights[0] = np.full((2, 3), 0.25)
    model.weights[0][...] = 0.25
    ref_weights, ref_biases, ref_log = reference_train(model.weights, model.biases, features, labels, config)
    train(model, features, labels, config)
    assert flatten(model.weights, model.biases).tobytes() == flatten(ref_weights, ref_biases).tobytes()
    assert model.training_log == ref_log


@pytest.mark.parametrize("bad", ["features", "labels"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_train_rejects_non_finite_inputs(bad, value):
    rng = np.random.default_rng(8)
    data = {"features": rng.normal(size=(6, 3)), "labels": rng.normal(size=(6, 2))}
    data[bad][2, 1] = value
    model = init_model(MlpArchitecture(3, (4,)), seed=0)
    with pytest.raises(ValueError, match=f"{bad} contain non-finite values"):
        train(model, data["features"], data["labels"], TrainConfig(max_epochs=2))


def test_train_rejects_non_finite_epoch_loss():
    rng = np.random.default_rng(9)
    model = init_model(MlpArchitecture(3, (4,)), seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="training loss is not finite at epoch 1"):
        train(model, rng.normal(size=(20, 3)), rng.normal(size=(20, 2)),
              TrainConfig(learning_rate=1e300, max_epochs=3))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"learning_rate": float("nan")}, "learning_rate must be finite, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite, got inf"),
        ({"learning_rate": -0.1}, "learning_rate must be >= 0, got -0.1"),
        ({"beta1": 1.0}, r"beta1 must be in \[0, 1\)"),
        ({"beta2": -0.5}, r"beta2 must be in \[0, 1\)"),
        ({"epsilon": 0.0}, "epsilon must be > 0"),
        ({"min_delta": -1e-3}, "min_delta must be >= 0, got -0.001"),
        ({"min_delta": float("nan")}, "min_delta must be finite, got nan"),
    ],
)
def test_train_config_rejects_bad_optimizer_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kwargs)
