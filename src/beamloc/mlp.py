"""Feedforward neural-network regressor built on plain numpy.

Tanh hidden layers, linear 2-output head, MSE loss, reverse-mode gradients,
Adam updates over shuffled mini-batches, early stopping on training loss with
best-parameter restore. Everything is deterministic for a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import bound, check_fields

OUTPUT_DIM = 2  # the (x, y) position
# the widest hidden layer: 1024 x 1024 weights and their Adam state take 32 MiB
MAX_HIDDEN_WIDTH = 1024


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int = bound(ge=1)
    hidden_layers: tuple[int, ...] = bound((64,), ge=1, le=MAX_HIDDEN_WIDTH)

    def __post_init__(self):
        check_fields(self)

    @cached_property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, OUTPUT_DIM)

    @cached_property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _param_views(buffer: np.ndarray, arch: MlpArchitecture):
    """Per-layer (weights, biases) views into one flat buffer: every weight
    matrix in layer order, then every bias vector."""
    dims = arch.layer_dims
    if buffer.shape != (arch.param_count,):
        raise ValueError(f"parameter buffer shape {buffer.shape} does not match layer dims {dims}")
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(buffer[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    for fan_out in dims[1:]:
        biases.append(buffer[offset : offset + fan_out])
        offset += fan_out
    return tuple(weights), tuple(biases)


@dataclass
class MlpModel:
    """The model is `params`, one flat float64 buffer. `weights` and `biases`
    are views into it: `model.weights[i][...] = ...` changes the model."""

    architecture: MlpArchitecture
    params: np.ndarray
    training_log: list[float] = field(default_factory=list)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = np.ascontiguousarray(self.params, dtype=float)
        self.weights, self.biases = _param_views(self.params, self.architecture)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = bound(32, ge=1)
    max_epochs: int = bound(500, ge=1)
    learning_rate: float = bound(0.001, ge=0)
    beta1: float = bound(0.9, ge=0, lt=1)
    beta2: float = bound(0.999, ge=0, lt=1)
    epsilon: float = bound(1e-8, gt=0)
    patience: int = bound(20, ge=1)
    min_delta: float = bound(1e-4, ge=0)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


def init_model(arch: MlpArchitecture, seed: int = 0) -> MlpModel:
    """Symmetric scaled-uniform weights, scale 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    model = MlpModel(arch, np.zeros(arch.param_count))
    for weight in model.weights:
        scale = 1.0 / np.sqrt(weight.shape[0])
        weight[...] = rng.uniform(-scale, scale, size=weight.shape)
    return model


def _check_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    if batch.shape[1] != model.architecture.input_dim:
        raise ValueError(f"expected {model.architecture.input_dim} input columns, got {batch.shape[1]}")
    return batch


def _forward_cached(model: MlpModel, batch: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input first, linear output last.

    Every array after the input is fresh and owned by the caller, so
    `backward` may overwrite it.
    """
    activations = [batch]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w
        z += b
        if i != last:
            np.tanh(z, out=z)
        activations.append(z)
    return activations


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    return _forward_cached(model, _check_batch(model, batch))[-1]


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    residual = pred - target
    residual **= 2
    # np.mean's own arithmetic, without its Python wrapper
    return float(np.add.reduce(residual, axis=None) / residual.size)


def backward(model: MlpModel, batch: np.ndarray, target: np.ndarray, out: MlpModel | None = None):
    """Exact gradients of loss_mse(forward(batch), target) w.r.t. all params.

    The gradient is itself a model: `out.params` receives it, and the
    result is `(out.weights, out.biases)`, the views bound when `out` was
    built. `out` must share `model`'s architecture; None builds a fresh one.
    """
    batch = _check_batch(model, batch)
    target = np.atleast_2d(np.asarray(target, dtype=float))
    activations = _forward_cached(model, batch)
    pred = activations[-1]
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if out is None:
        out = MlpModel(model.architecture, np.empty(model.params.size))
    elif out.architecture != model.architecture:
        raise ValueError(f"gradient architecture {out.architecture} does not match model {model.architecture}")
    weight_grads, bias_grads = out.weights, out.biases

    delta = np.subtract(pred, target, out=pred)
    delta *= 2.0
    delta /= pred.size
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=weight_grads[layer])
        np.add.reduce(delta, axis=0, out=bias_grads[layer])
        if layer > 0:
            # (delta @ W.T) * (1 - a**2), with the hidden activation reused
            # as scratch once its weight gradient is taken
            slope = activations[layer]
            slope **= 2
            np.subtract(1.0, slope, out=slope)
            delta = delta @ model.weights[layer].T
            delta *= slope
    return weight_grads, bias_grads


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contain non-finite values")


def train(model: MlpModel, features: np.ndarray, labels: np.ndarray, config: TrainConfig | None = None) -> MlpModel:
    """Adam over seeded shuffled mini-batches, early stop on training loss.

    Mutates and returns `model`, with the best-loss parameters restored and
    the per-epoch training-loss history in model.training_log. The Adam
    update runs over the whole flat parameter buffer at once; each epoch
    gathers its shuffled rows once and slices batches from them. Raises
    ValueError on non-finite inputs or a non-finite epoch loss.
    """
    config = config or TrainConfig()
    features = _check_batch(model, features)
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    if len(features) == 0:
        raise ValueError("empty training set")
    if len(features) != len(labels):
        raise ValueError("features and labels row counts differ")
    _require_finite("features", features)
    _require_finite("labels", labels)

    rng = np.random.default_rng(config.seed)
    params = model.params
    grad_model = MlpModel(model.architecture, np.empty_like(params))
    grad, m_state, v_state = grad_model.params, np.zeros_like(params), np.zeros_like(params)
    step_buf, denom = np.empty_like(params), np.empty_like(params)
    lr, beta1, beta2 = config.learning_rate, config.beta1, config.beta2
    step = 0

    best_loss = np.inf
    best_params = params.copy()
    reference_loss = np.inf  # last loss that counted as an improvement
    stale_epochs = 0
    model.training_log = []

    # a diverging run overflows here; the non-finite epoch loss below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(len(features))
            epoch_features, epoch_labels = features[order], labels[order]
            for start in range(0, len(order), config.batch_size):
                stop = start + config.batch_size
                backward(model, epoch_features[start:stop], epoch_labels[start:stop], out=grad_model)
                step += 1
                correction1 = 1.0 - beta1**step
                correction2 = 1.0 - beta2**step
                # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
                m_state *= beta1
                np.multiply(grad, 1.0 - beta1, out=step_buf)
                m_state += step_buf
                v_state *= beta2
                np.multiply(grad, 1.0 - beta2, out=step_buf)
                step_buf *= grad
                v_state += step_buf
                # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
                np.divide(m_state, correction1, out=step_buf)
                step_buf *= lr
                np.divide(v_state, correction2, out=denom)
                np.sqrt(denom, out=denom)
                denom += config.epsilon
                step_buf /= denom
                params -= step_buf

            epoch_loss = loss_mse(forward(model, features), labels)
            if not math.isfinite(epoch_loss):
                raise ValueError(f"training loss is not finite at epoch {epoch}: {epoch_loss}")
            model.training_log.append(epoch_loss)
            if epoch_loss < best_loss:
                best_loss = epoch_loss
                best_params[...] = params
            if epoch_loss < reference_loss - config.min_delta:
                reference_loss = epoch_loss
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= config.patience:
                    break

    params[...] = best_params
    return model


def predict(model: MlpModel, features: np.ndarray, norm_stats) -> np.ndarray:
    """Positions in meters for raw (unnormalized) feature rows.

    norm_stats is the (mean, std) pair stored with the training dataset;
    std-0 columns divide by 1, mirroring dataset normalization.
    """
    mean, std = (np.asarray(v, dtype=float) for v in norm_stats)
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[1] != len(mean):
        raise ValueError(f"expected {len(mean)} feature columns, got {features.shape[1]}")
    normalized = (features - mean) / np.where(std == 0.0, 1.0, std)
    return forward(model, normalized)
