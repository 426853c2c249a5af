"""End-to-end acceptance checks for the positioning study.

Each test covers one numbered claim about the pipeline: exact statistics,
gradient correctness, optimizer sanity, split optimality, LoS geometry, the
three study trends, the trivial-baseline margin, deterministic CLI output,
and the fixed feature layouts. One verdict line per criterion is printed in
the pytest summary.
"""
import os
import statistics
import time

import numpy as np
import pytest

from beamloc.cli import main
from beamloc.evaluation import (
    ExperimentDescriptor,
    error_stats,
    euclidean_errors,
    run_matrix,
)
from beamloc.fingerprint import (
    FeatureConfig,
    FingerprintSample,
    extract_features,
    filter_los,
    generate_samples,
)
from beamloc.mlp import (
    MlpArchitecture,
    TrainConfig,
    backward,
    forward,
    init_model,
    train,
)
from beamloc.propagation import PropagationConfig
from beamloc.scenario import Building, ScenarioConfig, build_scenario

from conftest import record_criterion
from oracles import _best_split, brute_force_best_split, dense_los_oracle, line_of_sight, table_from_samples
from test_mlp import finite_difference_grads

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# the trend arms share one deterministic training budget; early stopping is
# disabled (patience == max_epochs) so every seed gets the same step count
TREND_TRAIN = TrainConfig(batch_size=32, max_epochs=500, learning_rate=0.01, patience=500, min_delta=0.0)
TREND_SEEDS = (0, 1, 2)
FC_3_0 = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
FC_3_2 = FeatureConfig(n_serving_beams=3, n_neighbor_cells=2)


def test_criterion_1_error_stats_exact_and_identity():
    stats = error_stats([0.0, 4.0])
    exact = stats.mean == 2.0 and stats.std == 2.0
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        xs = rng.uniform(0.0, 100.0, size=int(rng.integers(1, 200)))
        s = error_stats(xs)
        worst = max(worst, abs(s.std**2 + s.mean**2 - float(np.mean(xs**2))))
    ok = exact and worst <= 1e-9
    record_criterion(1, f"error stats exact on worked example, moment identity off by {worst:.2e}", ok)
    assert ok


def test_criterion_2_gradients_match_finite_differences():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(1, 17)) for _ in range(depth))
        arch = MlpArchitecture(input_dim=int(rng.integers(1, 9)), hidden_layers=hidden)
        model = init_model(arch, seed=int(rng.integers(1 << 30)))
        batch = rng.normal(size=(int(rng.integers(2, 7)), arch.input_dim))
        target = rng.normal(size=(len(batch), 2))
        grad_w, grad_b = backward(model, batch, target)
        num_w, num_b = finite_difference_grads(model, batch, target)
        for analytic, numeric in zip(grad_w + grad_b, num_w + num_b):
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    ok = worst <= 1e-4
    record_criterion(2, f"backprop matches central differences, worst rel err {worst:.2e}", ok)
    assert ok


def test_criterion_3_overfits_small_sample():
    features = np.random.default_rng(0).standard_normal((32, 13))
    labels = np.random.default_rng(1).uniform(0.0, 20.0, size=(32, 2))
    model = init_model(MlpArchitecture(input_dim=13, hidden_layers=(64, 64)), seed=0)
    cfg = TrainConfig(batch_size=4, max_epochs=500, learning_rate=0.01, patience=500, min_delta=0.0, seed=0)
    train(model, features, labels, cfg)
    mean_err = float(np.mean(euclidean_errors(forward(model, features), labels)))
    ok = mean_err < 0.1 and len(model.training_log) <= 500
    record_criterion(3, f"2x64 net memorizes 32 samples to {mean_err:.4f} m mean error", ok)
    assert ok


def test_criterion_4_greedy_split_matches_brute_force():
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        n_feat = int(rng.integers(1, 4))
        cols = []
        for _ in range(n_feat):
            if rng.random() < 0.5:
                cols.append(rng.integers(0, 4, size=n).astype(float))
            else:
                cols.append(rng.uniform(0, 10, size=n))
        x = np.column_stack(cols)
        y = np.round(rng.normal(size=(n, 2)), 2)
        got = _best_split(x, y, min_leaf=1)
        want = brute_force_best_split(x, y)
        if got is None or want is None:
            mismatches += got != want if (got is None) != (want is None) else 0
        elif got[0] != want[0] or got[1] != want[1]:
            mismatches += 1
    ok = mismatches == 0
    record_criterion(4, f"greedy root split equals brute force on 100 instances ({mismatches} mismatches)", ok)
    assert ok


def test_criterion_5_los_matches_dense_oracle():
    rng = np.random.default_rng(5)
    buildings = tuple(
        Building((x, y), (x + w, y + h), height)
        for x, y, w, h, height in zip(
            rng.uniform(0, 90, 10),
            rng.uniform(0, 90, 10),
            rng.uniform(5, 25, 10),
            rng.uniform(5, 25, 10),
            rng.uniform(5, 30, 10),
        )
    )
    box = Building((30.0, 40.0), (50.0, 60.0), 20.0)
    grazing = [
        # along a vertical face, corner-to-corner diagonal, and roof-level
        ((30.0, 20.0, 5.0), (30.0, 80.0, 5.0), (box,)),
        ((20.0, 50.0, 5.0), (40.0, 30.0, 5.0), (box,)),
        ((20.0, 50.0, 20.0), (60.0, 50.0, 20.0), (box,)),
        ((20.0, 50.0, 19.99), (60.0, 50.0, 19.99), (box,)),
        ((50.0, 20.0, 1.5), (50.0, 80.0, 30.0), (box,)),
    ]
    checked = 0
    agreed = 0
    for p, q, scene in grazing:
        checked += 1
        agreed += line_of_sight(p, q, scene) == dense_los_oracle(p, q, scene)
    while checked < 1000:
        p = (float(rng.uniform(-20, 120)), float(rng.uniform(-20, 120)), float(rng.uniform(0.5, 35)))
        q = (float(rng.uniform(-20, 120)), float(rng.uniform(-20, 120)), float(rng.uniform(0.5, 35)))
        checked += 1
        agreed += line_of_sight(p, q, buildings) == dense_los_oracle(p, q, buildings)
    ok = agreed == checked
    record_criterion(5, f"line of sight agrees with dense sampling on {agreed}/{checked} segments", ok)
    assert ok


@pytest.fixture(scope="module")
def trend_results():
    """Five arms x three seeds on one shadow-faded 8-site deployment."""
    t0 = time.time()
    scenario = build_scenario(ScenarioConfig(grid_resolution_m=3.0, seed=123))
    prop = PropagationConfig(shadow_fading_sigma=4.0, noise_floor=-105.0)
    samples = filter_los(generate_samples(scenario, prop))
    arms = {
        "net_3_0": dict(feature_config=FC_3_0, topology="network_level", model_kind="mlp", hidden_layers=(64,)),
        "net_3_2": dict(feature_config=FC_3_2, topology="network_level", model_kind="mlp", hidden_layers=(64,)),
        "cells_3_2": dict(feature_config=FC_3_2, topology="cell_specific", model_kind="mlp", hidden_layers=(64,)),
        "cells_3_2_deep": dict(feature_config=FC_3_2, topology="cell_specific", model_kind="mlp", hidden_layers=(64, 64)),
        "tree_3_2": dict(feature_config=FC_3_2, topology="network_level", model_kind="dtree"),
    }
    descriptors = [
        ExperimentDescriptor(experiment_id=f"{name}-seed{seed}", train_config=TREND_TRAIN, seed=seed, **kwargs)
        for seed in TREND_SEEDS
        for name, kwargs in arms.items()
    ]
    reports, failures = run_matrix(samples, descriptors, 0.9, 50, jobs=os.cpu_count())
    assert failures == []
    results = {name: {"test_mean": [], "baseline": []} for name in arms}
    for report in reports:
        name = report["experiment_id"].rsplit("-seed", 1)[0]
        results[name]["test_mean"].append(report["test"]["mean"])
        results[name]["baseline"].append(report["baseline_test_mean"])
    results["elapsed"] = time.time() - t0
    return results


def _median(results, arm):
    return statistics.median(results[arm]["test_mean"])


def test_criterion_6_neighbor_features_help(trend_results):
    with_neighbors = _median(trend_results, "net_3_2")
    without = _median(trend_results, "net_3_0")
    ok = with_neighbors <= 0.9 * without and trend_results["elapsed"] <= 1800
    record_criterion(
        6, f"neighbor features cut network-level error {without:.1f} -> {with_neighbors:.1f} m (>=10%)", ok
    )
    assert ok


def test_criterion_7_cell_specific_beats_network_level(trend_results):
    cell_specific = _median(trend_results, "cells_3_2")
    network = _median(trend_results, "net_3_2")
    ok = cell_specific <= 0.9 * network and trend_results["elapsed"] <= 2700
    record_criterion(
        7, f"cell-specific training cuts pooled error {network:.1f} -> {cell_specific:.1f} m (>=10%)", ok
    )
    assert ok


def test_criterion_8_second_hidden_layer_not_worse(trend_results):
    deep = _median(trend_results, "cells_3_2_deep")
    shallow = _median(trend_results, "cells_3_2")
    ok = deep <= 1.05 * shallow
    record_criterion(8, f"two hidden layers {deep:.1f} m vs one {shallow:.1f} m (within +5%)", ok)
    assert ok


def test_criterion_9_best_model_beats_centroid_baseline(trend_results):
    arms = [k for k in trend_results if k != "elapsed"]
    best = min(arms, key=lambda a: _median(trend_results, a))
    best_err = _median(trend_results, best)
    baseline = statistics.median(trend_results[best]["baseline"])
    ok = best_err <= 0.4 * baseline
    record_criterion(
        9, f"best arm ({best}) {best_err:.1f} m vs centroid baseline {baseline:.1f} m (>=60% lower)", ok
    )
    assert ok


def test_criterion_10_cli_run_is_byte_deterministic(tmp_path):
    t0 = time.time()
    config = os.path.join(CONFIG_DIR, "tiny.yaml")
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        outs.append(out)
    identical = []
    for rel in [os.path.join("reports", name) for name in os.listdir(outs[0] / "reports")] + [
        "comparison.csv",
        "manifest.json",
    ]:
        identical.append((outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes())
    elapsed = time.time() - t0
    ok = all(identical) and len(identical) >= 5 and elapsed < 300
    record_criterion(
        10, f"two identical runs produced byte-identical outputs ({len(identical)} files, {elapsed:.0f}s)", ok
    )
    assert ok


def test_criterion_11_feature_vector_lengths():
    sample = FingerprintSample(
        location=(12.0, 34.0),
        rsrp={
            (0, 0): -60.0,
            (0, 1): -63.0,
            (0, 2): -66.0,
            (0, 3): -70.0,
            (1, 5): -75.0,
            (2, 7): -78.0,
        },
        serving_cell=0,
        los_to_serving=True,
    )
    table = table_from_samples([sample])
    nine, _, _ = extract_features(table, FeatureConfig(n_serving_beams=4, n_neighbor_cells=0))
    thirteen, _, _ = extract_features(table, FeatureConfig(n_serving_beams=3, n_neighbor_cells=2))
    ok = nine.shape == (1, 9) and thirteen.shape == (1, 13)
    record_criterion(11, f"feature vectors have {nine.shape[1]} and {thirteen.shape[1]} entries", ok)
    assert ok
