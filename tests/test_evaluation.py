import dataclasses
import json
import multiprocessing
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamloc.evaluation
from beamloc.evaluation import (
    MODEL_KINDS,
    TOPOLOGIES,
    ExperimentDescriptor,
    comparison_rows,
    error_cdf,
    error_stats,
    euclidean_errors,
    percentile_nearest_rank,
    prepare_data,
    run_experiment,
    run_matrix,
    save_cdf_csv,
    save_comparison_csv,
    save_report,
)
from beamloc.fingerprint import FeatureConfig, extract_features_layout
from beamloc.mlp import TrainConfig
from beamloc.dtree import TreeConfig
from beamloc.propagation import PropagationConfig
from beamloc.scenario import ScenarioConfig, build_scenario
from beamloc.fingerprint import filter_los, generate_samples

FAST_TRAIN = TrainConfig(batch_size=16, max_epochs=25, learning_rate=0.01, patience=10)


@pytest.fixture(scope="module")
def samples():
    config = ScenarioConfig(
        site_rows=1,
        site_cols=1,
        beams_per_sector=8,
        elevation_steers_deg=(-6.0,),
        grid_resolution_m=2.0,
    )
    scenario = build_scenario(config)
    return filter_los(generate_samples(scenario, PropagationConfig()))


def test_error_stats_two_point_example():
    stats = error_stats([0.0, 4.0])
    assert stats.mean == 2.0
    assert stats.std == 2.0
    assert stats.n == 2


def test_error_stats_constant_list():
    stats = error_stats([3.0, 3.0, 3.0])
    assert stats.mean == 3.0
    assert stats.std == 0.0


def test_error_stats_population_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        xs = rng.uniform(0, 100, size=rng.integers(1, 200))
        stats = error_stats(xs)
        assert abs(stats.std**2 + stats.mean**2 - np.mean(xs**2)) < 1e-9


def test_error_stats_rejects_empty():
    with pytest.raises(ValueError):
        error_stats([])


def test_euclidean_errors_345():
    errs = euclidean_errors(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[3.0, 4.0], [1.0, 1.0]]))
    assert errs.tolist() == [5.0, 0.0]


def test_euclidean_errors_shape_mismatch():
    with pytest.raises(ValueError):
        euclidean_errors(np.zeros((3, 2)), np.zeros((4, 2)))


def test_error_cdf_example():
    cdf = error_cdf([1.0, 2.0, 2.0, 5.0])
    assert cdf == [(1.0, 0.25), (2.0, 0.75), (5.0, 1.0)]


def test_error_cdf_monotone_and_complete():
    rng = np.random.default_rng(3)
    cdf = error_cdf(rng.exponential(10.0, size=500))
    values = [v for v, _ in cdf]
    fractions = [f for _, f in cdf]
    assert values == sorted(values)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


@settings(max_examples=200, deadline=None)
@given(errors=st.lists(st.one_of(st.sampled_from([0.0, 1.5, 2.0]), st.floats(0.0, 1e6)), min_size=1, max_size=300))
def test_error_cdf_is_non_decreasing_and_ends_at_exactly_one(errors):
    # repeated values are common, so steps of more than one sample occur
    values, fractions = zip(*error_cdf(errors))
    assert list(values) == sorted(set(errors))
    assert all(0.0 < a <= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0


def test_percentile_nearest_rank():
    xs = list(range(1, 11))
    assert percentile_nearest_rank(xs, 50) == 5.0
    assert percentile_nearest_rank(xs, 80) == 8.0
    assert percentile_nearest_rank(xs, 90) == 9.0
    assert percentile_nearest_rank([7.0], 50) == 7.0


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 0)


def test_descriptor_validation():
    fc = FeatureConfig()
    with pytest.raises(ValueError):
        ExperimentDescriptor(experiment_id="", feature_config=fc)
    with pytest.raises(ValueError):
        ExperimentDescriptor(experiment_id="x", feature_config=fc, topology="global")
    with pytest.raises(ValueError):
        ExperimentDescriptor(experiment_id="x", feature_config=fc, model_kind="svm")
    desc = ExperimentDescriptor(experiment_id="x", feature_config=fc, hidden_layers=[32, 16])
    assert desc.hidden_layers == (32, 16)
    # an mlp's first layer may hold as many weights as the widest hidden layer, 1024 x 1024
    wide = FeatureConfig(n_serving_beams=1, n_neighbor_cells=0, id_encoding="one_hot", one_hot_cells=959,
                         one_hot_beams=64)
    assert len(extract_features_layout(wide)) == 1024
    ExperimentDescriptor(experiment_id="x", feature_config=wide, hidden_layers=(1024, 8))
    wider = dataclasses.replace(wide, one_hot_cells=960)
    with pytest.raises(ValueError, match=r"^hidden_layers \[1024\] put 1049600 weights .* 1025 inputs"):
        ExperimentDescriptor(experiment_id="x", feature_config=wider, hidden_layers=(1024,))
    ExperimentDescriptor(experiment_id="x", feature_config=wider, hidden_layers=(1024,), model_kind="dtree")
    ExperimentDescriptor(experiment_id="x", feature_config=wider, hidden_layers=())


def test_prepare_data_shapes(samples):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    net = ExperimentDescriptor(experiment_id="net", feature_config=fc, topology="network_level")
    parts = prepare_data(samples, net)
    assert [labels for labels, _ in parts] == [("net",)]
    assert parts[0][1].features.shape[1] == 7

    cells = ExperimentDescriptor(experiment_id="cs", feature_config=fc, topology="cell_specific")
    parts = prepare_data(samples, cells, min_cell_size=10)
    labels = [labels for labels, _ in parts]
    assert len(parts) >= 2
    assert [kind for kind, _ in labels] == ["cell"] * len(parts)
    assert [cell_id for _, cell_id in labels] == sorted({int(c) for c in samples.serving_cell})
    for _, dataset in parts:
        assert dataset.features.shape[1] == 6
    with pytest.raises(ValueError, match="no per-cell datasets"):
        prepare_data(samples, cells, min_cell_size=10**6)


def test_run_experiment_mlp_network(samples):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    desc = ExperimentDescriptor(
        experiment_id="mlp-net",
        feature_config=fc,
        model_kind="mlp",
        hidden_layers=(8,),
        train_config=FAST_TRAIN,
        seed=5,
    )
    report = run_experiment(prepare_data(samples, desc), desc)
    assert report["experiment_id"] == "mlp-net"
    assert report["train"]["n"] + report["test"]["n"] == len(samples)
    assert report["cdf"][-1][1] == 1.0
    p = report["percentiles"]
    assert p["p50"] <= p["p80"] <= p["p90"]
    assert report["baseline_test_mean"] > 0
    assert report["model"]["epochs_trained"] >= 1
    assert "per_cell" not in report


def test_run_experiment_dtree_memorizes_training_rows(samples):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=1)
    desc = ExperimentDescriptor(
        experiment_id="tree-net",
        feature_config=fc,
        model_kind="dtree",
        tree_config=TreeConfig(),
        seed=2,
    )
    report = run_experiment(prepare_data(samples, desc), desc)
    assert report["train"]["mean"] == 0.0
    assert report["test"]["mean"] > 0.0


def test_run_experiment_cell_specific_pools_test_errors(samples):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    desc = ExperimentDescriptor(
        experiment_id="tree-cs",
        feature_config=fc,
        topology="cell_specific",
        model_kind="dtree",
        seed=3,
    )
    report = run_experiment(prepare_data(samples, desc, min_cell_size=10), desc)
    assert report["per_cell"]
    n_total = sum(cell["n_test"] for cell in report["per_cell"].values())
    assert report["test"]["n"] == n_total
    # pooled mean and std must equal the stats of the concatenated per-cell
    # error lists; check via the weighted first and second moments
    mean = sum(c["n_test"] * c["test_mean"] for c in report["per_cell"].values()) / n_total
    second = sum(c["n_test"] * (c["test_std"] ** 2 + c["test_mean"] ** 2) for c in report["per_cell"].values()) / n_total
    assert abs(report["test"]["mean"] - mean) < 1e-9
    assert abs(report["test"]["std"] ** 2 - (second - mean**2)) < 1e-9


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_report_is_the_json_document_save_report_writes(samples, tmp_path, topology, model_kind):
    desc = ExperimentDescriptor(
        experiment_id="doc",
        feature_config=FeatureConfig(n_serving_beams=3, n_neighbor_cells=0),
        topology=topology,
        model_kind=model_kind,
        hidden_layers=(8,),
        train_config=FAST_TRAIN,
    )
    report = run_experiment(prepare_data(samples, desc, min_cell_size=10), desc)
    assert json.loads(json.dumps(report)) == report
    path = tmp_path / "doc.json"
    save_report(report, str(path))
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_run_experiment_is_deterministic(samples):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=1)
    desc = ExperimentDescriptor(
        experiment_id="repeat",
        feature_config=fc,
        hidden_layers=(8,),
        train_config=FAST_TRAIN,
        seed=11,
    )
    first = run_experiment(prepare_data(samples, desc), desc)
    second = run_experiment(prepare_data(samples, desc), desc)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_run_matrix_requires_unique_ids(samples):
    fc = FeatureConfig()
    descs = [
        ExperimentDescriptor(experiment_id="dup", feature_config=fc, model_kind="dtree"),
        ExperimentDescriptor(experiment_id="dup", feature_config=fc, model_kind="dtree", seed=1),
    ]
    with pytest.raises(ValueError):
        run_matrix(samples, descs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matrix_contains_failures_and_continues(samples, jobs):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    good = ExperimentDescriptor(experiment_id="good", feature_config=fc, model_kind="dtree")
    bad = ExperimentDescriptor(
        experiment_id="bad", feature_config=fc, model_kind="dtree", topology="cell_specific"
    )
    # an absurd cell-size floor leaves no per-cell dataset, failing only `bad`
    reports, failures = run_matrix(samples, [good, bad], min_cell_size=10**6, jobs=jobs)
    assert [r["experiment_id"] for r in reports] == ["good"]
    assert [f["experiment_id"] for f in failures] == ["bad"]
    assert failures[0]["error"] == "cell_specific topology received no per-cell datasets"


def test_run_matrix_parallel_matches_serial(samples):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    descs = [
        ExperimentDescriptor(experiment_id="t1", feature_config=fc, model_kind="dtree", seed=1),
        ExperimentDescriptor(experiment_id="t2", feature_config=fc, model_kind="dtree", seed=2),
    ]
    serial, _ = run_matrix(samples, descs, min_cell_size=10)
    parallel, _ = run_matrix(samples, descs, min_cell_size=10, jobs=2)
    for a, b in zip(serial, parallel):
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_comparison_rows_sorted_and_complete(samples):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    descs = [
        ExperimentDescriptor(experiment_id="z-last", feature_config=fc, model_kind="dtree"),
        ExperimentDescriptor(experiment_id="a-first", feature_config=fc, model_kind="dtree"),
    ]
    reports, failures = run_matrix(samples, descs)
    assert not failures
    rows = comparison_rows(reports)
    assert [r["experiment_id"] for r in rows] == ["a-first", "z-last"]
    assert {"test_mean_m", "p90_m", "topology"} <= set(rows[0])


def test_report_writers_round_trip(samples, tmp_path):
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    desc = ExperimentDescriptor(experiment_id="io", feature_config=fc, model_kind="dtree")
    report = run_experiment(prepare_data(samples, desc), desc)

    report_path = tmp_path / "io.json"
    save_report(report, str(report_path))
    loaded = json.loads(report_path.read_text())
    assert loaded["experiment_id"] == "io"
    assert loaded["test"]["mean"] == report["test"]["mean"]

    cdf_path = tmp_path / "io_cdf.csv"
    save_cdf_csv(report, str(cdf_path))
    lines = cdf_path.read_text().strip().splitlines()
    assert lines[0] == "error_m,fraction"
    assert len(lines) == len(report["cdf"]) + 1

    cmp_path = tmp_path / "comparison.csv"
    save_comparison_csv([report], str(cmp_path))
    assert "io" in cmp_path.read_text()

    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def inline_processes(monkeypatch):
    """Replace multiprocessing.Process with a stand-in that runs its arm in
    this process on start(), leaving the outcome in the pipe. Returns the
    record of the arm ids in start order and of the most processes alive at
    once (started and not yet joined)."""
    record = {"started": [], "alive": 0, "most_alive": 0}

    class InlineProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            record["started"].append(self.args[2].experiment_id)
            record["alive"] += 1
            record["most_alive"] = max(record["most_alive"], record["alive"])
            self.target(*self.args)

        def join(self):
            record["alive"] -= 1

    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    return record


def placeholder_arms(monkeypatch):
    """Every arm's report becomes its experiment id, with no data work."""
    monkeypatch.setattr(beamloc.evaluation, "prepare_data", lambda *a: None)
    monkeypatch.setattr(beamloc.evaluation, "run_experiment", lambda data, d: d.experiment_id)


@pytest.mark.parametrize(
    "jobs, arms, cpus, expected",
    [(8, 3, 2, 2), (8, 2, 64, 2), (3, 5, 64, 3), (4, 4, 1, None), (2, 1, 8, None), (1, 4, 8, None)],
)
def test_run_matrix_clamps_workers(monkeypatch, jobs, arms, cpus, expected):
    """min(jobs, arms, CPUs) worker processes at once, one per arm; one
    worker runs the arms in this process and starts none."""
    record = inline_processes(monkeypatch)
    placeholder_arms(monkeypatch)
    monkeypatch.setattr(beamloc.evaluation.os, "cpu_count", lambda: cpus)
    descriptors = [ExperimentDescriptor(f"arm{i}", FeatureConfig()) for i in range(arms)]
    reports, failures = run_matrix(None, descriptors, jobs=jobs)
    started = (record["most_alive"], len(record["started"]))
    assert started == ((0, 0) if expected is None else (expected, arms))
    assert record["alive"] == 0
    assert reports == [d.experiment_id for d in descriptors]
    assert failures == []


def test_run_matrix_starts_the_longest_arm_first_and_reports_in_config_order(monkeypatch):
    """Start order is epochs x sum(hidden) x len(hidden)^2 descending, trees
    last, ties in config order (Graham's LPT rule)."""
    record = inline_processes(monkeypatch)
    placeholder_arms(monkeypatch)
    monkeypatch.setattr(beamloc.evaluation.os, "cpu_count", lambda: 8)

    def arm(name, model="mlp", hidden=(8,), epochs=25):
        return ExperimentDescriptor(name, FeatureConfig(), model_kind=model, hidden_layers=hidden,
                                    train_config=TrainConfig(max_epochs=epochs))

    descriptors = [
        arm("tree", model="dtree"),                # 0
        arm("w8-a"),                               # 25 x 8 = 200
        arm("w16-short", hidden=(16,), epochs=5),  # 5 x 16 = 80
        arm("w4x4", hidden=(4, 4)),                # 25 x 8 x 4 = 800
        arm("w8-b"),                               # 200, after w8-a
    ]
    reports, failures = run_matrix(None, descriptors, jobs=2)
    assert record["started"] == ["w4x4", "w8-a", "w8-b", "w16-short", "tree"]
    assert reports == [d.experiment_id for d in descriptors]
    assert failures == []


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="a patched module attribute reaches only a forked worker"
)


@FORK_ONLY
def test_run_matrix_reads_large_reports_and_joins_every_child(samples, monkeypatch):
    """Reports far larger than a pipe's buffer arrive whole, and no child
    process outlives the call."""
    blob = "x" * (4 << 20)
    monkeypatch.setattr(beamloc.evaluation, "run_experiment", lambda parts, d: {"id": d.experiment_id, "blob": blob})
    monkeypatch.setattr(beamloc.evaluation.os, "cpu_count", lambda: 2)
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    descs = [ExperimentDescriptor(f"t{i}", feature_config=fc, model_kind="dtree") for i in range(3)]
    reports, failures = run_matrix(samples, descs, jobs=2)
    assert reports == [{"id": d.experiment_id, "blob": blob} for d in descs]
    assert failures == []
    assert multiprocessing.active_children() == []


def test_run_matrix_terminates_its_children_when_it_raises(samples, monkeypatch, each_start_method):
    """A parent-side error (here, no process for the second arm) ends the
    first arm's still-running worker before the error propagates, under
    every start method."""
    start = multiprocessing.Process.start
    processes = []

    def second_start_fails(process):
        processes.append(process)
        if len(processes) % 2 == 0:
            raise OSError("no process for the second arm")
        start(process)

    monkeypatch.setattr(multiprocessing.Process, "start", second_start_fails)
    monkeypatch.setattr(beamloc.evaluation.os, "cpu_count", lambda: 2)
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_cells=0)
    # a real arm that trains for minutes starts first; the tree arm's start fails
    long_arm = ExperimentDescriptor("long", feature_config=fc, hidden_layers=(64, 64),
                                    train_config=TrainConfig(max_epochs=100_000, patience=100_000))
    descs = [ExperimentDescriptor("tree", feature_config=fc, model_kind="dtree"), long_arm]
    for method in each_start_method():
        with pytest.raises(OSError, match="second arm"):
            run_matrix(samples, descs, jobs=2)
        left = multiprocessing.active_children()
        for child in left:  # a run_matrix that leaves its child running fails, without a stray process
            child.kill()
            child.join(10)
        assert left == [], method
        assert processes[-2].exitcode == -signal.SIGTERM, method
