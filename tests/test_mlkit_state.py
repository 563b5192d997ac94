"""Vectorized tree prediction parity, scaler inverse transforms, and
model state round-trips backing the surrogate registry."""

import json

import numpy as np
import pytest

from repro.exceptions import ModelNotFitted
from repro.mlkit import (
    GaussianProcess,
    MinMaxScaler,
    MLPRegressor,
    RandomForest,
    RegressionTree,
    StandardScaler,
    dump_model,
    load_model,
)
from repro.mlkit.state import MODEL_CLASSES


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def data(rng):
    X = rng.uniform(size=(120, 5))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=120)
    return X, y


# ---------------------------------------------------------------------------
# Vectorized tree/forest prediction pinned against the scalar walk
# ---------------------------------------------------------------------------
class TestVectorizedTreeParity:
    def test_tree_predict_matches_scalar_bit_for_bit(self, data, rng):
        X, y = data
        tree = RegressionTree(max_depth=8).fit(X, y)
        queries = rng.uniform(size=(300, 5))
        np.testing.assert_array_equal(
            tree.predict(queries), tree.predict_scalar(queries)
        )

    def test_parity_on_training_rows_and_single_row(self, data):
        X, y = data
        tree = RegressionTree().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), tree.predict_scalar(X))
        one = X[3]
        np.testing.assert_array_equal(
            tree.predict(one), tree.predict_scalar(one)
        )

    def test_parity_exactly_on_split_thresholds(self, data):
        """Rows sitting exactly on a threshold take the <= branch in
        both implementations."""
        X, y = data
        tree = RegressionTree(max_depth=6).fit(X, y)
        state = tree.to_state()
        thresholds = [
            (f, t) for f, t in zip(state["feature"], state["threshold"])
            if f >= 0
        ]
        assert thresholds
        queries = np.tile(X[0], (len(thresholds), 1))
        for i, (feature, threshold) in enumerate(thresholds):
            queries[i, feature] = threshold
        np.testing.assert_array_equal(
            tree.predict(queries), tree.predict_scalar(queries)
        )

    def test_stump_parity(self):
        """A no-split tree (constant target) predicts the leaf everywhere."""
        X = np.zeros((10, 3))
        y = np.full(10, 2.5)
        tree = RegressionTree().fit(X, y)
        queries = np.random.default_rng(0).uniform(size=(20, 3))
        np.testing.assert_array_equal(
            tree.predict(queries), tree.predict_scalar(queries)
        )
        np.testing.assert_array_equal(tree.predict(queries), np.full(20, 2.5))

    def test_forest_predict_is_mean_of_scalar_tree_walks(self, data, rng):
        X, y = data
        forest = RandomForest(n_trees=12, seed=3).fit(X, y)
        queries = rng.uniform(size=(50, 5))
        reference = np.stack(
            [t.predict_scalar(queries) for t in forest._trees]
        ).mean(axis=0)
        np.testing.assert_array_equal(forest.predict(queries), reference)


# ---------------------------------------------------------------------------
# Scaler inverse transforms (including degenerate constant columns)
# ---------------------------------------------------------------------------
class TestScalerRoundTrips:
    def test_minmax_round_trip(self, rng):
        X = rng.normal(size=(40, 4)) * [1, 10, 100, 0.01]
        s = MinMaxScaler().fit(X)
        np.testing.assert_allclose(
            s.inverse_transform(s.transform(X)), X, atol=1e-12
        )

    def test_minmax_constant_column_round_trips(self):
        X = np.column_stack([np.full(10, 3.5), np.arange(10.0)])
        s = MinMaxScaler().fit(X)
        transformed = s.transform(X)
        # Constant column maps to a constant (no divide-by-zero blowup)...
        assert np.isfinite(transformed).all()
        assert np.ptp(transformed[:, 0]) == 0.0
        # ...and inverts back to the original value exactly.
        np.testing.assert_allclose(s.inverse_transform(transformed), X)

    def test_minmax_all_constant_matrix(self):
        X = np.full((6, 3), 9.0)
        s = MinMaxScaler().fit(X)
        np.testing.assert_allclose(s.inverse_transform(s.transform(X)), X)

    def test_standard_constant_column_round_trips(self):
        X = np.column_stack([np.full(12, -2.0), np.linspace(0, 1, 12)])
        s = StandardScaler().fit(X)
        transformed = s.transform(X)
        assert np.isfinite(transformed).all()
        np.testing.assert_allclose(
            s.inverse_transform(transformed), X, atol=1e-12
        )

    def test_inverse_transform_requires_fit(self):
        with pytest.raises(ModelNotFitted):
            MinMaxScaler().inverse_transform(np.zeros((2, 2)))
        with pytest.raises(ModelNotFitted):
            StandardScaler().inverse_transform(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Model state round-trips (the registry's persistence contract)
# ---------------------------------------------------------------------------
def _round_trip(model):
    """dump → strict JSON → load; returns the reconstructed model."""
    state = dump_model(model)
    payload = json.loads(json.dumps(state, allow_nan=False))
    return load_model(payload)


class TestModelStateRoundTrips:
    def test_random_forest(self, data, rng):
        X, y = data
        model = RandomForest(n_trees=8, seed=5).fit(X, y)
        queries = rng.uniform(size=(30, 5))
        restored = _round_trip(model)
        np.testing.assert_array_equal(
            model.predict(queries), restored.predict(queries)
        )
        mu_a, sd_a = model.predict_std(queries)
        mu_b, sd_b = restored.predict_std(queries)
        np.testing.assert_array_equal(mu_a, mu_b)
        np.testing.assert_array_equal(sd_a, sd_b)

    def test_gaussian_process(self, data, rng):
        X, y = data
        model = GaussianProcess().fit(X, y)
        queries = rng.uniform(size=(25, 5))
        restored = _round_trip(model)
        mu_a, sd_a = model.predict(queries, return_std=True)
        mu_b, sd_b = restored.predict(queries, return_std=True)
        np.testing.assert_allclose(mu_a, mu_b, atol=1e-10)
        np.testing.assert_allclose(sd_a, sd_b, atol=1e-10)

    def test_mlp(self, data, rng):
        X, y = data
        model = MLPRegressor(hidden=(16,), epochs=50, seed=2).fit(X, y)
        queries = rng.uniform(size=(25, 5))
        restored = _round_trip(model)
        np.testing.assert_allclose(
            model.predict(queries), restored.predict(queries), atol=1e-12
        )

    def test_scalers(self, rng):
        # A scaler is part of a stored surrogate (the fingerprint scaler,
        # an MLP's input scaler), persisted through its own state.
        X = rng.normal(size=(30, 4))
        for scaler in (MinMaxScaler().fit(X), StandardScaler().fit(X)):
            state = json.loads(json.dumps(scaler.to_state(), allow_nan=False))
            restored = type(scaler).from_state(state)
            np.testing.assert_array_equal(
                scaler.transform(X), restored.transform(X)
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            load_model({"kind": "mystery-model"})

    @pytest.mark.parametrize("kind", [
        "lasso", "minmax_scaler", "regression_tree", "ridge",
        "standard_scaler",
    ])
    def test_only_stored_surrogate_models_load(self, kind):
        assert sorted(MODEL_CLASSES) == ["gp", "mlp", "random_forest"]
        with pytest.raises(ValueError, match="unknown kind"):
            load_model({"kind": kind})

    def test_unfitted_models_refuse_to_dump(self):
        with pytest.raises(ModelNotFitted):
            dump_model(RandomForest())
        with pytest.raises(ModelNotFitted):
            dump_model(RegressionTree())
