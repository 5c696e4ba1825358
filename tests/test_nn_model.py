"""Tests for the Sequential container and its FedAvg weight interface."""

import numpy as np
import pytest

from repro.fl.nn import (
    SGD,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)


def blob_data(rng, n_per_class=100, dim=4):
    x = np.concatenate(
        [rng.normal(-1.0, 0.6, (n_per_class, dim)), rng.normal(1.0, 0.6, (n_per_class, dim))]
    )
    y = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return x, y


def mlp_factory():
    return [Dense(16), ReLU(), Dense(2)]


class TestConstruction:
    def test_output_shape_inferred(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        assert model.output_shape == (2,)

    def test_parameter_count(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        assert model.n_parameters == (4 * 16 + 16) + (16 * 2 + 2)

    def test_parameter_bytes(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        assert model.parameter_bytes == model.n_parameters * 8


class TestTraining:
    def test_learns_separable_blobs(self, rng):
        model = Sequential(mlp_factory, (4,), optimizer=SGD(0.1), rng=rng)
        x, y = blob_data(rng)
        for _ in range(6):
            model.fit(x, y, epochs=1, batch_size=32)
        _, acc = model.evaluate(x, y)
        assert acc > 0.95

    def test_train_batch_reduces_loss(self, rng):
        model = Sequential(mlp_factory, (4,), optimizer=SGD(0.1), rng=rng)
        x, y = blob_data(rng, n_per_class=64)
        first = model.train_batch(x, y)
        for _ in range(20):
            last = model.train_batch(x, y)
        assert last < first

    def test_predict_matches_argmax(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        x, _ = blob_data(rng, n_per_class=10)
        logits = model.predict_logits(x)
        np.testing.assert_array_equal(model.predict(x), logits.argmax(axis=1))

    def test_evaluate_returns_loss_and_accuracy(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        x, y = blob_data(rng, n_per_class=16)
        loss, acc = model.evaluate(x, y)
        assert loss > 0.0
        assert 0.0 <= acc <= 1.0


class TestFirstLayerInputGradient:
    @staticmethod
    def cnn_factory():
        return [Conv2D(3, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(2)]

    def test_first_layer_returns_no_input_gradient(self, rng):
        model = Sequential(self.cnn_factory, (6, 6, 1), rng=rng)
        model.forward(rng.standard_normal((4, 6, 6, 1)), training=True)
        assert model.layers[0].backward(np.ones((4, 4, 4, 3))) is None

    @pytest.mark.parametrize("factory", ["cnn", "mlp"])
    def test_skipping_it_leaves_training_bitwise(self, factory):
        make = self.cnn_factory if factory == "cnn" else mlp_factory
        shape = (6, 6, 1) if factory == "cnn" else (4,)
        models = [
            Sequential(make, shape, optimizer=SGD(0.1), rng=np.random.default_rng(3))
            for _ in range(2)
        ]
        models[1].layers[0]._input_grad = True  # the full backward pass
        data = np.random.default_rng(4)
        x, y = data.standard_normal((8, *shape)), data.integers(2, size=8)
        losses = [[m.train_batch(x, y) for _ in range(3)] for m in models]
        assert losses[0] == losses[1]
        for a, b in zip(models[0].get_weights(), models[1].get_weights()):
            assert a.tobytes() == b.tobytes()


class TestWeightInterface:
    def test_get_weights_returns_copies(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        weights = model.get_weights()
        weights[0][...] = 0.0
        assert not np.allclose(model.layers[0].params[0], 0.0)

    def test_set_get_roundtrip(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        weights = model.get_weights()
        model2 = Sequential(mlp_factory, (4,), rng=np.random.default_rng(99))
        model2.set_weights(weights)
        for a, b in zip(model2.get_weights(), weights):
            np.testing.assert_array_equal(a, b)

    def test_set_weights_rejects_wrong_count(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        with pytest.raises(ValueError):
            model.set_weights(model.get_weights()[:-1])

    def test_set_weights_rejects_wrong_shape(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        weights = model.get_weights()
        weights[0] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.set_weights(weights)

    def test_identical_weights_identical_predictions(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        clone = model.clone_architecture(np.random.default_rng(1))
        clone.set_weights(model.get_weights())
        x, _ = blob_data(rng, n_per_class=8)
        np.testing.assert_allclose(model.predict_logits(x), clone.predict_logits(x))


class TestClone:
    def test_clone_has_fresh_parameters(self, rng):
        model = Sequential(mlp_factory, (4,), rng=rng)
        clone = model.clone_architecture(np.random.default_rng(123))
        assert clone.n_parameters == model.n_parameters
        # Different init rng -> different weights, and no aliasing.
        assert not np.allclose(clone.get_weights()[0], model.get_weights()[0])
        clone.layers[0].params[0][...] = 7.0
        assert not np.allclose(model.layers[0].params[0], 7.0)

    def test_clone_optimizer_state_fresh(self, rng):
        model = Sequential(mlp_factory, (4,), optimizer=SGD(0.1, momentum=0.9), rng=rng)
        x, y = blob_data(rng, n_per_class=8)
        model.train_batch(x, y)
        clone = model.clone_architecture(np.random.default_rng(5))
        assert isinstance(clone.optimizer, SGD)
        assert clone.optimizer.momentum == 0.9
        assert clone.optimizer._velocity is None
