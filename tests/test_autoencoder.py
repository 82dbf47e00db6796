import numpy as np
import pytest
import scipy.sparse as sp

from dataselect.autoencoder import (
    AEModel,
    AETrainConfig,
    corrupt,
    encode,
    gradient_check,
    load_model,
    loss_and_gradients,
    save_model,
    train,
)
from dataselect.errors import ConfigError, DataError, NumericalError


def small_model(seed=5, d=4, h=3, scale=0.6):
    rng = np.random.default_rng(seed)
    return AEModel(
        W=rng.normal(scale=scale, size=(h, d)),
        b=rng.normal(scale=scale, size=h),
        W_out=rng.normal(scale=scale, size=(d, h)),
        b_out=rng.normal(scale=scale, size=d),
    )


class TestCorrupt:
    def test_zero_probability_is_identity(self):
        x = np.linspace(0, 1, 7)
        out = corrupt(x, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_deterministic_per_seed(self):
        x = np.ones(100)
        a = corrupt(x, 0.8, np.random.default_rng(42))
        b = corrupt(x, 0.8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_masking_fraction_concentrates(self):
        x = np.ones(10_000)
        out = corrupt(x, 0.8, np.random.default_rng(7))
        zeroed = float(np.mean(out == 0))
        assert abs(zeroed - 0.8) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            corrupt(np.ones(3), 1.0, np.random.default_rng(0))


class TestEncode:
    def test_zero_input_gives_sigmoid_bias(self):
        model = small_model()
        out = encode(model, np.zeros(4))
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-model.b)), atol=1e-12)

    def test_zero_model_gives_half(self):
        model = AEModel(W=np.zeros((3, 4)), b=np.zeros(3), W_out=np.zeros((4, 3)),
                        b_out=np.zeros(4))
        assert np.allclose(encode(model, np.ones(4)), 0.5, atol=1e-15)

    def test_matches_matrix_multiply_oracle(self):
        model = small_model(seed=11)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.random(4)
            expected = 1.0 / (1.0 + np.exp(-(model.W @ x + model.b)))
            assert np.allclose(encode(model, x), expected, atol=1e-9)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(19)
        for seed in range(5):
            model = small_model(seed=seed, d=8, h=6, scale=1.5)
            batch = rng.random((40, 8))
            codes = encode(model, batch)
            assert np.all(codes > 0.0) and np.all(codes < 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            encode(small_model(), np.zeros(9))


class TestGradients:
    def test_gradient_check_small_model(self):
        model = small_model(seed=2)  # 31 parameters
        x = np.random.default_rng(1).random(4)
        assert gradient_check(model, x, h_step=1e-5) < 1e-4

    def test_zero_gradient_at_perfect_reconstruction(self):
        # With zero output weights the reconstruction is sigmoid(0) = 0.5
        # everywhere, so a target of all 0.5 sits exactly at the loss minimum.
        model = AEModel(
            W=np.random.default_rng(0).normal(size=(3, 4)),
            b=np.zeros(3),
            W_out=np.zeros((4, 3)),
            b_out=np.zeros(4),
        )
        x = np.full(4, 0.5)
        _, grads = loss_and_gradients(model, x, x)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert norm < 1e-8

    def test_truncation_error_scales_quadratically(self):
        model = small_model(seed=4)
        x = np.random.default_rng(8).random(4)
        err_h = gradient_check(model, x, h_step=1e-4)
        err_2h = gradient_check(model, x, h_step=2e-4)
        ratio = err_2h / err_h
        assert 2.0 < ratio < 8.0

    def test_step_size_bounds(self):
        with pytest.raises(ConfigError):
            gradient_check(small_model(), np.zeros(4), h_step=1e-2)


class TestTrain:
    def test_loss_decreases_on_repeated_vector(self):
        x = np.tile(np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3]), (16, 1))
        config = AETrainConfig(epochs=12, masking_prob=0.2, hidden_dim=3,
                               batch_size=4, seed=0)
        _, losses = train(x, config)
        assert losses[-1] < losses[0]

    def test_loss_trend_with_heavy_masking(self):
        rng = np.random.default_rng(21)
        data = rng.random((20, 12))
        config = AETrainConfig(epochs=15, masking_prob=0.8, hidden_dim=6,
                               batch_size=4, seed=3)
        _, losses = train(data, config)
        assert np.mean(losses[-5:]) <= np.mean(losses[:5])

    def test_bit_reproducible(self):
        rng = np.random.default_rng(2)
        data = rng.random((10, 5))
        config = AETrainConfig(epochs=3, masking_prob=0.5, hidden_dim=4,
                               batch_size=3, seed=9)
        model_a, losses_a = train(data, config)
        model_b, losses_b = train(data, config)
        assert losses_a == losses_b
        for key, value in model_a.parameters().items():
            assert np.array_equal(value, model_b.parameters()[key])

    def test_nonfinite_loss_aborts(self):
        data = np.random.default_rng(0).random((8, 4))
        config = AETrainConfig(epochs=3, masking_prob=0.0, hidden_dim=2,
                               batch_size=4, seed=0, learning_rate=1e308)
        with pytest.raises(NumericalError):
            train(data, config)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            train(np.zeros((0, 3)), AETrainConfig(epochs=1, hidden_dim=2))

    def test_training_replay_oracle(self):
        """Independent step-by-step re-implementation with the same seed schedule."""
        d, h, n = 6, 3, 20
        rng_data = np.random.default_rng(100)
        data = rng_data.random((n, d))
        config = AETrainConfig(
            epochs=4, masking_prob=0.3, learning_rate=1e-3, batch_size=5,
            seed=123, hidden_dim=h,
        )
        model, losses = train(data, config)

        # --- replica ---------------------------------------------------
        rng = np.random.default_rng(123)
        lim = np.sqrt(6.0 / (d + h))
        W = rng.uniform(-lim, lim, size=(h, d))
        W_out = rng.uniform(-lim, lim, size=(d, h))
        b = np.zeros(h)
        b_out = np.zeros(d)
        params = {"W": W, "b": b, "W_out": W_out, "b_out": b_out}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(v) for k, v in params.items()}
        t = 0
        sigma = lambda z: 1.0 / (1.0 + np.exp(-z))
        expected_losses = []
        for _ in range(config.epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                batch = data[idx]
                keep = rng.random(batch.shape) >= config.masking_prob
                tilde = batch * keep
                B = len(idx)
                hidden = sigma(tilde @ params["W"].T + params["b"])
                z = hidden @ params["W_out"].T + params["b_out"]
                loss = float(
                    np.sum(np.maximum(z, 0) - z * batch + np.log1p(np.exp(-np.abs(z))))
                ) / B
                total += loss * B
                dz = (sigma(z) - batch) / B
                grads = {
                    "W_out": dz.T @ hidden,
                    "b_out": dz.sum(axis=0),
                }
                dh = (dz @ params["W_out"]) * hidden * (1 - hidden)
                grads["W"] = dh.T @ tilde
                grads["b"] = dh.sum(axis=0)
                t += 1
                for key in ("W", "b", "W_out", "b_out"):
                    g = grads[key]
                    m[key] = 0.9 * m[key] + 0.1 * g
                    v[key] = 0.999 * v[key] + 0.001 * g * g
                    m_hat = m[key] / (1 - 0.9**t)
                    v_hat = v[key] / (1 - 0.999**t)
                    params[key] = params[key] - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            expected_losses.append(total / n)

        assert np.allclose(losses, expected_losses, atol=1e-6)
        for key in params:
            assert np.allclose(model.parameters()[key], params[key], atol=1e-9)

    def test_out_of_range_data_rejected(self):
        # encode() never rescales its input, so training must not either
        config = AETrainConfig(epochs=1, masking_prob=0.0, hidden_dim=2,
                               batch_size=2, seed=0)
        for bad in (5.0, -0.5, np.nan):
            data = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, bad]])
            with pytest.raises(DataError, match=r"\[0, 1\]"):
                train(data, config)
        with pytest.raises(DataError):
            train(sp.csr_matrix([[0.0, 2.0], [1.0, 0.0]]), config)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = small_model(seed=33)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        for key, value in model.parameters().items():
            assert np.array_equal(value, loaded.parameters()[key])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "nope.npz")

    def test_dims_validated(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.npz"
        np.savez(
            path,
            version=np.int64(1),
            dims=np.array([99, 98]),
            W=model.W, b=model.b, W_out=model.W_out, b_out=model.b_out,
        )
        with pytest.raises(DataError, match="dims"):
            load_model(path)
