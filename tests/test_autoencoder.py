import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from dataselect import autoencoder
from dataselect import corpus as corpus_module
from dataselect.autoencoder import (
    AEModel,
    AETrainConfig,
    corrupt,
    encode,
    loss_and_gradients,
    sigmoid,
    train,
)
from dataselect.corpus import build_vocabulary, tokenize_corpus
from dataselect.errors import ConfigError, DataError, NumericalError
from dataselect.representations import ae_input_features
from dataselect.synthetic import DomainSpec, generate


def gradient_check(model: AEModel, x: np.ndarray, h_step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The loss is the clean-input reconstruction objective at ``x``. For tiny
    models only: it costs two forward passes per parameter.
    """
    if not 1e-7 <= h_step <= 1e-3:
        raise ConfigError(f"h_step must be in [1e-7, 1e-3], got {h_step}")
    x = np.asarray(x, dtype=np.float64)
    _, grads = loss_and_gradients(model, x, x)
    worst = 0.0
    for key, param in model.parameters().items():
        flat = param.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h_step
            plus, _ = loss_and_gradients(model, x, x)
            flat[i] = orig - h_step
            minus, _ = loss_and_gradients(model, x, x)
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * h_step)
            analytic = grads[key].reshape(-1)[i]
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def small_model(seed=5, d=4, h=3, scale=0.6):
    rng = np.random.default_rng(seed)
    return AEModel(
        W=rng.normal(scale=scale, size=(h, d)),
        b=rng.normal(scale=scale, size=h),
        W_out=rng.normal(scale=scale, size=(d, h)),
        b_out=rng.normal(scale=scale, size=d),
    )


def masked_sigmoid(z):
    """The boolean-mask sigmoid the in-place one replaced."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def allocating_adam_step(p, m, v, g, t, config, buf1, buf2):
    """The whole-array Adam update the blocked one replaced."""
    b1, b2, eps = autoencoder._ADAM_BETA1, autoencoder._ADAM_BETA2, autoencoder._ADAM_EPS
    m[...] = b1 * m + (1.0 - b1) * g
    v[...] = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def allocating_loss_and_gradients(model, x_in, target, out=None):
    """The loss and gradients before ``out``: four new gradient arrays a
    call. ``out`` is accepted and ignored, so ``train`` can call it."""
    x_in = np.atleast_2d(np.asarray(x_in, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    n = x_in.shape[0]
    a = x_in @ model.W.T + model.b
    h = sigmoid(a)
    z = h @ model.W_out.T + model.b_out
    loss = autoencoder._cross_entropy_from_logits(z, target) / n
    dz = (sigmoid(z) - target) / n
    grad_W_out = dz.T @ h
    grad_b_out = dz.sum(axis=0)
    dh = (dz @ model.W_out) * h * (1.0 - h)
    grad_W = dh.T @ x_in
    grad_b = dh.sum(axis=0)
    return loss, {"W": grad_W, "b": grad_b, "W_out": grad_W_out, "b_out": grad_b_out}


def fix_settings(patch, **values):
    """Set ``AETrainConfig``'s class constants (``masking_prob``,
    ``learning_rate``, ``batch_size``) through ``patch``, a monkeypatch."""
    for name, value in values.items():
        patch.setattr(AETrainConfig, name, value)


def whole_matrix_encode(model, x):
    """The one-shot encode the blocked one replaced."""
    if sp.issparse(x):
        x = x.toarray()
    return sigmoid(np.asarray(x, dtype=np.float64) @ model.W.T + model.b)


def pipeline_sized_model(seed=0, d=1260, h=1000):
    """The default hidden size over a graded-sized vocabulary, Glorot init."""
    rng = np.random.default_rng(seed)
    lim = np.sqrt(6.0 / (d + h))
    return AEModel(
        W=rng.uniform(-lim, lim, size=(h, d)),
        b=rng.normal(scale=0.1, size=h),
        W_out=np.zeros((d, h)),
        b_out=np.zeros(d),
    )


def tfidf_like_rows(n, d, seed):
    """Sparse non-negative rows with about 15 nonzeros each, L2-normalized."""
    rows = sp.random(n, d, density=15 / d, format="csr", random_state=seed)
    norms = np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1))).ravel()
    return sp.diags(1.0 / np.where(norms > 0, norms, 1.0)) @ rows


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 36.5, -36.5]

    @pytest.mark.parametrize("z", SPECIAL)
    def test_zero_d_matches_masked(self, z):
        want = masked_sigmoid(np.array(z))
        for arg in (np.array(z), z):  # a Python float is taken as 0-d
            got = sigmoid(arg)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert np.array_equal(got, want, equal_nan=True)

    def test_one_and_two_d_match_masked(self):
        rng = np.random.default_rng(8)
        flat = np.concatenate([self.SPECIAL, rng.normal(scale=20.0, size=200)])
        assert np.array_equal(sigmoid(flat), masked_sigmoid(flat), equal_nan=True)
        grid = rng.permutation(np.concatenate([flat, rng.normal(size=9)])).reshape(11, 20)
        assert np.array_equal(sigmoid(grid), masked_sigmoid(grid), equal_nan=True)

    def test_in_place_matches_allocating(self):
        rng = np.random.default_rng(9)
        grid = rng.permutation(
            np.concatenate([self.SPECIAL, rng.normal(scale=20.0, size=209)])
        ).reshape(11, 20)
        want = sigmoid(grid)
        z = grid.copy()
        assert sigmoid(z, out=z) is z
        assert np.array_equal(z, want, equal_nan=True)
        out = np.empty_like(grid)
        assert sigmoid(grid, out=out) is out
        assert np.array_equal(out, want, equal_nan=True)


class TestAdamStep:
    SHAPES = [(37, 53), (41,)]  # 1961 and 41 elements: no block size below divides them

    @pytest.mark.parametrize("block", [1, 7, 16384, 10**6])
    def test_matches_allocating_update(self, monkeypatch, block):
        monkeypatch.setattr(autoencoder, "_ADAM_BLOCK", block)
        fix_settings(monkeypatch, learning_rate=3e-3)
        config = AETrainConfig()
        rng = np.random.default_rng(block)
        for shape in self.SHAPES:
            p = rng.normal(size=shape)
            blocked = [p.copy(), np.zeros(shape), np.zeros(shape)]
            oracle = [p.copy(), np.zeros(shape), np.zeros(shape)]
            buf = min(block, p.size)
            buf1, buf2 = np.empty(buf), np.empty(buf)
            for t in range(1, 6):
                g = rng.normal(scale=10.0 ** rng.integers(-6, 1), size=shape)
                autoencoder._adam_step(*blocked, g, t, config, buf1, buf2)
                allocating_adam_step(*oracle, g, t, config, None, None)
            for got, want in zip(blocked, oracle):
                assert np.array_equal(got, want)


class TestCorrupt:
    def test_zero_probability_is_identity(self, monkeypatch):
        fix_settings(monkeypatch, masking_prob=0.0)
        x = np.linspace(0, 1, 7)
        out = corrupt(x, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_deterministic_per_seed(self):
        x = np.ones(100)
        a = corrupt(x, np.random.default_rng(42))
        b = corrupt(x, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_masking_fraction_concentrates(self):
        x = np.ones(10_000)
        out = corrupt(x, np.random.default_rng(7))
        zeroed = float(np.mean(out == 0))
        assert AETrainConfig.masking_prob == 0.8
        assert abs(zeroed - 0.8) < 0.02

    def test_one_uniform_draw_of_the_input_shape(self):
        # the reproducibility contract: one draw per batch, masking or not
        x = np.linspace(0, 1, 12).reshape(3, 4)
        rng = np.random.default_rng(5)
        out = corrupt(x, rng)
        replay = np.random.default_rng(5)
        assert np.array_equal(out, x * (replay.random((3, 4)) >= 0.8))
        assert rng.random() == replay.random()


class TestAEModel:
    @pytest.mark.parametrize("name", ["W", "b", "W_out", "b_out"])
    def test_inconsistent_shapes_are_rejected(self, name):
        params = small_model().parameters()
        params[name] = params[name][..., :-1]
        with pytest.raises(DataError, match="^inconsistent autoencoder parameter shapes$"):
            AEModel(**params)

    @pytest.mark.parametrize("name", ["W", "b", "W_out", "b_out"])
    def test_non_finite_parameters_are_rejected(self, name):
        params = small_model().parameters()
        params[name].flat[0] = np.inf
        with pytest.raises(DataError, match="^autoencoder parameters must be finite$"):
            AEModel(**params)


class TestEncode:
    def test_zero_input_gives_sigmoid_bias(self):
        model = small_model()
        out = encode(model.W, model.b, np.zeros(4))
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-model.b)), atol=1e-12)

    def test_zero_model_gives_half(self):
        model = AEModel(W=np.zeros((3, 4)), b=np.zeros(3), W_out=np.zeros((4, 3)),
                        b_out=np.zeros(4))
        assert np.allclose(encode(model.W, model.b, np.ones(4)), 0.5, atol=1e-15)

    def test_matches_matrix_multiply_oracle(self):
        model = small_model(seed=11)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.random(4)
            expected = 1.0 / (1.0 + np.exp(-(model.W @ x + model.b)))
            assert np.allclose(encode(model.W, model.b, x), expected, atol=1e-9)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(19)
        for seed in range(5):
            model = small_model(seed=seed, d=8, h=6, scale=1.5)
            batch = rng.random((40, 8))
            codes = encode(model.W, model.b, batch)
            assert np.all(codes > 0.0) and np.all(codes < 1.0)

    def test_dim_mismatch(self):
        model = small_model()
        with pytest.raises(DataError):
            encode(model.W, model.b, np.zeros(9))

    def test_dim_mismatch_sparse(self):
        model = small_model()
        with pytest.raises(DataError):
            encode(model.W, model.b, sp.csr_matrix(np.zeros((2, 9))))


class TestBlockedEncode:
    """Blocked encode against the whole-matrix expression, bit for bit, at the
    pipeline's sizes (d=1260, h=1000; see the ``encode`` docstring)."""

    @pytest.fixture(scope="class")
    def model(self):
        return pipeline_sized_model()

    @pytest.fixture(scope="class")
    def rows(self):
        return tfidf_like_rows(2 * 256 + 1, 1260, seed=3)

    @pytest.mark.parametrize("block", [2, 3, 7, 256])
    def test_matches_whole_matrix(self, monkeypatch, model, rows, block):
        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", block)
        for n in sorted({1, 2, block - 1, block, block + 1, 2 * block + 1} - {0}):
            part = rows[:n]
            want = whole_matrix_encode(model, part)
            for x in (part.toarray(), part, part.tocoo()):
                got = encode(model.W, model.b, x)
                assert got.shape == (n, model.W.shape[0])
                assert np.array_equal(got, want), (n, type(x).__name__)
        # a 1-D input is one row and gives one row of codes
        got = encode(model.W, model.b, rows[5].toarray()[0])
        assert got.shape == (1, model.W.shape[0])
        assert np.array_equal(got, whole_matrix_encode(model, rows[5]))

    def test_integer_sparse_input(self, model):
        x = sp.random(9, 1260, density=0.01, format="csr", random_state=4,
                      data_rvs=lambda k: np.ones(k, dtype=np.int64))
        x = x.astype(np.int64)
        assert np.array_equal(encode(model.W, model.b, x), whole_matrix_encode(model, x))

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 256])
    def test_row_blocks_split_evenly(self, monkeypatch, block):
        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", block)
        for n in range(0, 3 * block + 3):
            blocks = list(autoencoder._row_blocks(n))
            sizes = [stop - start for start, stop in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) - min(sizes) <= 1
            if n <= block:
                assert blocks == [(0, n)]
            if n >= 2:
                assert min(sizes) >= 2  # never a 1-row (gemv) product
            if block >= 4:
                assert len(blocks) == -(-n // block) or n <= block

    def test_reruns_identical_at_non_default_hidden(self):
        # At h=500 blocked codes may differ from a whole-matrix product in the
        # last bits (see ``encode``), but train + encode reruns are identical.
        x = tfidf_like_rows(2 * 256 + 1, 1281, seed=6)
        config = AETrainConfig(epochs=1, hidden_dim=500, seed=3)
        models = [train(x, config)[0] for _ in range(2)]
        runs = [encode(model.W, model.b, x) for model in models]
        assert runs[0].shape == (2 * 256 + 1, 500)
        assert np.array_equal(runs[0], runs[1])

    def test_peak_memory_is_block_sized(self):
        # Encoding whole densified the input (n x d) and held three (n x h)
        # arrays; in row blocks the traced peak above the codes must stay
        # under a quarter of one dense (n x h) temporary.
        n, d, h = 4000, 1300, 1000
        model = pipeline_sized_model(d=d, h=h)
        x = tfidf_like_rows(n, d, seed=5)
        tracemalloc.start()
        try:
            codes = encode(model.W, model.b, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert codes.shape == (n, h)
        assert peak - codes.nbytes < n * h * 8 / 4


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

    @pytest.mark.parametrize("n, d, h", [(1, 4, 3), (5, 4, 3), (64, 300, 200)])
    def test_out_receives_the_allocating_gradients(self, n, d, h):
        model = small_model(seed=n, d=d, h=h, scale=0.3)
        rng = np.random.default_rng(n)
        target = rng.random((n, d))
        x_in = target * (rng.random((n, d)) >= 0.5)
        if n == 1:
            x_in, target = x_in[0], target[0]  # a 1-D input is one row
        want_loss, want = allocating_loss_and_gradients(model, x_in, target)
        out = {k: np.full(v.shape, np.nan) for k, v in model.parameters().items()}
        buffers = dict(out)
        loss, got = loss_and_gradients(model, x_in, target, out=out)
        assert got is out and loss == want_loss
        for key, value in want.items():
            assert got[key] is buffers[key]
            assert np.array_equal(got[key], value), key
        loss, fresh = loss_and_gradients(model, x_in, target)
        assert loss == want_loss
        for key, value in want.items():
            assert np.array_equal(fresh[key], value), key


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("hidden_dim", 0),
            ("hidden_dim", -3),
            ("hidden_dim", float("nan")),
            ("epochs", 0),
        ],
    )
    def test_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            AETrainConfig(**{field: value})

    def test_smallest_accepted(self):
        config = AETrainConfig(hidden_dim=1, epochs=1)
        assert config.hidden_dim == 1

    def test_fixed_settings_are_constants(self):
        config = AETrainConfig()
        assert {f.name for f in fields(config)} == {"epochs", "hidden_dim", "seed"}
        assert (config.masking_prob, config.learning_rate, config.batch_size) == (0.8, 1e-3, 64)


class TestTrain:
    def test_loss_decreases_on_repeated_vector(self, monkeypatch):
        x = np.tile(np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3]), (16, 1))
        fix_settings(monkeypatch, masking_prob=0.2, batch_size=4)
        config = AETrainConfig(epochs=12, hidden_dim=3, seed=0)
        _, losses = train(x, config)
        assert losses[-1] < losses[0]

    def test_loss_trend_with_heavy_masking(self, monkeypatch):
        rng = np.random.default_rng(21)
        data = rng.random((20, 12))
        fix_settings(monkeypatch, batch_size=4)  # masking at its 0.8
        config = AETrainConfig(epochs=15, hidden_dim=6, seed=3)
        _, losses = train(data, config)
        assert np.mean(losses[-5:]) <= np.mean(losses[:5])

    def test_bit_reproducible(self, monkeypatch):
        rng = np.random.default_rng(2)
        data = rng.random((10, 5))
        fix_settings(monkeypatch, masking_prob=0.5, batch_size=3)
        config = AETrainConfig(epochs=3, hidden_dim=4, seed=9)
        model_a, losses_a = train(data, config)
        model_b, losses_b = train(data, config)
        assert losses_a == losses_b
        for key, value in model_a.parameters().items():
            assert np.array_equal(value, model_b.parameters()[key])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence is the point
    def test_nonfinite_loss_aborts(self, monkeypatch):
        data = np.random.default_rng(0).random((8, 4))
        fix_settings(monkeypatch, masking_prob=0.0, batch_size=4, learning_rate=1e308)
        config = AETrainConfig(epochs=3, hidden_dim=2, seed=0)
        with pytest.raises(NumericalError):
            train(data, config)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            train(np.zeros((0, 3)), AETrainConfig(epochs=1, hidden_dim=2))

    def test_training_replay_oracle(self, monkeypatch):
        """Independent step-by-step re-implementation with the same seed schedule."""
        d, h, n = 6, 3, 20
        rng_data = np.random.default_rng(100)
        data = rng_data.random((n, d))
        fix_settings(monkeypatch, masking_prob=0.3, batch_size=5)
        config = AETrainConfig(epochs=4, seed=123, hidden_dim=h)
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

    def test_bit_identical_to_masked_sigmoid_and_allocating_adam(self, monkeypatch):
        shape = dict(docs_per_label=10, lexicon_size=10, shared_vocab_size=25,
                     private_vocab_size=8, doc_length=(3, 12))
        corpus = generate(
            [DomainSpec(name="near", overlap=0.7, seed=1, **shape)],
            DomainSpec(name="tgt", seed=2, **shape),
        )
        encoded = tokenize_corpus(corpus, frozenset())
        monkeypatch.setattr(corpus_module, "VOCAB_CAP", 50)
        features = ae_input_features(encoded, build_vocabulary(encoded))
        fix_settings(monkeypatch, masking_prob=0.5, learning_rate=1e-2, batch_size=7)
        config = AETrainConfig(epochs=3, seed=4, hidden_dim=9)
        monkeypatch.setattr(autoencoder, "_ADAM_BLOCK", 13)
        model, losses = train(features, config)
        monkeypatch.setattr(autoencoder, "sigmoid", masked_sigmoid)
        monkeypatch.setattr(autoencoder, "_adam_step", allocating_adam_step)
        oracle_model, oracle_losses = train(features, config)
        assert losses == oracle_losses
        for key, value in model.parameters().items():
            assert np.array_equal(value, oracle_model.parameters()[key])

    def test_bit_identical_to_allocating_gradients(self, monkeypatch):
        data = tfidf_like_rows(30, 40, seed=8)
        fix_settings(monkeypatch, masking_prob=0.5, learning_rate=1e-2)
        for batch_size in (7, 10):  # a short last batch of 2, and none
            fix_settings(monkeypatch, batch_size=batch_size)
            config = AETrainConfig(epochs=3, seed=5, hidden_dim=9)
            model, losses = train(data, config)
            with monkeypatch.context() as patch:
                patch.setattr(autoencoder, "loss_and_gradients", allocating_loss_and_gradients)
                oracle_model, oracle_losses = train(data, config)
            assert losses == oracle_losses
            for key, value in model.parameters().items():
                assert np.array_equal(value, oracle_model.parameters()[key]), (batch_size, key)

    def test_peak_memory_holds_one_gradient_set(self):
        # Allocating every batch's gradients kept the previous batch's set
        # alive while the next was built; with buffers, the traced peak
        # above the parameters and Adam moments stays under 1.5 gradient sets.
        n, d, h = 192, 1300, 1000
        x = tfidf_like_rows(n, d, seed=7)
        params = (2 * h * d + h + d) * 8
        tracemalloc.start()
        try:
            model, _ = train(x, AETrainConfig(epochs=1, hidden_dim=h, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.W.shape[1] == d
        assert (peak - 3 * params) / params < 1.5

    def test_coo_input_matches_dense(self, monkeypatch):
        data = tfidf_like_rows(30, 40, seed=6)
        fix_settings(monkeypatch, masking_prob=0.5, batch_size=4)
        config = AETrainConfig(epochs=2, hidden_dim=5, seed=2)
        model, losses = train(data.tocoo(), config)
        dense_model, dense_losses = train(data.toarray(), config)
        assert losses == dense_losses
        for key, value in model.parameters().items():
            assert np.array_equal(value, dense_model.parameters()[key])

    def test_out_of_range_data_rejected(self):
        # encode() never rescales its input, so training must not either
        config = AETrainConfig(epochs=1, hidden_dim=2, seed=0)
        for bad in (5.0, -0.5, np.nan):
            data = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, bad]])
            with pytest.raises(DataError, match=r"\[0, 1\]"):
                train(data, config)
        with pytest.raises(DataError):
            train(sp.csr_matrix([[0.0, 2.0], [1.0, 0.0]]), config)
