import numpy as np
import pytest

from samattr.errors import InvalidInputError
from samattr import model as mod
from samattr.model import Dataset, ModelSpec


def tiny_dataset(n=12, d=3, C=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, C, size=n)
    return Dataset(features=X, labels=y)


def fd_gradient(spec, params, dataset, indices, h=1e-6):
    g = np.zeros_like(params)
    for i in range(params.size):
        e = np.zeros_like(params)
        e[i] = h
        lp, _ = mod.subset_loss_grad(spec, params + e, dataset, indices, 1.0)
        lm, _ = mod.subset_loss_grad(spec, params - e, dataset, indices, 1.0)
        g[i] = (lp - lm) / (2.0 * h)
    return g


class TestModelSpec:
    def test_param_count_logistic(self):
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 4))
        assert spec.param_count == 3 * 4 + 4

    def test_param_count_mlp(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(5, 7, 3))
        assert spec.param_count == 5 * 7 + 7 + 7 * 3 + 3

    def test_rejects_single_output(self):
        with pytest.raises(InvalidInputError):
            ModelSpec(kind="logistic", layer_sizes=(3, 1))

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            ModelSpec(kind="linear", layer_sizes=(3, 2))

    def test_logistic_rejects_hidden_layers(self):
        with pytest.raises(InvalidInputError):
            ModelSpec(kind="logistic", layer_sizes=(3, 4, 2))

    @pytest.mark.parametrize("kwargs,message", [
        (dict(activation="sigmoid"), "unknown activation 'sigmoid'"),
        (dict(layer_sizes=(3,)), r"bad layer_sizes \(3,\)"),
        (dict(layer_sizes=(3, 0, 2)), r"bad layer_sizes \(3, 0, 2\)"),
    ], ids=["activation", "one-size", "zero-size"])
    def test_rejects_bad_activation_and_sizes(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            ModelSpec(**{"kind": "mlp", "layer_sizes": (3, 4, 2), **kwargs})


class TestDataset:
    def test_default_split_is_train(self):
        ds = tiny_dataset(5)
        assert ds.indices("train").size == 5
        assert ds.indices("val").size == 0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset(features=np.zeros((3, 2)), labels=np.zeros(4, dtype=int))

    def test_nonfinite_features(self):
        with pytest.raises(InvalidInputError):
            Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]))

    @pytest.mark.parametrize("n,labels,split,message", [
        (0, [], None, "dataset must contain at least one row"),
        (2, [0, -1], None, "negative label"),
        (2, [0, 1], ["train"], "split tag count mismatch"),
    ], ids=["no-rows", "negative-label", "split-count"])
    def test_rejects_bad_rows(self, n, labels, split, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            Dataset(features=np.zeros((n, 2)), labels=np.array(labels, dtype=np.int64),
                    split=split)


class TestLossGrad:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(kind="logistic", layer_sizes=(3, 3)),
            ModelSpec(kind="mlp", layer_sizes=(3, 5, 3), activation="tanh"),
            ModelSpec(kind="mlp", layer_sizes=(3, 5, 3), activation="relu"),
        ],
        ids=["logistic", "mlp-tanh", "mlp-relu"],
    )
    def test_gradient_matches_finite_differences(self, spec):
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=1)
        idx = np.arange(ds.n)
        _, g = mod.subset_loss_grad(spec, params, ds, idx, 1.0)
        g_fd = fd_gradient(spec, params, ds, idx)
        assert np.abs(g - g_fd).max() < 1e-4 * max(1.0, np.abs(g).max())

    def test_uniform_predictions_at_zero_params(self):
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 4))
        ds = tiny_dataset(C=4)
        loss, _ = mod.subset_loss_grad(spec, np.zeros(spec.param_count), ds, [0], 1.0)
        assert loss == pytest.approx(np.log(4.0))

    def test_scale_is_linear(self):
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 3))
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=2)
        idx = np.arange(ds.n)
        l1, g1 = mod.subset_loss_grad(spec, params, ds, idx, 1.0)
        l3, g3 = mod.subset_loss_grad(spec, params, ds, idx, 3.0)
        assert l3 == pytest.approx(3.0 * l1)
        np.testing.assert_allclose(g3, 3.0 * g1, rtol=1e-14)

    def test_batch_equals_sum_of_examples(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(3, 4, 3))
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=3)
        idx = np.arange(ds.n)
        loss, g = mod.subset_loss_grad(spec, params, ds, idx, 1.0)
        loss_sum, g_sum = 0.0, np.zeros_like(g)
        for i in idx:
            li, gi = mod.subset_loss_grad(spec, params, ds, i, 1.0)
            loss_sum += li
            g_sum += gi
        assert loss == pytest.approx(loss_sum, rel=1e-12)
        np.testing.assert_allclose(g, g_sum, rtol=1e-12, atol=1e-14)

    def test_label_out_of_range(self):
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        ds = tiny_dataset(C=3)  # labels up to 2, model only has 2 outputs
        params = mod.init_params(spec, seed=0)
        with pytest.raises(InvalidInputError):
            mod.subset_loss_grad(spec, params, ds, np.arange(ds.n), 1.0)


HVP_SPECS = [
    ModelSpec(kind="logistic", layer_sizes=(3, 3)),
    ModelSpec(kind="mlp", layer_sizes=(3, 4, 3), activation="tanh"),
    ModelSpec(kind="mlp", layer_sizes=(3, 4, 3), activation="relu"),
    ModelSpec(kind="mlp", layer_sizes=(3, 4, 4, 3), activation="tanh"),
]
HVP_IDS = ["logistic", "mlp-tanh", "mlp-relu", "mlp2-tanh"]


class TestHVP:
    @pytest.mark.parametrize("spec", HVP_SPECS, ids=HVP_IDS)
    def test_matches_gradient_finite_differences(self, spec):
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=5)
        idx = np.arange(ds.n)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(spec.param_count)
        hv = mod.hvp(spec, params, ds, idx, v, 1.0)
        h = 1e-5
        _, gp = mod.subset_loss_grad(spec, params + h * v, ds, idx, 1.0)
        _, gm = mod.subset_loss_grad(spec, params - h * v, ds, idx, 1.0)
        hv_fd = (gp - gm) / (2.0 * h)
        assert np.abs(hv - hv_fd).max() < 1e-6 * max(1.0, np.abs(hv).max())

    def test_linearity_in_v(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(3, 4, 3))
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=7)
        idx = np.arange(ds.n)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(spec.param_count)
        v = rng.standard_normal(spec.param_count)
        lhs = mod.hvp(spec, params, ds, idx, 2.0 * u - 3.0 * v, 1.0)
        rhs = 2.0 * mod.hvp(spec, params, ds, idx, u, 1.0) - 3.0 * mod.hvp(
            spec, params, ds, idx, v, 1.0
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_symmetry(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(3, 4, 3))
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=9)
        idx = np.arange(ds.n)
        rng = np.random.default_rng(10)
        u = rng.standard_normal(spec.param_count)
        v = rng.standard_normal(spec.param_count)
        uhv = float(u @ mod.hvp(spec, params, ds, idx, v, 1.0))
        vhu = float(v @ mod.hvp(spec, params, ds, idx, u, 1.0))
        assert abs(uhv - vhu) < 1e-10 * max(1.0, abs(uhv))

    def test_zero_vector(self):
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 3))
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=11)
        hv = mod.hvp(spec, params, ds, np.arange(ds.n), np.zeros(spec.param_count), 1.0)
        assert np.all(hv == 0.0)


class TestHVPOperator:
    @pytest.mark.parametrize(
        "spec",
        HVP_SPECS + [ModelSpec(kind="mlp", layer_sizes=(3, 4, 4, 3), activation="relu")],
        ids=HVP_IDS + ["mlp2-relu"],
    )
    def test_applications_are_bitwise_hvp(self, spec):
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=13)
        idx = np.array([0, 2, 3, 5, 7, 8, 11])
        V = np.random.default_rng(14).standard_normal((17, spec.param_count))
        V[4] = 0.0
        V[5, ::2] = -0.0
        apply_H = mod.hvp_operator(spec, params, *mod._rows(spec, ds, idx, "hvp"), 0.3)[1]
        for v in (V[0], V[:1], V):
            out = apply_H(v)
            assert out.shape == v.shape
            assert out.tobytes() == mod.hvp(spec, params, ds, idx, v, 0.3).tobytes()
            # Applying again sees an operator its first application left intact.
            assert apply_H(v).tobytes() == out.tobytes()
        block = apply_H(V)
        for i, v in enumerate(V):
            assert apply_H(v).tobytes() == block[i].tobytes()
            assert apply_H(V[i : i + 1]).tobytes() == block[i : i + 1].tobytes()

    def test_checks_rows_when_built_and_tangents_when_applied(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(3, 4, 3))
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=15)
        with pytest.raises(InvalidInputError, match="out of range"):
            mod.hvp(spec, params, ds, [0, ds.n], np.zeros(spec.param_count))
        apply_H = mod.hvp_operator(spec, params, *mod._rows(spec, ds, [0, 1], "hvp"))[1]
        for bad in (np.zeros(spec.param_count - 1), np.zeros((2, 2, spec.param_count))):
            with pytest.raises(InvalidInputError, match="tangent vector length"):
                apply_H(bad)


class TestPredict:
    def test_tie_breaks_to_smallest_class(self):
        spec = ModelSpec(kind="logistic", layer_sizes=(2, 3))
        # Zero parameters give identical logits for every class.
        label, logits = mod.predict(spec, np.zeros(spec.param_count), np.ones(2))
        assert label == 0
        assert np.ptp(logits) == 0.0

    def test_predict_labels_matches_predict(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(3, 4, 3))
        ds = tiny_dataset()
        params = mod.init_params(spec, seed=12)
        batch = mod.predict_labels(spec, params, ds.features)
        single = [mod.predict(spec, params, x)[0] for x in ds.features]
        assert batch.tolist() == single

    def test_feature_dimension_mismatch_is_invalid_input(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(20, 32, 4))
        params = mod.init_params(spec, seed=3)
        ds = Dataset(np.zeros((3, 7)), np.zeros(3), np.full(3, "test", dtype=object))
        for call in (lambda: mod.predict(spec, params, np.zeros(7)),
                     lambda: mod.predict_labels(spec, params, np.zeros((3, 7))),
                     lambda: mod.accuracy(spec, params, ds, "test")):
            with pytest.raises(InvalidInputError, match="^feature dimension 7 != model input 20$"):
                call()

    def test_accuracy_perfect_on_memorized_direction(self):
        # A logistic model whose weights point along the class means
        # separates two well-separated blobs.
        spec = ModelSpec(kind="logistic", layer_sizes=(2, 2))
        X = np.vstack([np.full((5, 2), -3.0), np.full((5, 2), 3.0)])
        y = np.array([0] * 5 + [1] * 5)
        ds = Dataset(features=X, labels=y, split=np.full(10, "test", dtype=object))
        params = np.array([-1.0, -1.0, 1.0, 1.0, 0.0, 0.0])
        assert mod.accuracy(spec, params, ds, "test") == 1.0

    def test_init_params_seeded(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(4, 3, 2))
        a = mod.init_params(spec, seed=5)
        b = mod.init_params(spec, seed=5)
        c = mod.init_params(spec, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # Biases are zero at initialization.
        layers = mod._unpack_rows(spec, a)
        for _, bias in layers:
            assert np.all(bias == 0.0)
