"""Engine tests: forward/backward against finite differences, AdamW
behavior, global magnitude pruning, and checkpoint format guarantees."""

import numpy as np
import pytest

from randmark import nnengine as ne


def _loss_quadratic(targets):
    """Squared-error loss against fixed targets, with its gradient."""

    def loss(net, x):
        out, _ = ne.forward_batch(net, x)
        return float(((out - targets) ** 2).sum())

    def grad(net, x):
        out, trace = ne.forward_batch(net, x)
        return ne.backward(net, trace, 2.0 * (out - targets))

    return loss, grad


class TestForward:
    def test_identity_layer_passthrough(self):
        net = ne.MlpNetwork([ne.Layer(np.eye(4), np.zeros(4), "identity")])
        v = np.array([[0.3, -1.2, 5.0, 0.0]])
        out, _ = ne.forward_batch(net, v)
        assert np.array_equal(out, v)

    def test_hand_computed_affine(self):
        net = ne.MlpNetwork(
            [ne.Layer(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]), "identity")]
        )
        out, _ = ne.forward_batch(net, np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[3.0, 2.0]])

    def test_relu_clamps_negatives(self):
        net = ne.MlpNetwork([ne.Layer(np.eye(3), np.zeros(3), "relu")])
        out, _ = ne.forward_batch(net, np.array([[-5.0, 0.0, 5.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 5.0]])

    def test_dimension_mismatch_rejected(self):
        net = ne.init_network([4, 2], ["identity"], 0)
        with pytest.raises(ValueError):
            ne.forward_batch(net, np.ones((1, 3)))
        with pytest.raises(ValueError):
            ne.forward_batch(net, np.ones(4))  # a bare vector is not a batch

    def test_deterministic_bit_identical(self):
        net = ne.init_network([6, 5, 3], ["tanh", "sigmoid"], 1)
        x = np.random.default_rng(2).random((1, 6))
        a, _ = ne.forward_batch(net, x)
        b, _ = ne.forward_batch(net, x)
        assert np.array_equal(a, b)


class TestBackward:
    def test_zero_output_gradient_gives_zero_grads(self):
        net = ne.init_network([4, 3, 2], ["tanh", "identity"], 3)
        _, trace = ne.forward_batch(net, np.ones((1, 4)))
        grads = ne.backward(net, trace, np.zeros(2))
        assert all(np.all(g == 0.0) for g in grads.weights)
        assert all(np.all(g == 0.0) for g in grads.biases)

    def test_linear_net_squared_error_matches_fd(self):
        rng = np.random.default_rng(4)
        net = ne.init_network([3, 2], ["identity"], rng)
        x = rng.random((1, 3))
        targets = rng.random((1, 2))
        loss, grad = _loss_quadratic(targets)
        err = ne.gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
        assert err < 1e-6

    def test_three_layer_tanh_matches_fd(self):
        rng = np.random.default_rng(5)
        net = ne.init_network([4, 5, 4, 2], ["tanh", "tanh", "tanh"], rng)
        x = rng.random((3, 4))
        targets = rng.random((3, 2))
        loss, grad = _loss_quadratic(targets)
        err = ne.gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
        assert err < 1e-5

    def test_random_small_nets_match_fd(self):
        rng = np.random.default_rng(6)
        acts = ["tanh", "sigmoid", "identity"]
        for trial in range(8):
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
            layer_acts = [acts[int(rng.integers(0, 3))] for _ in range(depth)]
            net = ne.init_network(dims, layer_acts, rng)
            x = rng.standard_normal((2, dims[0]))
            targets = rng.standard_normal((2, dims[-1]))
            loss, grad = _loss_quadratic(targets)
            err = ne.gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
            assert err < 1e-5, f"trial {trial}: {err}"

    def test_skipped_input_gradient_keeps_parameter_gradients(self):
        rng = np.random.default_rng(9)
        for dims, acts in (([5, 4, 3], ["tanh", "identity"]), ([6, 2], ["sigmoid"])):
            net = ne.init_network(dims, acts, rng)
            _, trace = ne.forward_batch(net, rng.standard_normal((7, dims[0])))
            g_out = rng.standard_normal((7, dims[-1]))
            full = ne.backward(net, trace, g_out)
            skipped = ne.backward(net, trace, g_out, wrt_input=False)
            for a, b in zip(full.weights + full.biases, skipped.weights + skipped.biases):
                assert a.tobytes() == b.tobytes()
            assert full.wrt_input.shape == (7, dims[0])
            assert skipped.wrt_input.shape == (7, 0)

    def test_trace_mismatch_rejected(self):
        net_a = ne.init_network([4, 3], ["tanh"], 7)
        net_b = ne.init_network([4, 4, 3], ["tanh", "identity"], 8)
        _, trace = ne.forward_batch(net_a, np.ones((1, 4)))
        with pytest.raises(ValueError):
            ne.backward(net_b, trace, np.ones(3))


def _ref_activate(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _ref_activation_grad(name, pre, activated):
    if name == "identity":
        return np.ones_like(pre)
    if name == "relu":
        return (pre > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - activated * activated
    return activated * (1.0 - activated)


def _ref_forward(net, x):
    """Reference forward pass, one fresh array per operation, keeping the
    pre-activations: (activations, pre-activations)."""
    activations, pres = [x], []
    for layer in net.layers:
        z = x @ layer.weight + layer.bias
        x = _ref_activate(layer.activation, z)
        pres.append(z)
        activations.append(x)
    return activations, pres


def _ref_backward(net, activations, pres, g):
    """Reference backward pass: (weight grads, bias grads, input grad)."""
    grads_w, grads_b = [None] * len(net.layers), [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        dz = g * _ref_activation_grad(layer.activation, pres[i], activations[i + 1])
        grads_w[i] = activations[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        g = dz @ layer.weight.T
    return grads_w, grads_b, g


# Row values that reach a layer's activation unchanged through an identity
# weight matrix and zero bias: signed zeros, magnitudes near the float64
# limit, ordinary values.
_SPECIAL_ROW = np.array([-0.0, 0.0, 1e300, -1e300, 0.5, -2.0])


def _engine_cases(act, rows):
    """(net, inputs) pairs for one activation and batch size: a random
    three-layer net, and a one-layer identity-weight net whose inputs are
    the special row, a NaN row and random rows."""
    rng = np.random.default_rng(100 + rows)
    net = ne.init_network([5, 4, 3, 2], [act] * 3, rng)
    yield net, 3.0 * rng.standard_normal((rows, 5))
    special = np.vstack([_SPECIAL_ROW, np.full(6, np.nan), 4.0 * rng.standard_normal((5, 6))])
    yield ne.MlpNetwork([ne.Layer(np.eye(6), np.zeros(6), act)]), special[:rows]


class TestInPlaceKernels:
    """forward_batch and backward write bias, activation and activation
    derivative in place; every result must equal the one-array-per-operation
    reference byte for byte."""

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_forward_and_backward_match_reference_bytes(self, act, rows):
        for net, x in _engine_cases(act, rows):
            ref_acts, ref_pres = _ref_forward(net, x)
            out, trace = ne.forward_batch(net, x)
            assert out.tobytes() == ref_acts[-1].tobytes()
            assert len(trace.activations) == len(ref_acts)
            for a, ref in zip(trace.activations, ref_acts):
                assert a.tobytes() == ref.tobytes()
            g = np.random.default_rng(rows).standard_normal(out.shape)
            ref_w, ref_b, ref_in = _ref_backward(net, ref_acts, ref_pres, g)
            grads = ne.backward(net, trace, g)
            for got, ref in zip(grads.weights + grads.biases, ref_w + ref_b):
                assert got.tobytes() == ref.tobytes()
            assert grads.wrt_input.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_backward_from_activation_at_special_pre_activations(self, act):
        # pre-activations no matmul produces (-0.0) next to infinities, NaN
        # and near-limit magnitudes, fed to backward through a hand-built trace
        pre = np.array([[-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 0.7]])
        net = ne.MlpNetwork([ne.Layer(np.eye(8), np.zeros(8), act)])
        x = np.linspace(-1.0, 1.0, 8)[None, :]
        a = _ref_activate(act, pre.copy())
        g = np.array([[1.5, -1.5, 2.0, -2.0, 0.25, -0.25, 3.0, -0.0]])
        ref_w, ref_b, ref_in = _ref_backward(net, [x, a], [pre], g)
        grads = ne.backward(net, ne.ForwardTrace([x, a]), g)
        assert grads.weights[0].tobytes() == ref_w[0].tobytes()
        assert grads.biases[0].tobytes() == ref_b[0].tobytes()
        assert grads.wrt_input.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_inputs_and_output_gradient_left_unmodified(self, act):
        rng = np.random.default_rng(11)
        for net in (
            ne.init_network([4, 3, 3], [act, act], rng),
            ne.MlpNetwork([ne.Layer(np.eye(3), np.zeros(3), act)]),
        ):
            x = rng.standard_normal((7, net.input_dim))
            x_before = x.copy()
            _, trace = ne.forward_batch(net, x)
            assert x.tobytes() == x_before.tobytes()
            for wrt_input in (True, False):
                g = rng.standard_normal((7, net.output_dim))
                g_before = g.copy()
                ne.backward(net, trace, g, wrt_input=wrt_input)
                assert g.tobytes() == g_before.tobytes()
            one = rng.standard_normal(net.input_dim)
            _, trace = ne.forward_batch(net, one[None, :])
            g = rng.standard_normal(net.output_dim)
            g_before = g.copy()
            ne.backward(net, trace, g)
            assert g.tobytes() == g_before.tobytes()


class TestGradientCheck:
    def test_linear_loss_near_machine_precision(self):
        rng = np.random.default_rng(9)
        net = ne.init_network([3, 2], ["identity"], rng)
        x = rng.random((1, 3))
        weights = rng.random(2)

        def loss(n):
            out, _ = ne.forward_batch(n, x)
            return float((out @ weights)[0])

        def grad(n):
            _, trace = ne.forward_batch(n, x)
            return ne.backward(n, trace, weights[None, :])

        assert ne.gradient_check(net, loss, grad) < 1e-9

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(10)
        net = ne.init_network([3, 3, 2], ["tanh", "identity"], rng)
        x = rng.random((1, 3))
        targets = rng.random((1, 2))
        loss, grad = _loss_quadratic(targets)

        def corrupted(n):
            g = grad(n, x)
            g.weights[0][0, 0] *= 2.0  # one entry doubled
            return g

        assert ne.gradient_check(net, lambda n: loss(n, x), corrupted) > 0.1

    def test_non_finite_loss_fatal(self):
        net = ne.init_network([2, 2], ["identity"], 11)
        with pytest.raises(ValueError):
            ne.gradient_check(net, lambda n: float("nan"), lambda n: None)


class TestOptimizer:
    def test_zero_gradients_leave_parameters_unchanged(self):
        net = ne.init_network([3, 2], ["identity"], 12)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net, lr=0.1, weight_decay=0.0)
        grads = ne.Gradients(
            [np.zeros_like(l.weight) for l in net.layers],
            [np.zeros_like(l.bias) for l in net.layers],
        )
        ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        # Bias-corrected moments make the very first update lr * sign(g).
        net = ne.MlpNetwork([ne.Layer(np.array([[1.0]]), np.zeros(1), "identity")])
        state = ne.OptimizerState.fresh(net, lr=0.05)
        grads = ne.Gradients([np.array([[0.3]])], [np.zeros(1)])
        ne.optimizer_step(net, grads, state)
        drop = 1.0 - net.layers[0].weight[0, 0]
        assert abs(drop - 0.05) < 1e-6 * 0.05

    def test_quadratic_bowl_converges(self):
        rng = np.random.default_rng(13)
        net = ne.MlpNetwork(
            [ne.Layer(rng.standard_normal((1, 8)), np.zeros(8), "identity")]
        )
        target = rng.standard_normal((1, 8))
        state = ne.OptimizerState.fresh(net, lr=0.05)
        losses = []
        for _ in range(500):
            diff = net.layers[0].weight - target
            losses.append(float((diff**2).sum()))
            grads = ne.Gradients([2.0 * diff], [np.zeros(8)])
            ne.optimizer_step(net, grads, state)
        diff = net.layers[0].weight - target
        losses.append(float((diff**2).sum()))
        assert losses[-1] < 1e-6
        burn_in = 300
        tail = losses[burn_in:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_non_finite_gradients_rejected(self):
        net = ne.init_network([2, 2], ["identity"], 14)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net)
        grads = ne.Gradients(
            [np.full_like(net.layers[0].weight, np.nan)], [np.zeros(2)]
        )
        with pytest.raises(ValueError, match="non-finite"):
            ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 0

    def test_bias_list_of_wrong_length_rejected(self):
        net = ne.init_network([3, 2, 2], ["tanh", "identity"], 15)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net)
        grads = ne.Gradients(
            [np.ones_like(l.weight) for l in net.layers], [np.ones_like(net.layers[0].bias)]
        )
        with pytest.raises(ValueError, match="depth"):
            ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 0


class TestPruning:
    def test_fraction_zero_is_identity(self):
        net = ne.init_network([5, 4, 3], ["tanh", "identity"], 15)
        assert ne.l1_unstructured_prune(net, 0.0).parameters_digest() == net.parameters_digest()

    def test_hand_ranked_example(self):
        net = ne.MlpNetwork(
            [ne.Layer(np.array([[0.1, -0.5], [0.3, -0.05]]), np.zeros(2), "identity")]
        )
        pruned = ne.l1_unstructured_prune(net, 0.5)
        assert np.array_equal(pruned.layers[0].weight, [[0.0, -0.5], [0.3, 0.0]])

    def test_desk_backbone_exact_sparsity(self):
        net = ne.init_network([256, 192, 64], ["tanh", "identity"], 16)
        for fraction in (0.2, 0.4):
            assert ne.l1_unstructured_prune(net, fraction).sparsity() == fraction

    def test_biases_exempt(self):
        net = ne.init_network([4, 3], ["identity"], 17)
        net.layers[0].bias += 1e-9  # tiny biases would be pruned first otherwise
        pruned = ne.l1_unstructured_prune(net, 0.99)
        assert np.array_equal(pruned.layers[0].bias, net.layers[0].bias)

    def test_idempotent_at_same_fraction(self):
        net = ne.init_network([6, 5, 4], ["tanh", "identity"], 18)
        once = ne.l1_unstructured_prune(net, 0.3)
        twice = ne.l1_unstructured_prune(once, 0.3)
        assert once.parameters_digest() == twice.parameters_digest()

    def test_sparsity_monotone_in_fraction(self):
        net = ne.init_network([6, 5, 4], ["tanh", "identity"], 19)
        fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
        sparsities = [ne.l1_unstructured_prune(net, q).sparsity() for q in fractions]
        assert all(a <= b for a, b in zip(sparsities, sparsities[1:]))

    def test_fraction_out_of_range_rejected(self):
        net = ne.init_network([3, 2], ["identity"], 20)
        with pytest.raises(ValueError):
            ne.l1_unstructured_prune(net, 1.5)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = ne.init_network([7, 6, 5], ["relu", "sigmoid"], 21)
        path = tmp_path / "net.rmk"
        ne.save_checkpoint(net, path)
        loaded = ne.load_checkpoint(path)
        assert loaded.parameters_digest() == net.parameters_digest()
        assert [l.activation for l in loaded.layers] == [l.activation for l in net.layers]

    def test_header_layout(self):
        net = ne.init_network([2, 3], ["tanh"], 22)
        data = ne.checkpoint_bytes(net)
        assert data[:4] == b"RMK1"
        assert int.from_bytes(data[4:6], "little") == 1
        assert int.from_bytes(data[6:10], "little") == 1  # layer count
        assert int.from_bytes(data[10:14], "little") == 2  # rows = in_dim
        assert int.from_bytes(data[14:18], "little") == 3  # cols = out_dim
        assert data[18] == 2  # tanh code

    def test_checksum_detects_corruption(self):
        net = ne.init_network([3, 3], ["identity"], 23)
        data = bytearray(ne.checkpoint_bytes(net))
        data[25] ^= 0x01
        with pytest.raises(ne.CheckpointError, match="checksum"):
            ne.network_from_checkpoint_bytes(bytes(data))

    def test_bad_magic_rejected(self):
        net = ne.init_network([3, 3], ["identity"], 24)
        data = bytearray(ne.checkpoint_bytes(net))
        data[0] = ord("X")
        with pytest.raises(ne.CheckpointError, match="magic"):
            ne.network_from_checkpoint_bytes(bytes(data))

    def test_truncation_rejected(self):
        net = ne.init_network([3, 3], ["identity"], 25)
        data = ne.checkpoint_bytes(net)
        with pytest.raises(ne.CheckpointError):
            ne.network_from_checkpoint_bytes(data[: len(data) // 2])
