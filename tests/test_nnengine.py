"""Engine tests: forward/backward against finite differences, AdamW
behavior, global magnitude pruning, and checkpoint format guarantees."""

import copy
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

from randmark import attacks as atk
from randmark import nnengine as ne

from conftest import gradient_check, see_cpus, sparsity


def _loss_quadratic(targets):
    """Squared-error loss against fixed targets, with its gradient."""

    def loss(net, x):
        out, _ = ne.forward_batch(net, x)
        return float(((out - targets) ** 2).sum())

    def grad(net, x):
        out, trace = ne.forward_batch(net, x)
        return ne.backward(net, trace, 2.0 * (out - targets))

    return loss, grad


def _payload(weights, biases):
    """Per-layer weight and bias arrays as one vector in the payload order
    of MlpNetwork.params: W0 row-major, b0, W1, b1, ..."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def _per_layer(net, vector):
    """[weight, bias] views into a params-shaped vector, one pair per layer
    of net."""
    pairs, offset = [], 0
    for layer in net.layers:
        w_end = offset + layer.weight.size
        end = w_end + layer.bias.size
        pairs.append([vector[offset:w_end].reshape(layer.weight.shape), vector[w_end:end]])
        offset = end
    return pairs


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
        assert grads.flat.shape == net.params.shape
        assert np.all(grads.flat == 0.0)

    def test_linear_net_squared_error_matches_fd(self):
        rng = np.random.default_rng(4)
        net = ne.init_network([3, 2], ["identity"], rng)
        x = rng.random((1, 3))
        targets = rng.random((1, 2))
        loss, grad = _loss_quadratic(targets)
        err = gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
        assert err < 1e-6

    def test_three_layer_tanh_matches_fd(self):
        rng = np.random.default_rng(5)
        net = ne.init_network([4, 5, 4, 2], ["tanh", "tanh", "tanh"], rng)
        x = rng.random((3, 4))
        targets = rng.random((3, 2))
        loss, grad = _loss_quadratic(targets)
        err = gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
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
            err = gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
            assert err < 1e-5, f"trial {trial}: {err}"

    def test_skipped_input_gradient_keeps_parameter_gradients(self):
        rng = np.random.default_rng(9)
        for dims, acts in (([5, 4, 3], ["tanh", "identity"]), ([6, 2], ["sigmoid"])):
            net = ne.init_network(dims, acts, rng)
            x = rng.standard_normal((7, dims[0]))
            g_out = rng.standard_normal((7, dims[-1]))
            full = ne.backward(net, ne.forward_batch(net, x)[1], g_out)
            skipped = ne.backward(net, ne.forward_batch(net, x)[1], g_out, wrt_input=False)
            assert full.flat.tobytes() == skipped.flat.tobytes()
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
            assert grads.flat.tobytes() == _payload(ref_w, ref_b).tobytes()
            assert grads.wrt_input.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_backward_from_activation_at_special_pre_activations(self, act):
        # pre-activations no matmul produces (-0.0) next to infinities, NaN
        # and near-limit magnitudes, fed to backward through a hand-built trace
        # whose one buffer holds their activations
        pre = np.array([[-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 0.7]])
        net = ne.MlpNetwork([ne.Layer(np.eye(8), np.zeros(8), act)])
        x = np.linspace(-1.0, 1.0, 8)[None, :]
        a = _ref_activate(act, pre.copy())
        g = np.array([[1.5, -1.5, 2.0, -2.0, 0.25, -0.25, 3.0, -0.0]])
        ref_w, ref_b, ref_in = _ref_backward(net, [x, a], [pre], g)
        grads = ne.backward(net, ne.ForwardTrace([x, a], [a]), g)
        assert grads.flat.tobytes() == _payload(ref_w, ref_b).tobytes()
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
            for wrt_input in (True, False):
                _, trace = ne.forward_batch(net, x)
                g = rng.standard_normal((7, net.output_dim))
                g_before = g.copy()
                ne.backward(net, trace, g, wrt_input=wrt_input)
                assert g.tobytes() == g_before.tobytes()
                assert x.tobytes() == x_before.tobytes()
            one = rng.standard_normal(net.input_dim)
            _, trace = ne.forward_batch(net, one[None, :])
            g = rng.standard_normal(net.output_dim)
            g_before = g.copy()
            ne.backward(net, trace, g)
            assert g.tobytes() == g_before.tobytes()


def _buffer_nets(act, rng):
    """Nets for reused buffers: three layers of act with narrowing widths,
    and act before a sigmoid output wider than any layer input."""
    yield ne.init_network([9, 7, 5, 3], [act] * 3, rng)
    yield ne.init_network([4, 6, 11], [act, "sigmoid"], rng)


def _sealed(*arrays):
    """Bytes of every array, to show that a refused call wrote nothing."""
    return [a.tobytes() for a in arrays]


class TestBufferPath:
    """forward_batch and backward write the same bytes into reused
    caller-owned buffers as into fresh ones, whichever leading rows a batch
    uses."""

    @pytest.mark.parametrize("wrt_input", [True, False])
    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_into_matches_allocating_bytes(self, act, wrt_input):
        rng = np.random.default_rng(12)
        for net in _buffer_nets(act, rng):
            trace = ne.ForwardTrace.empty(net, 64)
            grads = ne.Gradients.empty(net, 64, wrt_input=wrt_input)
            for rows in (64, 44, 1):  # a full batch, then partial leading slices
                x = 2.0 * rng.standard_normal((rows, net.input_dim))
                g = rng.standard_normal((rows, net.output_dim))
                out, fresh = ne.forward_batch(net, x)
                out = out.copy()  # the backward builds its derivative terms over it
                activations = [a.copy() for a in fresh.activations]
                expected = ne.backward(net, fresh, g, wrt_input=wrt_input)
                assert fresh.spent
                g_before = g.copy()

                into_out, filled = ne.forward_batch(net, x, into=trace)
                assert filled is trace and not trace.spent
                assert into_out.tobytes() == out.tobytes()
                assert _sealed(*trace.activations) == _sealed(*activations)
                assert ne.backward(net, trace, g, wrt_input=wrt_input, into=grads) is grads
                assert grads.flat.tobytes() == expected.flat.tobytes()
                assert grads.wrt_input.shape == expected.wrt_input.shape
                assert grads.wrt_input.tobytes() == expected.wrt_input.tobytes()
                assert trace.spent and g.tobytes() == g_before.tobytes()

    def test_spent_trace_refuses_reuse(self):
        rng = np.random.default_rng(13)
        net = ne.init_network([5, 4, 3], ["tanh", "sigmoid"], rng)
        reused = ne.ForwardTrace.empty(net, 8)
        grads = ne.Gradients.empty(net, 8)
        x, g = rng.standard_normal((8, 5)), rng.standard_normal((8, 3))
        ne.forward_batch(net, x, into=reused)
        first = ne.backward(net, reused, g, into=grads).flat.copy()
        _, fresh = ne.forward_batch(net, x)  # a fresh trace, spent by a default backward
        assert ne.backward(net, fresh, g).flat.tobytes() == first.tobytes()
        for trace in (reused, fresh):
            assert trace.spent
            for reuse in (
                lambda: trace.output,
                lambda: ne.backward(net, trace, g),
                lambda: ne.backward(net, trace, g, into=ne.Gradients.empty(net, 8)),
            ):
                with pytest.raises(ValueError, match="spent"):
                    reuse()
        ne.forward_batch(net, x, into=reused)  # a forward refills it
        assert ne.backward(net, reused, g, into=grads).flat.tobytes() == first.tobytes()

    def test_mismatched_forward_into_refused_before_writing(self):
        rng = np.random.default_rng(14)
        net = ne.init_network([5, 4, 3], ["tanh", "identity"], rng)
        x = rng.standard_normal((8, 5))
        for into in (
            ne.ForwardTrace.empty(ne.init_network([5, 6, 3], ["tanh", "identity"], 1), 8),
            ne.ForwardTrace.empty(net, 7),  # one row short
        ):
            for buffer in into.buffers:
                buffer.fill(np.nan)
            before = _sealed(*into.buffers)
            with pytest.raises(ValueError):
                ne.forward_batch(net, x, into=into)
            assert _sealed(*into.buffers) == before

    def test_mismatched_backward_into_refused_before_writing(self):
        rng = np.random.default_rng(15)
        net = ne.init_network([5, 4, 3], ["tanh", "sigmoid"], rng)
        x, g = rng.standard_normal((8, 5)), rng.standard_normal((8, 3))
        trace = ne.ForwardTrace.empty(net, 8)
        ne.forward_batch(net, x, into=trace)
        for into, output_gradient in (
            (ne.Gradients.empty(ne.init_network([5, 6, 3], ["tanh", "sigmoid"], 1), 8), g),
            (ne.Gradients.empty(net, 7), g),  # one row short
            (ne.Gradients.empty(net, 8, wrt_input=False), g),  # no room for wrt_input
            (ne.Gradients(np.empty_like(net.params)), g),  # owns no scratch
            (ne.Gradients.empty(net, 8), trace.output),  # g would be overwritten
        ):
            into.flat.fill(np.nan)
            before = _sealed(into.flat, *(into.scratch or ()), *trace.activations)
            with pytest.raises(ValueError):
                ne.backward(net, trace, output_gradient, into=into)
            assert _sealed(into.flat, *(into.scratch or ()), *trace.activations) == before
            assert not trace.spent


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

        assert gradient_check(net, loss, grad) < 1e-9

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(10)
        net = ne.init_network([3, 3, 2], ["tanh", "identity"], rng)
        x = rng.random((1, 3))
        targets = rng.random((1, 2))
        loss, grad = _loss_quadratic(targets)

        def corrupted(n):
            g = grad(n, x)
            g.flat[0] *= 2.0  # one entry, W0[0, 0], doubled
            return g

        assert gradient_check(net, lambda n: loss(n, x), corrupted) > 0.1

    def test_non_finite_loss_fatal(self):
        net = ne.init_network([2, 2], ["identity"], 11)
        with pytest.raises(ValueError):
            gradient_check(net, lambda n: float("nan"), lambda n: None)


class TestOptimizer:
    def test_zero_gradients_leave_parameters_unchanged(self):
        net = ne.init_network([3, 2], ["identity"], 12)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net, lr=0.1, weight_decay=0.0)
        grads = ne.Gradients(np.zeros_like(net.params))
        ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        # Bias-corrected moments make the very first update lr * sign(g).
        net = ne.MlpNetwork([ne.Layer(np.array([[1.0]]), np.zeros(1), "identity")])
        state = ne.OptimizerState.fresh(net, lr=0.05)
        grads = ne.Gradients(np.array([0.3, 0.0]))  # W0 = [[0.3]], b0 = [0]
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
            grads = ne.Gradients(_payload([2.0 * diff], [np.zeros(8)]))
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
        grads = ne.Gradients(_payload([np.full((2, 2), np.nan)], [np.zeros(2)]))
        moments = _moment_bytes(state)
        with pytest.raises(ValueError, match="non-finite"):
            ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 0
        assert _moment_bytes(state) == moments

    def test_bias_list_of_wrong_length_rejected(self):
        net = ne.init_network([3, 2, 2], ["tanh", "identity"], 15)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net)
        moments = _moment_bytes(state)
        # every weight with the first bias only, and the first layer alone
        for grads in (
            ne.Gradients(_payload([l.weight for l in net.layers], [net.layers[0].bias])),
            ne.Gradients(_payload([net.layers[0].weight], [net.layers[0].bias])),
        ):
            with pytest.raises(ValueError, match="does not match network parameters"):
                ne.optimizer_step(net, grads, state)
            assert net.parameters_digest() == before
            assert state.step == 0
            assert _moment_bytes(state) == moments

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_rebinding_adamw_byte_for_byte(self, weight_decay):
        rng = np.random.default_rng(16)
        net = ne.init_network([5, 4, 3], ["tanh", "identity"], 16)
        ref_net = net.copy()
        state = ne.OptimizerState.fresh(net, lr=0.01, weight_decay=weight_decay)
        ref = _RebindingAdamW(ref_net, lr=0.01, weight_decay=weight_decay)
        x = rng.standard_normal((8, 5))
        targets = rng.standard_normal((8, 3))
        _, grad = _loss_quadratic(targets)
        for _ in range(60):
            # one gradient for both: the two networks are byte-equal here
            grads = grad(net, x)
            ne.optimizer_step(net, grads, state)
            ref.step_(ref_net, grads)
            assert net.parameters_digest() == ref_net.parameters_digest()
            assert _moment_bytes(state) == ref.moment_bytes()
            assert state.step == ref.step
        # the moments did move, and neither of them aliases a scratch buffer
        assert np.abs(state.m).max() > 0.0
        for moment in (state.m, state.v):
            assert not np.shares_memory(moment, state.scratch)

    def test_mismatched_state_rejected(self):
        net = ne.init_network([3, 2, 2], ["tanh", "identity"], 17)
        state = ne.OptimizerState.fresh(ne.init_network([3, 4, 2], ["tanh", "identity"], 17))
        before = net.parameters_digest()
        moments = _moment_bytes(state)
        grads = ne.Gradients(np.ones_like(net.params))
        with pytest.raises(ValueError, match="optimizer state"):
            ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 0
        assert _moment_bytes(state) == moments

    def test_step_allocates_no_parameter_sized_array(self):
        # the moments and parameters are updated through the state's scratch
        # buffers: ten steps must not allocate one 256 x 192 weight's worth
        rng = np.random.default_rng(18)
        net = ne.init_network([256, 192, 64], ["tanh", "identity"], 18)
        state = ne.OptimizerState.fresh(net, lr=1e-3, weight_decay=0.01)
        grads = ne.Gradients(rng.standard_normal(net.params.shape))
        ne.optimizer_step(net, grads, state)  # warm up any lazy module state
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                ne.optimizer_step(net, grads, state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert state.step == 11
        assert peak < net.layers[0].weight.nbytes, peak


def _assert_views(net):
    """Every layer array is a view into net.params, in payload order."""
    offset = 0
    for layer in net.layers:
        for array in (layer.weight, layer.bias):
            assert np.shares_memory(array, net.params)
            assert array.tobytes() == net.params[offset : offset + array.size].tobytes()
            offset += array.size
    assert offset == net.params.size


class TestParameterVector:
    def test_construction_copies_the_given_layers(self):
        layers = ne.init_network([4, 3, 2], ["tanh", "identity"], 30).layers
        net = ne.MlpNetwork(layers)
        _assert_views(net)
        for given, layer in zip(layers, net.layers):
            assert not np.shares_memory(given.weight, net.params)
            assert not np.shares_memory(given.bias, net.params)
            assert given.weight.tobytes() == layer.weight.tobytes()

    def test_copies_and_pickles_rebuild_the_views(self):
        net = ne.init_network([5, 4, 3], ["tanh", "sigmoid"], 31)
        for other in (
            net.copy(),
            pickle.loads(pickle.dumps(net)),
            copy.deepcopy(net),
            ne.network_from_checkpoint_bytes(ne.checkpoint_bytes(net)),
        ):
            _assert_views(other)
            assert not np.shares_memory(other.params, net.params)
            assert other.parameters_digest() == net.parameters_digest()

    def test_models_from_a_two_worker_pool_keep_their_views(self, monkeypatch):
        see_cpus(monkeypatch, 2)
        with atk.IndependentPool(2) as pool:
            models = [get() for get in pool.submit([16, 8, 4], [1, 2], [3, 4], 1, 10)]
        for model in models:
            _assert_views(model)

    def test_optimizer_step_shows_through_the_layers(self):
        net = ne.init_network([4, 3, 2], ["tanh", "identity"], 32)
        before = [layer.weight.copy() for layer in net.layers]
        _, trace = ne.forward_batch(net, np.ones((3, 4)))
        grads = ne.backward(net, trace, np.ones((3, 2)))
        ne.optimizer_step(net, grads, ne.OptimizerState.fresh(net, lr=0.1))
        _assert_views(net)
        for layer, old in zip(net.layers, before):
            assert not np.array_equal(layer.weight, old)


class TestGradientsAdd:
    def _grads(self, dims, value):
        net = ne.init_network(dims, ["tanh"] * (len(dims) - 1), 0)
        return ne.Gradients(np.full_like(net.params, value))

    def test_same_shapes_add_in_place(self):
        total = self._grads([3, 2, 2], 1.0)
        flat = total.flat
        total.add_(self._grads([3, 2, 2], 0.5))
        assert total.flat is flat
        assert (total.flat == 1.5).all()

    @pytest.mark.parametrize("other_dims", [[3, 2], [3, 2, 2, 2], [3, 4, 2], [4, 2, 2]])
    def test_other_depth_or_shape_rejected(self, other_dims):
        total = self._grads([3, 2, 2], 1.0)
        with pytest.raises(ValueError, match="gradient sizes differ"):
            total.add_(self._grads(other_dims, 0.5))
        assert (total.flat == 1.0).all()


def _moment_bytes(state):
    return [state.m.tobytes(), state.v.tobytes()]


class _RebindingAdamW:
    """Reference AdamW with per-layer moments: each moment is rebound to a
    freshly computed array and each update is built in temporaries, as the
    expressions read."""

    def __init__(self, net, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m = [[np.zeros_like(l.weight), np.zeros_like(l.bias)] for l in net.layers]
        self.v = [[np.zeros_like(l.weight), np.zeros_like(l.bias)] for l in net.layers]

    def step_(self, net, grads):
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.step
        bc2 = 1.0 - b2**self.step
        for i, (layer, layer_grads) in enumerate(zip(net.layers, _per_layer(net, grads.flat))):
            if self.weight_decay:
                layer.weight *= 1.0 - self.lr * self.weight_decay
            for j, (param, grad) in enumerate(zip((layer.weight, layer.bias), layer_grads)):
                self.m[i][j] = b1 * self.m[i][j] + (1.0 - b1) * grad
                self.v[i][j] = b2 * self.v[i][j] + (1.0 - b2) * grad**2
                param -= self.lr * (self.m[i][j] / bc1) / (
                    np.sqrt(self.v[i][j] / bc2) + self.eps
                )

    def moment_bytes(self):
        """The moments laid out as the network's params vector."""
        return [
            np.concatenate([a.ravel() for pair in moments for a in pair]).tobytes()
            for moments in (self.m, self.v)
        ]


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
            assert sparsity(ne.l1_unstructured_prune(net, fraction)) == fraction

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
        sparsities = [sparsity(ne.l1_unstructured_prune(net, q)) for q in fractions]
        assert all(a <= b for a, b in zip(sparsities, sparsities[1:]))

    @staticmethod
    def _argsort_prune(net, fraction):
        """Reference: kill the first floor(fraction * weight count) weights
        of a stable argsort of the magnitudes; each layer's pruned weights."""
        magnitudes = np.concatenate([np.abs(layer.weight).ravel() for layer in net.layers])
        mask = np.ones(magnitudes.size, dtype=bool)
        mask[np.argsort(magnitudes, kind="stable")[: int(fraction * magnitudes.size)]] = False
        weights, offset = [], 0
        for layer in net.layers:
            size = layer.weight.size
            weights.append(layer.weight * mask[offset : offset + size].reshape(layer.weight.shape))
            offset += size
        return weights

    @pytest.mark.parametrize("decimals", [1, 2, None], ids=["rounded-1", "rounded-2", "zeros"])
    def test_matches_stable_argsort_byte_for_byte(self, decimals):
        net = ne.init_network([256, 192, 64], ["tanh", "identity"], 22)
        for layer in net.layers:
            if decimals is None:  # every other weight exactly zero, some of them -0.0
                layer.weight[:, ::2] *= 0.0
            else:  # heavy ties at every rounded magnitude, -0.0 among them
                layer.weight[...] = np.round(layer.weight, decimals)
        count = net.weight_count()
        for fraction in (0.0, 1.5 / count, 0.2, 0.45, 1.0):
            pruned = ne.l1_unstructured_prune(net, fraction)
            for got, want in zip(pruned.layers, self._argsort_prune(net, fraction)):
                assert got.weight.tobytes() == want.tobytes(), fraction

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

    def test_truncation_at_every_offset_rejected(self):
        data = ne.checkpoint_bytes(ne.init_network([7, 6, 5], ["relu", "sigmoid"], 26))
        for cut in range(len(data)):
            with pytest.raises(ne.CheckpointError):
                ne.network_from_checkpoint_bytes(data[:cut])

    @staticmethod
    def _resealed(body: bytes) -> bytes:
        """body with a valid checksum appended, so parsing gets past it."""
        return body + struct.pack("<Q", sum(body))

    # [3, 3] identity network: 10-byte header, 9-byte layer header at 10,
    # 12 float64 parameters from 19, 8-byte checksum
    @pytest.mark.parametrize("edit, message", [
        (lambda body: body[:4] + struct.pack("<H", 2) + body[6:], "unsupported version 2"),
        (lambda body: body[:18] + bytes([9]) + body[19:], "unknown activation code 9"),
        (lambda body: body[:6] + struct.pack("<I", 2) + body[10:], "truncated layer header"),
        (lambda body: body[:10] + struct.pack("<I", 4) + body[14:], "truncated layer payload"),
        (lambda body: body + b"\0", "trailing bytes in checkpoint"),
        (lambda body: body[:9], "checkpoint too short"),
    ], ids=["version", "activation-code", "layer-header", "layer-payload", "trailing-bytes",
            "too-short"])
    def test_structural_check_messages(self, edit, message):
        body = ne.checkpoint_bytes(ne.init_network([3, 3], ["identity"], 27))[:-8]
        assert len(body) == 10 + 9 + 8 * 12
        with pytest.raises(ne.CheckpointError, match=message):
            ne.network_from_checkpoint_bytes(self._resealed(edit(body)))

    @pytest.mark.parametrize("edit, message", [
        (lambda body: body[:6] + struct.pack("<I", 0), "network needs at least one layer"),
        (lambda body: body[:6] + struct.pack("<I", 2) + body[10:]
         + struct.pack("<IIB", 4, 1, 0) + bytes(8 * 5), "layer dimensions do not chain: 3 -> 4"),
        (lambda body: body[:19] + struct.pack("<d", np.nan) + body[27:],
         "layer parameters must be finite"),
    ], ids=["no-layers", "unchained-layers", "nan-parameter"])
    def test_well_sealed_bad_network_is_a_checkpoint_error(self, edit, message):
        # the checksum holds, but the layers do not make a network
        body = ne.checkpoint_bytes(ne.init_network([3, 3], ["identity"], 28))[:-8]
        with pytest.raises(ne.CheckpointError, match=message):
            ne.network_from_checkpoint_bytes(self._resealed(edit(body)))
