"""Gradient and optimizer tests.

Every differentiable op is checked against central finite differences; the
expected values that appear inline (softmax probabilities, the uniform nll
constant) were computed ahead of time with mpmath at 50 digits and frozen
here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.classifier_oracle import _gru_cell
from oracles.search_oracle import _cell as _lstm_cell
from turntaking import autodiff as ad


def fd(build, params, eps=1e-5):
    return ad.finite_difference_check(build, params, eps=eps)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant([0.0])).data[0] == 0.5

    def test_sigmoid_extremes_stay_finite(self):
        out = ad.sigmoid(ad.constant([-1000.0, 1000.0])).data
        assert np.isfinite(out).all()
        assert out[0] < 1e-300 or out[0] == 0.0
        assert out[1] == 1.0

    def test_sigmoid_is_the_three_exp_formula(self):
        """One exp, bit for bit the same as the branchwise form that took three."""
        x = np.concatenate([np.linspace(-50.0, 50.0, 2001), np.linspace(-800.0, 800.0, 321),
                            [-1e4, -745.0, -744.5, -1e-300, 0.0, 1e-300, 744.5, 745.0, 1e4]])
        old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert np.array_equal(ad.sigmoid(ad.constant(x)).data, old)

    def test_relu_values(self):
        out = ad.relu(ad.constant([-3.0, 0.0, 2.0])).data
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_tanh_odd(self):
        x = np.array([0.1, -0.7, 2.0])
        a = ad.tanh(ad.constant(x)).data
        b = ad.tanh(ad.constant(-x)).data
        np.testing.assert_allclose(a, -b, rtol=0, atol=0)

    def test_equal_shape_contract(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 2))))
        with pytest.raises(ad.ShapeError):
            ad.mul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 1))))

    def test_scalar_operand_allowed(self):
        out = ad.add(ad.constant(np.ones((2, 2))), 0.5)
        assert (out.data == 1.5).all()


class TestSoftmax:
    def test_uniform_rows(self):
        out = ad.softmax(ad.constant([0.0, 0.0, 0.0, 0.0])).data
        np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_large_inputs_stable(self):
        out = ad.softmax(ad.constant([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)

    def test_against_high_precision_values(self):
        # mpmath (dps=50) softmax of [0.3, -1.2, 2.5, 0.0]
        expected = [0.09100040667134896249, 0.020304935314150337339,
                    0.82127989866291923298, 0.067414759351581467186]
        out = ad.softmax(ad.constant([0.3, -1.2, 2.5, 0.0])).data
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_are_distributions(self, xs):
        out = ad.softmax(ad.constant(xs)).data
        assert (out > 0).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
           st.floats(-100, 100))
    def test_shift_invariance(self, xs, c):
        a = ad.softmax(ad.constant(xs)).data
        b = ad.softmax(ad.constant([x + c for x in xs])).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestNll:
    def test_uniform_value(self):
        # 3 positions, uniform over 4 classes: 3 * log 4 (mpmath, dps=50)
        logits = ad.constant(np.zeros((3, 4)))
        loss = ad.log_softmax_nll(logits, [0, 3, 1])
        assert loss.item() == pytest.approx(4.1588830833596718565, abs=1e-12)

    def test_masked_positions_contribute_zero(self):
        """A masked row contributes nothing even when its target is all but impossible."""
        x = np.zeros((2, 3))
        x[1] = [0.0, -1e4, -1e4]
        loss = ad.log_softmax_nll(ad.constant(x), [0, 1], mask=[1.0, 0.0])
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)
        assert np.isfinite(loss.data).all()

    def test_masked_gradient_is_zero(self):
        logits = ad.constant(np.random.default_rng(0).normal(size=(3, 4)))
        loss = ad.log_softmax_nll(logits, [1, 2, 0], mask=[1.0, 0.0, 1.0])
        ad.backward(loss)
        assert logits.grad is not None
        assert np.all(logits.grad[1] == 0.0)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.log_softmax_nll(ad.constant(np.zeros((1, 3))), [3])

    @settings(max_examples=50)
    @given(st.integers(1, 4), st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_pinned_logit_stays_finite(self, n, v, seed):
        """A logit pinned at -1e4, as an EOS bias can be, gives -log softmax exactly where
        softmax underflows to 0, and a finite gradient."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, v))
        x[:, 0] = -1e4
        targets = rng.integers(0, v, size=n)
        targets[0] = 0  # one row asks for the pinned id itself
        logits = ad.constant(x)
        loss = ad.log_softmax_nll(logits, targets)
        ad.backward(loss)
        rest = np.log(np.exp(x[:, 1:]).sum(axis=1))  # the pinned entry adds exp(-1e4) == 0
        assert loss.item() == pytest.approx(-(x[np.arange(n), targets] - rest).sum(), rel=1e-12)
        assert np.isfinite(loss.item()) and np.isfinite(logits.grad).all()
        np.testing.assert_allclose(
            logits.grad, ad.softmax(ad.constant(x)).data - np.eye(v)[targets], atol=1e-15)


class TestMaxOverTime:
    def test_values(self):
        out = ad.max_over_time(ad.constant([[1.0, 5.0], [3.0, 2.0]]), [(0, 2)]).data
        assert out.tolist() == [[3.0, 5.0]]

    def test_tie_routes_gradient_to_lowest_index(self):
        m = ad.constant([[2.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
        out = ad.max_over_time(m, [(0, 3)])
        ad.backward(ad.sum_all(out))
        # column 0 ties at rows 0 and 1 -> row 0 takes the gradient
        assert m.grad[:, 0].tolist() == [1.0, 0.0, 0.0]
        # column 1 max at row 2? no: values are 0,1,1 -> tie rows 1,2 -> row 1
        assert m.grad[:, 1].tolist() == [0.0, 1.0, 0.0]

    def test_single_row(self):
        out = ad.max_over_time(ad.constant([[4.0, -2.0, 0.0]]), [(0, 1)])
        assert out.data.tolist() == [[4.0, -2.0, 0.0]]

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_numpy_max(self, n, m, seed):
        x = np.random.default_rng(seed).normal(size=(n, m))
        out = ad.max_over_time(ad.constant(x), [(0, n)]).data
        np.testing.assert_array_equal(out, x.max(axis=0)[None])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)), min_size=1, max_size=5),
           st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_segments_match_numpy_argmax(self, layout, m, tail, seed):
        """Each segment, after a gap of 0-3 rows, takes np.argmax's row per column: ties
        (values drawn from a few integers) to the lowest row, and a NaN where one is."""
        rng = np.random.default_rng(seed)
        segments, row = [], 0
        for gap, length in layout:
            segments.append((row + gap, row + gap + length))
            row += gap + length
        x = rng.integers(-2, 3, size=(row + tail, m)).astype(np.float64)
        x[rng.random(x.shape) < 0.05] = np.nan
        a = ad.constant(x)
        out = ad.max_over_time(a, segments)
        g = rng.normal(size=out.shape)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        want_grad = np.zeros_like(x)
        for i, (start, stop) in enumerate(segments):
            arg = start + np.argmax(x[start:stop], axis=0)
            np.testing.assert_array_equal(out.data[i], x[arg, np.arange(m)])
            want_grad[arg, np.arange(m)] = g[i]
        np.testing.assert_array_equal(a.grad, want_grad)

    def test_nan_wins_as_under_argmax(self):
        x = np.array([[1.0, 2.0], [np.nan, 5.0], [3.0, np.nan], [4.0, 1.0]])
        a = ad.constant(x)
        out = ad.max_over_time(a, [(0, 2), (2, 4)])
        ad.backward(ad.sum_all(out))
        assert np.isnan(out.data[0, 0]) and out.data[0, 1] == 5.0
        assert out.data[1, 0] == 4.0 and np.isnan(out.data[1, 1])
        assert a.grad.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("segments", [[], [(0, 0)], [(2, 1)], [(0, 2), (1, 3)],
                                          [(2, 3), (0, 1)], [(-1, 1)], [(0, 5)]])
    def test_bad_segments_rejected(self, segments):
        with pytest.raises(ad.ShapeError):
            ad.max_over_time(ad.constant(np.zeros((4, 2))), segments)


class TestBackward:
    def test_scalar_loss_required(self):
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.constant([1.0, 2.0]))

    def test_identity(self):
        ps = ad.ParamSet(seed=0)
        x = ps.new("x", (3,), fan_in=1)
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_fanout_accumulates(self):
        ps = ad.ParamSet(seed=0)
        x = ps.new("x", (2,), fan_in=1)
        y = ad.add(x, x)  # dy/dx = 2
        ad.backward(ad.sum_all(y))
        np.testing.assert_array_equal(x.grad, np.full(2, 2.0))

    def test_shared_gradient_is_not_aliased(self):
        """add hands one g to both parents; each parent's later += stays its own."""
        ps = ad.ParamSet(seed=0)
        x = ps.new("x", (2, 3), fan_in=1)
        w = ps.new("w", (2, 3), fan_in=1)
        g = np.arange(6.0).reshape(2, 3) - 2.5
        twice = ad.add(x, x)
        inner = ad.add(x, w)
        outer = ad.add(inner, w)  # w reaches the loss twice, x once through each sum
        ad.backward(ad.sum_all(ad.mul(ad.add(twice, outer), ad.constant(g))))
        np.testing.assert_array_equal(x.grad, 3.0 * g)
        np.testing.assert_array_equal(w.grad, 2.0 * g)
        np.testing.assert_array_equal(outer.grad, g)
        np.testing.assert_array_equal(inner.grad, g)
        np.testing.assert_array_equal(twice.grad, g)

    def test_fresh_products_match_copies_bit_for_bit(self, monkeypatch):
        """relu, tanh, sigmoid and mul store the gradient products they allocate
        without a copy; the gradients equal those of a copy-always store."""
        def grads():
            ps = ad.ParamSet(seed=5)
            x, w = ps.new("x", (3, 4), fan_in=1), ps.new("w", (3, 4), fan_in=1)
            y = ad.mul(ad.relu(ad.mul(x, w)), ad.sigmoid(ad.tanh(x)))
            ad.backward(ad.sum_all(ad.mul(ad.add(y, ad.tanh(w)), ad.mul(w, 0.5))))
            return x.grad.copy(), w.grad.copy()

        stored = grads()
        copying = ad._acc
        monkeypatch.setattr(ad, "_acc", lambda t, g, fresh=False: copying(t, g))
        assert all(np.array_equal(a, b) for a, b in zip(stored, grads()))

    def test_tensor_used_twice_is_not_aliased(self):
        ps = ad.ParamSet(seed=0)
        x = ps.new("x", (2, 3), fan_in=1)
        t1, t2 = ad.tanh(x), ad.tanh(x)
        ad.backward(ad.sum_all(ad.add(t1, t2)))
        np.testing.assert_array_equal(x.grad, 2.0 * (1.0 - t1.data ** 2))
        assert not any(np.shares_memory(x.grad, t.grad) for t in (t1, t2))
        np.testing.assert_array_equal(t1.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(t2.grad, np.ones((2, 3)))

    def test_deterministic_across_runs(self):
        def run():
            ps = ad.ParamSet(seed=11)
            W = ps.new("W", (4, 4), fan_in=4)
            x = ad.constant(np.linspace(-1, 1, 8).reshape(2, 4))
            h = ad.tanh(ad.matmul(x, W))
            loss = ad.log_softmax_nll(h, [0, 3])
            ad.backward(loss)
            return W.grad.copy()
        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)  # bit identical


class TestNoGrad:
    def _forward(self):
        ps = ad.ParamSet(seed=3)
        W = ps.new("W", (3, 2), fan_in=3)
        x = ad.constant(np.linspace(-1, 1, 6).reshape(2, 3))
        return W, ad.sum_all(ad.tanh(ad.matmul(x, W)))

    def test_nothing_recorded_inside(self):
        with ad.no_grad():
            _, loss = self._forward()
        assert loss._parents == () and loss._bwd is None

    def test_values_unchanged(self):
        _, recorded = self._forward()
        with ad.no_grad():
            _, bare = self._forward()
        assert recorded.item() == bare.item()

    def test_recording_resumes_after_block(self):
        with ad.no_grad():
            pass
        W, loss = self._forward()
        assert loss._parents and loss._bwd is not None
        ad.backward(loss)
        assert W.grad is not None

    def test_recording_resumes_after_exception(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        _, loss = self._forward()
        assert loss._parents and loss._bwd is not None

    def test_nested_blocks_restore_outer_state(self):
        with ad.no_grad():
            with ad.no_grad():
                pass
            _, loss = self._forward()
        assert loss._parents == ()

    def test_backward_through_unrecorded_result_leaves_grads_none(self):
        with ad.no_grad():
            W, loss = self._forward()
        ad.backward(loss)
        assert W.grad is None


class TestFiniteDifferences:
    """Analytic gradients against central differences.

    Thresholds: 1e-9 for paths that are linear in the parameters, 1e-6 for
    smooth nonlinear ops, 1e-4 for full model-sized compositions.
    """

    def test_eps_validation(self):
        ps = ad.ParamSet(seed=0)
        ps.new("x", (1,), fan_in=1)
        with pytest.raises(ValueError):
            ad.finite_difference_check(lambda: ad.sum_all(ps["x"]), ps, eps=1e-8 / 2)
        with pytest.raises(ValueError):
            ad.finite_difference_check(lambda: ad.sum_all(ps["x"]), ps, eps=1e-2)

    def test_linear_ops(self):
        ps = ad.ParamSet(seed=5)
        A = ps.new("A", (3, 4), fan_in=3)
        B = ps.new("B", (4, 2), fan_in=4)
        b = ps.new("b", (2,), fan_in=4)

        def build():
            out = ad.matmul(A, B, bias=b)
            return ad.sum_all(ad.scale(out, 0.5))

        assert fd(build, ps) < 1e-9

    def test_smooth_ops(self):
        rng = np.random.default_rng(7)
        ps = ad.ParamSet(seed=1)
        W = ps.new("W", (4, 5), fan_in=4)
        b = ps.new("b", (5,), fan_in=4)
        X = ad.constant(rng.normal(size=(3, 4)))

        def build():
            h = ad.tanh(ad.matmul(X, W, bias=b))
            return ad.log_softmax_nll(h, [1, 0, 4])

        assert fd(build, ps) < 1e-6

    def test_sigmoid_log_mul(self):
        ps = ad.ParamSet(seed=9)
        x = ps.new("x", (2, 3), fan_in=2)

        def build():
            s = ad.sigmoid(x)
            return ad.log_softmax_nll(ad.reshape(ad.add(ad.mul(s, s), 0.05), (3, 2)), [0, 1, 1])

        assert fd(build, ps) < 1e-6

    def test_conv_window_path(self):
        ps = ad.ParamSet(seed=3)
        E = ps.new("E", (6, 4), fan_in=6)
        F = ps.new("F", (8, 3), fan_in=8)

        def build():
            cols = ad.unfold_rows(E, 2)
            conv = ad.relu(ad.matmul(cols, F))
            return ad.sum_all(ad.max_over_time(conv, [(0, 2), (3, 5)]))

        assert fd(build, ps) < 1e-6

    def test_attention_path(self):
        ps = ad.ParamSet(seed=4)
        Q = ps.new("Q", (2, 2, 3), fan_in=3)
        states = ps.new("S", (2, 2, 3), fan_in=3)

        def build():
            weights = ad.softmax(ad.dot_scores(Q, states, np.array([[0.0, -0.5], [0.3, 0.0]])))
            ctx = ad.weighted_sum(weights, states)
            return ad.sum_all(ad.tanh(ctx))

        assert fd(build, ps) < 1e-6

    def test_gather_scale_concat_path(self):
        ps = ad.ParamSet(seed=6)
        T = ps.new("T", (5, 3), fan_in=5)

        def build():
            r = ad.rows(T, [0, 2, 2, 4])  # repeated index: scatter must add
            sr = ad.scale(ad.sigmoid(r), 0.5)
            cc = ad.concat_cols([sr, ad.scale(r, -1.0)])
            sq = ad.mul(cc, cc)
            return ad.sum_all(ad.tanh(ad.reshape(ad.part(sq, rows=slice(1, 4)), (3, 6))))

        assert fd(build, ps) < 1e-6

    def test_masked_nll_gradient(self):
        ps = ad.ParamSet(seed=8)
        W = ps.new("W", (3, 4), fan_in=3)
        X = ad.constant(np.eye(3))

        def build():
            return ad.log_softmax_nll(ad.matmul(X, W), [0, 1, 2], mask=[1.0, 0.0, 1.0])

        assert fd(build, ps) < 1e-6


def packed(lengths):
    """sizes and the (sequence, step) of every packed row, for lengths sorted longest first."""
    sizes = [sum(L > t for L in lengths) for t in range(lengths[0])]
    return sizes, [(b, t) for t, n in enumerate(sizes) for b in range(n)]


# lengths 1..4 of 1..4 sequences, sorted longest first: ties, all-equal lengths
# (nothing to skip) and a batch of one all occur
sorted_lengths = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
    lambda ls: sorted(ls, reverse=True))


class TestRecurrences:
    """The packed sequence kernels against the scalar per-gate cells of the oracles,
    and against each sequence run alone."""

    @settings(max_examples=25, deadline=None)
    @given(sorted_lengths, st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_lstm_matches_scalar_cell(self, lengths, H, d_in, seed):
        rng = np.random.default_rng(seed)
        P = {"c.W": rng.normal(size=(d_in, 4 * H)), "c.U": rng.normal(size=(H, 4 * H)),
             "c.b": rng.normal(size=4 * H)}
        B, (sizes, where) = len(lengths), packed(lengths)
        N = len(where)
        x = rng.normal(size=(N, d_in))
        h0, c0 = rng.normal(size=(B, H)), rng.normal(size=(B, H))
        out = ad.lstm(ad.constant(x @ P["c.W"] + P["c.b"]), ad.constant(P["c.U"]),
                      ad.constant(h0), ad.constant(c0), sizes).data
        assert out.shape == (2 * N, H)
        states = {b: (list(h0[b]), list(c0[b])) for b in range(B)}
        for j, (b, t) in enumerate(where):
            h, c = states[b] = _lstm_cell(P, "c", list(x[j]), *states[b], H)
            np.testing.assert_allclose(out[j], h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out[N + j], c, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(sorted_lengths, st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_gru_matches_scalar_cell(self, lengths, H, d_in, seed):
        rng = np.random.default_rng(seed)
        P = {"g.W": rng.normal(size=(d_in, 3 * H)), "g.U": rng.normal(size=(H, 3 * H)),
             "g.b": rng.normal(size=3 * H)}
        B, (sizes, where) = len(lengths), packed(lengths)
        x = rng.normal(size=(len(where), d_in))
        h0 = rng.normal(size=(B, H))
        out = ad.gru(ad.constant(x @ P["g.W"] + P["g.b"]), ad.constant(P["g.U"]),
                     ad.constant(h0), sizes).data
        assert out.shape == (len(where), H)
        states = {b: list(h0[b]) for b in range(B)}
        for j, (b, t) in enumerate(where):
            states[b] = _gru_cell(P, "g", list(x[j]), states[b])
            np.testing.assert_allclose(out[j], states[b], rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["lstm", "gru"]), sorted_lengths, st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_packed_batch_equals_each_sequence_alone(self, op, lengths, H, seed):
        """Values and every gradient of a packed batch equal B=1 runs of its sequences."""
        rng = np.random.default_rng(seed)
        gates, n_states = (4, 2) if op == "lstm" else (3, 1)
        kernel = getattr(ad, op)
        B, (sizes, where) = len(lengths), packed(lengths)
        N = len(where)
        xw = ad.constant(rng.normal(size=(N, gates * H)))
        u = ad.constant(rng.normal(size=(H, gates * H)))
        init = [ad.constant(rng.normal(size=(B, H))) for _ in range(n_states)]
        up = rng.normal(size=(n_states * N, H))  # upstream weights on every output row
        out = kernel(xw, u, *init, sizes)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(up))))
        u_grad = np.zeros_like(u.data)
        for b in range(B):
            rows = [j for j, (s, _) in enumerate(where) if s == b]
            out_rows = [k * N + j for k in range(n_states) for j in rows]
            xw_b = ad.constant(xw.data[rows])
            u_b = ad.constant(u.data)
            init_b = [ad.constant(s.data[b:b + 1]) for s in init]
            out_b = kernel(xw_b, u_b, *init_b, [1] * len(rows))
            np.testing.assert_allclose(out.data[out_rows], out_b.data, rtol=0, atol=1e-12)
            ad.backward(ad.sum_all(ad.mul(out_b, ad.constant(up[out_rows]))))
            np.testing.assert_allclose(xw.grad[rows], xw_b.grad, rtol=0, atol=1e-12)
            for s, s_b in zip(init, init_b):
                np.testing.assert_allclose(s.grad[b:b + 1], s_b.grad, rtol=0, atol=1e-12)
            u_grad += u_b.grad
        np.testing.assert_allclose(u.grad, u_grad, rtol=1e-12, atol=1e-12)

    def test_shapes_checked(self):
        z = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError):  # 5 rows, but the sizes add up to 4
            ad.gru(ad.constant(np.zeros((5, 9))), ad.constant(np.zeros((3, 9))), z, [2, 2])
        with pytest.raises(ad.ShapeError):  # h0 and c0 differ
            ad.lstm(ad.constant(np.zeros((4, 12))), ad.constant(np.zeros((3, 12))), z,
                    ad.constant(np.zeros((1, 3))), [2, 2])
        for sizes in ([1, 2, 1], [2, 1, 1, 0], [3, 1], []):  # growing, empty step, not B
            with pytest.raises(ad.ShapeError):
                ad.gru(ad.constant(np.zeros((4, 9))), ad.constant(np.zeros((3, 9))), z, sizes)

    def test_no_grad_gives_the_recorded_values(self):
        rng = np.random.default_rng(3)
        args = [ad.constant(rng.normal(size=s)) for s in ((6, 8), (2, 8), (3, 2), (3, 2))]
        recorded = ad.lstm(*args, [3, 2, 1]).data
        with ad.no_grad():
            assert np.array_equal(ad.lstm(*args, [3, 2, 1]).data, recorded)


def test_every_op_has_one_gradient_case():
    """Criterion 1 holds exactly one finite-difference case per differentiable op."""
    from test_acceptance import _op_losses

    not_ops = {"Tensor", "ShapeError", "TrainingError", "ParamSet", "Adam", "backward",
               "no_grad", "constant", "log_softmax", "finite_difference_check"}
    assert sorted(_op_losses()) == sorted(set(ad.__all__) - not_ops)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        ps = ad.ParamSet(seed=1)
        w = ps.new("w", (3,), fan_in=3)
        before = w.data.copy()
        ad.Adam(ps, lr=0.5).step()
        np.testing.assert_array_equal(w.data, before)

    def test_quadratic_convergence(self):
        # minimize (x - [3, -1])^2 from the origin; 200 steps at lr 0.1
        ps = ad.ParamSet(seed=0)
        x = ps.new("x", (1, 2), fan_in=1)
        x.data[:] = 0.0
        target = ad.constant(np.array([[3.0, -1.0]]))
        opt = ad.Adam(ps, lr=0.1)
        for _ in range(200):
            diff = ad.add(x, ad.scale(target, -1.0))
            ad.backward(ad.sum_all(ad.mul(diff, diff)))
            opt.step()
        final = float(((x.data - target.data) ** 2).sum())
        assert final < 1e-3

    def test_nan_gradient_names_parameter(self):
        ps = ad.ParamSet(seed=2)
        p = ps.new("enc.W_f", (2,), fan_in=2)
        p.grad = np.array([np.nan, 0.0])
        with pytest.raises(ad.TrainingError, match="enc.W_f"):
            ad.Adam(ps).step()

    def test_grads_cleared_after_step(self):
        ps = ad.ParamSet(seed=3)
        p = ps.new("p", (2,), fan_in=2)
        p.grad = np.ones(2)
        ad.Adam(ps).step()
        assert p.grad is None

    def test_global_clipping(self):
        # norm 10 clipped to 5: first-step update magnitude is ~lr either way,
        # but the moment estimates differ; verify via two-step trajectory
        def run(clip):
            ps = ad.ParamSet(seed=4)
            p = ps.new("p", (1,), fan_in=1)
            p.data[:] = 0.0
            opt = ad.Adam(ps, lr=1e-3, clip_norm=clip)
            p.grad = np.array([10.0])
            opt.step()
            p.grad = np.array([0.1])
            opt.step()
            return p.data.copy()
        assert not np.array_equal(run(5.0), run(None))

    def test_small_gradients_not_rescaled(self):
        def run(clip):
            ps = ad.ParamSet(seed=5)
            p = ps.new("p", (2,), fan_in=1)
            opt = ad.Adam(ps, lr=1e-3, clip_norm=clip)
            p.grad = np.array([0.3, -0.4])  # norm 0.5, under any sane clip
            opt.step()
            return p.data.copy()
        np.testing.assert_array_equal(run(5.0), run(None))

    def test_state_round_trip(self):
        ps = ad.ParamSet(seed=6)
        p = ps.new("p", (2,), fan_in=1)
        opt = ad.Adam(ps)
        p.grad = np.array([1.0, -2.0])
        opt.step()
        saved = opt.state_arrays()

        ps2 = ad.ParamSet(seed=6)
        p2 = ps2.new("p", (2,), fan_in=1)
        ps2.load_arrays(ps.as_arrays())
        opt2 = ad.Adam(ps2)
        opt2.load_state_arrays(saved)
        assert opt2.step_count == 1
        p.grad = np.array([0.5, 0.5])
        p2.grad = np.array([0.5, 0.5])
        opt.step()
        opt2.step()
        np.testing.assert_array_equal(p.data, p2.data)


class TestParamSet:
    def test_init_bounds_follow_fan_in(self):
        ps = ad.ParamSet(seed=0)
        w = ps.new("w", (1000,), fan_in=16)
        assert np.abs(w.data).max() <= 1.0 / 4.0

    def test_seeded_init_reproducible(self):
        a = ad.ParamSet(seed=42).new("w", (10, 10), fan_in=10)
        b = ad.ParamSet(seed=42).new("w", (10, 10), fan_in=10)
        np.testing.assert_array_equal(a.data, b.data)

    def test_duplicate_name_rejected(self):
        ps = ad.ParamSet(seed=0)
        ps.new("w", (2,), fan_in=2)
        with pytest.raises(KeyError):
            ps.new("w", (2,), fan_in=2)

    def test_load_arrays_checks_names_and_shapes(self):
        ps = ad.ParamSet(seed=0)
        ps.new("a", (2,), fan_in=2)
        with pytest.raises(KeyError):
            ps.load_arrays({"b": np.zeros(2)})
        with pytest.raises(ad.ShapeError):
            ps.load_arrays({"a": np.zeros(3)})


class TestStructuredOps:
    def test_unfold_rows_windows(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ad.unfold_rows(ad.constant(x), 2).data
        assert out.shape == (3, 6)
        np.testing.assert_array_equal(out[0], x[0:2].reshape(-1))
        np.testing.assert_array_equal(out[2], x[2:4].reshape(-1))

    def test_unfold_rows_width_must_fit(self):
        with pytest.raises(ad.ShapeError):
            ad.unfold_rows(ad.constant(np.zeros((2, 3))), 3)

    def test_rows_gather(self):
        table = ad.constant(np.arange(10.0).reshape(5, 2))
        out = ad.rows(table, [4, 0, 4]).data
        np.testing.assert_array_equal(out, [[8.0, 9.0], [0.0, 1.0], [8.0, 9.0]])

    def test_rows_index_bounds(self):
        with pytest.raises(IndexError):
            ad.rows(ad.constant(np.zeros((3, 2))), [3])

    def test_place_rows_puts_rows_among_zeros(self):
        a = ad.constant(np.arange(6.0).reshape(3, 2))
        out = ad.place_rows(a, [4, 0, 2], 5).data
        np.testing.assert_array_equal(out, [[2, 3], [0, 0], [4, 5], [0, 0], [0, 1]])

    def test_place_rows_checks_places(self):
        a = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ad.ShapeError):  # two rows in one place
            ad.place_rows(a, [1, 0, 1], 4)
        with pytest.raises(ad.ShapeError):  # one place per row
            ad.place_rows(a, [1, 0], 4)
        with pytest.raises(IndexError):
            ad.place_rows(a, [1, 0, 4], 4)

    def test_concat_cols_round_trip(self):
        a = np.ones((2, 2))
        b = np.zeros((2, 3))
        out = ad.concat_cols([ad.constant(a), ad.constant(b)]).data
        np.testing.assert_array_equal(out[:, :2], a)
        np.testing.assert_array_equal(out[:, 2:], b)

    def test_part_is_the_numpy_block(self):
        x = np.arange(20.0).reshape(4, 5)
        out = ad.part(ad.constant(x), rows=slice(1, 3), cols=slice(2, 5)).data
        np.testing.assert_array_equal(out, x[1:3, 2:5])

    def test_part_needs_slices_of_a_matrix(self):
        m = ad.constant(np.zeros((3, 4)))
        with pytest.raises(ad.ShapeError):
            ad.part(m, rows=[0, 0])
        with pytest.raises(ad.ShapeError):
            ad.part(ad.constant(np.zeros(4)), cols=slice(0, 2))
        with pytest.raises(ad.ShapeError):
            ad.part(m, cols=slice(4, 6))

    def test_bias_and_query_shapes_checked(self):
        m, q, states = (ad.constant(np.zeros(s)) for s in ((2, 3), (2, 1, 4), (2, 5, 4)))
        with pytest.raises(ad.ShapeError):
            ad.matmul(m, ad.constant(np.zeros((3, 4))), bias=ad.constant(np.zeros(3)))
        with pytest.raises(ad.ShapeError):  # the bias is (b, t), one row per batch entry
            ad.dot_scores(q, states, np.zeros((2, 1, 5)))
        with pytest.raises(ad.ShapeError):  # weights over 4 positions, states hold 5
            ad.weighted_sum(ad.constant(np.zeros((2, 1, 4))), states)

    @settings(max_examples=25)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_stack_then_weighted_sum_is_matvec(self, b, t, h, seed):
        """weighted_sum over states stacked per step equals the per-batch matvec."""
        rng = np.random.default_rng(seed)
        states = [rng.normal(size=(b, h)) for _ in range(t)]
        w = rng.normal(size=(b, t))
        out = ad.weighted_sum(ad.constant(w[:, None]), ad.constant(np.stack(states, axis=1))).data[:, 0]
        expected = sum(w[:, k:k + 1] * states[k] for k in range(t))
        np.testing.assert_allclose(out, expected, atol=1e-12)
