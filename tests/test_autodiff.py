import re
import traceback
import warnings

import numpy as np
import pytest

from fsalign import autodiff as ad


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def check_unary(op, x, tol=1e-7):
    t = ad.Tensor(x)
    out = ad.sum(op(t) * op(t))
    out.backward()
    num = numeric_grad(lambda v: float(np.sum(op(v).value ** 2)), x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


class TestElementwise:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_add_mul_broadcast(self):
        a = ad.Tensor(self.rng.normal(size=(3, 4)))
        b = ad.Tensor(self.rng.normal(size=(4,)))
        out = ad.sum((a + b) * (a * b))
        out.backward()
        fa = lambda v: float(np.sum((v + b.value) * (v * b.value)))
        fb = lambda v: float(np.sum((a.value + v) * (a.value * v)))
        np.testing.assert_allclose(a.grad, numeric_grad(fa, a.value.copy()), rtol=1e-6)
        np.testing.assert_allclose(b.grad, numeric_grad(fb, b.value.copy()), rtol=1e-6)

    def test_div(self):
        a = ad.Tensor(self.rng.normal(size=5))
        b = ad.Tensor(self.rng.normal(size=5) + 3.0)
        out = ad.sum(ad.div(a, b))
        out.backward()
        np.testing.assert_allclose(
            a.grad, numeric_grad(lambda v: float(np.sum(v / b.value)), a.value.copy()),
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            b.grad, numeric_grad(lambda v: float(np.sum(a.value / v)), b.value.copy()),
            rtol=1e-6,
        )

    def test_smooth_unaries(self):
        x = self.rng.normal(size=(2, 3)) * 0.5
        for op in (ad.exp, ad.tanh, ad.sigmoid):
            check_unary(op, x.copy())
        check_unary(ad.log, np.abs(x) + 0.5)

    def test_power(self):
        x = np.abs(self.rng.normal(size=6)) + 0.3
        t = ad.Tensor(x)
        out = ad.sum(ad.power(t, 2.5))
        out.backward()
        np.testing.assert_allclose(t.grad, 2.5 * x**1.5, rtol=1e-12)

    def test_power_zero_exponent_is_exactly_one(self):
        t = ad.Tensor([0.3, 0.9])
        out = ad.power(t, 0.0)
        assert np.all(out.value == 1.0)
        ad.sum(out).backward()
        assert np.all(t.grad == 0.0)

    def test_clip_gradient_masked(self):
        t = ad.Tensor([-2.0, 0.5, 2.0])
        ad.sum(ad.clip(t, 0.0, 1.0)).backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])

    def test_abs(self):
        t = ad.Tensor([-3.0, 2.0])
        ad.sum(ad.absolute(t)).backward()
        np.testing.assert_array_equal(t.grad, [-1.0, 1.0])


class TestShapeOps:
    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_matmul(self):
        a = ad.Tensor(self.rng.normal(size=(3, 4)))
        b = ad.Tensor(self.rng.normal(size=(4, 2)))
        out = ad.sum(ad.power(ad.matmul(a, b), 2.0))
        out.backward()
        fa = lambda v: float(np.sum((v @ b.value) ** 2))
        np.testing.assert_allclose(a.grad, numeric_grad(fa, a.value.copy()), rtol=1e-6)

    @pytest.mark.parametrize("dout", [3, 4])
    def test_matmul_vector_operands_match_rows(self, dout):
        # a (D,) operand must give the (1, D) row's values and gradients,
        # including when D equals the output width
        x = self.rng.normal(size=4)
        w = self.rng.normal(size=(4, dout))
        grads = []
        for xv in (x, x[None, :]):
            xt = ad.Tensor(xv)
            wt = ad.Tensor(w)
            out = ad.matmul(xt, wt)
            ad.sum(out * out).backward()
            assert xt.grad.shape == xv.shape and wt.grad.shape == w.shape
            grads.append((out.value.reshape(-1), xt.grad.reshape(-1), wt.grad))
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(grads[0][2], 2.0 * np.outer(x, x @ w), rtol=1e-12)

    def test_matmul_vector_right_and_inner_product(self):
        a = self.rng.normal(size=(3, 4))
        v = self.rng.normal(size=4)
        at, vt = ad.Tensor(a), ad.Tensor(v)
        ad.sum(ad.matmul(at, vt)).backward()
        np.testing.assert_allclose(at.grad, np.outer(np.ones(3), v), rtol=1e-12)
        np.testing.assert_allclose(vt.grad, a.sum(axis=0), rtol=1e-12)
        ut, wt = ad.Tensor(v), ad.Tensor(2.0 * v)
        out = ad.matmul(ut, wt)
        assert out.value.shape == ()
        out.backward()
        np.testing.assert_array_equal(ut.grad, 2.0 * v)
        np.testing.assert_array_equal(wt.grad, v)

    def test_mean_axis(self):
        a = ad.Tensor(self.rng.normal(size=(2, 3, 4)))
        out = ad.sum(ad.power(ad.mean(a, axis=(1, 2)), 2.0))
        out.backward()
        f = lambda v: float(np.sum(np.mean(v, axis=(1, 2)) ** 2))
        np.testing.assert_allclose(a.grad, numeric_grad(f, a.value.copy()), rtol=1e-6)

    def test_concat_stack_take_rows(self):
        a = ad.Tensor(self.rng.normal(size=(2, 3)))
        b = ad.Tensor(self.rng.normal(size=(1, 3)))
        cat = ad.concat([a, b], axis=0)
        sel = ad.take_rows(cat, [0, 2, 2])
        out = ad.sum(sel * sel)
        out.backward()
        fa = lambda v: float(
            np.sum(np.concatenate([v, b.value])[np.array([0, 2, 2])] ** 2)
        )
        np.testing.assert_allclose(a.grad, numeric_grad(fa, a.value.copy()), rtol=1e-6)
        rows = [ad.Tensor(self.rng.normal(size=4)) for _ in range(3)]
        out = ad.sum(ad.power(ad.stack(rows), 2.0))
        out.backward()
        for r in rows:
            np.testing.assert_allclose(r.grad, 2 * r.value, rtol=1e-12)

    def test_crop(self):
        a = ad.Tensor(self.rng.normal(size=(2, 5, 6)))
        out = ad.sum(ad.crop(a, 1, 3, 2, 5))
        out.backward()
        expect = np.zeros((2, 5, 6))
        expect[:, 1:3, 2:5] = 1.0
        np.testing.assert_array_equal(a.grad, expect)

    def test_diamond_graph_accumulates(self):
        x = ad.Tensor(2.0)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        assert float(x.grad) == pytest.approx(7.0, abs=1e-12)

    def test_backward_twice_through_a_shared_graph(self):
        # the second backward must not see the first one's interior grads
        x = ad.Tensor(2.0)
        h = x * x
        y1, y2 = h * 3.0, h * 5.0
        y1.backward()
        assert float(x.grad) == 12.0
        x.grad = None
        y2.backward()
        assert float(x.grad) == 20.0

    def test_transpose_axes(self):
        a = ad.Tensor(self.rng.normal(size=(2, 3, 4)))
        out = ad.transpose(a, (1, 2, 0))
        assert out.shape == (3, 4, 2)
        g = self.rng.normal(size=out.shape)
        out.backward(g)
        np.testing.assert_array_equal(a.grad, g.transpose(2, 0, 1))


class TestStructuredOps:
    def setup_method(self):
        self.rng = np.random.default_rng(13)

    def test_conv2d_matches_finite_differences(self):
        x = ad.Tensor(self.rng.normal(size=(1, 2, 6, 6)))
        w = ad.Tensor(self.rng.normal(size=(3, 2, 3, 3)) * 0.3)
        b = ad.Tensor(self.rng.normal(size=3))
        out = ad.sum(ad.power(ad.conv2d(x, w, b, stride=2, pad=1), 2.0))
        out.backward()
        fx = lambda v: float(np.sum(ad.conv2d(v, w.value, b.value, 2, 1).value ** 2))
        fw = lambda v: float(np.sum(ad.conv2d(x.value, v, b.value, 2, 1).value ** 2))
        fb = lambda v: float(np.sum(ad.conv2d(x.value, w.value, v, 2, 1).value ** 2))
        np.testing.assert_allclose(x.grad, numeric_grad(fx, x.value.copy()), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(w.grad, numeric_grad(fw, w.value.copy()), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(b.grad, numeric_grad(fb, b.value.copy()), rtol=1e-5, atol=1e-7)

    def test_conv2d_output_shape(self):
        x = np.zeros((1, 3, 32, 32))
        w = np.zeros((8, 3, 3, 3))
        b = np.zeros(8)
        assert ad.conv2d(x, w, b, stride=2, pad=1).shape == (1, 8, 16, 16)
        with pytest.raises(ValueError, match="batch"):
            ad.conv2d(x[0], w, b)

    def test_upsample2x(self):
        a = ad.Tensor(self.rng.normal(size=(1, 2, 2)))
        out = ad.upsample2x(a)
        assert out.value.shape == (1, 4, 4)
        ad.sum(out).backward()
        np.testing.assert_array_equal(a.grad, np.full((1, 2, 2), 4.0))

    def test_softmax_cross_entropy(self):
        logits = ad.Tensor(self.rng.normal(size=(5, 4)))
        labels = np.array([0, 3, 1, 2, 2])
        out = ad.softmax_cross_entropy(logits, labels)
        out.backward()
        f = lambda v: float(ad.softmax_cross_entropy(v, labels).value)
        np.testing.assert_allclose(
            logits.grad, numeric_grad(f, logits.value.copy()), rtol=1e-6, atol=1e-9
        )

    def test_smooth_l1(self):
        pred = ad.Tensor(self.rng.normal(size=(4, 4)) * 2.0)
        target = self.rng.normal(size=(4, 4))
        out = ad.smooth_l1(pred, target)
        out.backward()
        f = lambda v: float(ad.smooth_l1(v, target).value)
        np.testing.assert_allclose(
            pred.grad, numeric_grad(f, pred.value.copy()), rtol=1e-5, atol=1e-8
        )


def brute_conv2d(x, w, b, stride, pad):
    """Direct loop over output positions."""
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (xp.shape[1] - kh) // stride + 1
    ow = (xp.shape[2] - kw) // stride + 1
    out = np.empty((o, oh, ow))
    for y in range(oh):
        for z in range(ow):
            patch = xp[:, y * stride : y * stride + kh, z * stride : z * stride + kw]
            out[:, y, z] = np.tensordot(w, patch, axes=3) + b
    return out


def check_conv2d_adjoint(rng, xv, stride, pad, k, per_image=False):
    """Brute-force forward, then the adjoint identity of each gradient, for
    an (N, 3, H, W) batch; with `per_image` the kernels and biases are an
    (N, 4, 3, k, k) and (N, 4) stack, one per image."""
    lead = (len(xv),) if per_image else ()
    wv = rng.normal(size=lead + (4, 3, k, k))
    bv = rng.normal(size=lead + (4,))
    x, w, b = (ad.Tensor(v) for v in (xv, wv, bv))
    out = ad.conv2d(x, w, ad.Tensor(np.zeros(bv.shape)), stride, pad)
    if per_image:
        want = np.stack([brute_conv2d(xi, wi, bi, stride, pad)
                         for xi, wi, bi in zip(xv, wv, bv)])
    else:
        want = np.stack([brute_conv2d(xi, wv, bv, stride, pad) for xi in xv])
    np.testing.assert_allclose(ad.conv2d(xv, wv, bv, stride, pad).value, want,
                               rtol=1e-12, atol=1e-12)
    g = rng.normal(size=out.shape)
    out.backward(g)
    inner = float(np.sum(out.value * g))
    assert x.grad.shape == xv.shape
    assert float(np.sum(xv * x.grad)) == pytest.approx(inner, rel=1e-12)
    assert float(np.sum(wv * w.grad)) == pytest.approx(inner, rel=1e-12)
    with_b = ad.conv2d(xv, wv, b, stride, pad)
    with_b.backward(g)
    assert float(np.sum(bv * b.grad)) == pytest.approx(
        float(np.sum((with_b.value - out.value) * g)), rel=1e-12)


def check_no_input_gradient(out, w, b):
    """An input that is a constant is no parent of the conv's node and takes
    no slot in its vjp; the weight and bias gradients still come."""
    assert out._parents == (w, b)
    dw, db = out._vjp(np.ones(out.shape))
    assert dw.shape == w.shape and db.shape == b.shape


class TestConv2dAdjoint:
    """conv2d is linear in x (w fixed), in w (x fixed) and in b, so each
    gradient must satisfy the adjoint identity <conv, g> = <arg, d arg>."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("hw", [(6, 6), (7, 7), (5, 8)])
    def test_adjoint_identity(self, stride, pad, k, hw):
        rng = np.random.default_rng(100 * stride + 10 * pad + k + hw[1])
        check_conv2d_adjoint(rng, rng.normal(size=(1, 3, *hw)), stride, pad, k)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_adjoint_identity(self, stride, pad, k, n):
        rng = np.random.default_rng(1000 * n + 100 * stride + 10 * pad + k)
        check_conv2d_adjoint(rng, rng.normal(size=(n, 3, 5, 8)), stride, pad, k)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_per_image_kernels_adjoint_identity(self, stride, pad, k, n):
        rng = np.random.default_rng(5000 + 1000 * n + 100 * stride + 10 * pad + k)
        check_conv2d_adjoint(rng, rng.normal(size=(n, 3, 5, 8)), stride, pad, k,
                             per_image=True)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_per_image_kernels_match_one_call_per_image(self, stride, pad, k):
        """An (N, O, C, k, k) kernel stack against one shared-kernel call per
        image with that image's kernel: the value and the x, w and b
        gradients."""
        rng = np.random.default_rng(300 + 100 * stride + 10 * pad + k)
        n = 2
        xv = rng.normal(size=(n, 3, 7, 6))
        wv, bv = rng.normal(size=(n, 5, 3, k, k)), rng.normal(size=(n, 5))
        oh, ow = (7 + 2 * pad - k) // stride + 1, (6 + 2 * pad - k) // stride + 1
        g = rng.normal(size=(n, 5, oh, ow))
        x, w, b = (ad.Tensor(v) for v in (xv, wv, bv))
        out = ad.conv2d(x, w, b, stride, pad)
        out.backward(g)
        singles = []
        for i in range(n):
            xi, wi, bi = (ad.Tensor(v) for v in (xv[i : i + 1], wv[i], bv[i]))
            oi = ad.conv2d(xi, wi, bi, stride, pad)
            oi.backward(g[i : i + 1])
            singles.append((oi.value[0], xi.grad[0], wi.grad, bi.grad))
        for got, ref in zip((out.value, x.grad, w.grad, b.grad),
                            (np.stack(parts) for parts in zip(*singles))):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("w_shape, b_shape, match", [
        ((3, 4, 2, 3, 3), (3, 4), "kernel stack of 3 for 2 images"),
        ((1, 4, 2, 3, 3), (1, 4), "kernel stack of 1 for 2 images"),
        ((2, 4, 2, 3, 3), (4,), "bias shape"),
        ((4, 2, 3, 3), (2, 4), "bias shape"),
    ])
    def test_rejects_a_kernel_stack_of_the_wrong_size(self, w_shape, b_shape, match):
        with pytest.raises(ValueError, match=match):
            ad.conv2d(np.ones((2, 2, 5, 5)), np.ones(w_shape), np.ones(b_shape))

    @pytest.mark.parametrize("hw, k, stride, pad", [
        ((2, 2), 3, 1, 0), ((2, 2), 5, 1, 0), ((2, 5), 3, 2, 0),
        ((4, 4), 3, 0, 1), ((4, 4), 3, 2.0, 1), ((4, 4), 3, True, 1),
        ((4, 4), 3, 1, -1), ((4, 4), 3, 1, 0.5),
    ])
    def test_rejects_a_geometry_with_no_output(self, hw, k, stride, pad):
        """A stride that is not an integer >= 1, a pad that is not an
        integer >= 0, or a kernel larger than the padded input fails loudly
        and names the geometry, instead of giving an empty map or a numpy
        error."""
        geometry = f"{hw[0]}x{hw[1]} input, {k}x{k} kernel, stride {stride!r}, pad {pad!r}"
        with pytest.raises(ValueError, match=re.escape(geometry)):
            ad.conv2d(np.ones((1, 1, *hw)), np.ones((1, 1, k, k)), np.zeros(1), stride, pad)

    @pytest.mark.parametrize("per_image", [False, True])
    def test_pad0_conv_reads_its_input_and_g_in_place(self, per_image):
        """A pad-0 1x1 conv builds its patch stack as a view of the input,
        and its vjp leaves both the input and `g` as they were."""
        rng = np.random.default_rng(8)
        xv = rng.normal(size=(2, 4, 6, 5))
        assert ad._pad(xv, 0) is xv
        assert np.shares_memory(ad._im2col(xv, 1, 1, 1, 6, 5), xv)
        cols = xv.reshape(2, 4, 30)
        assert np.shares_memory(ad._col2im(cols, 1, 1, 1, 6, 5, 0), cols)
        lead = (2,) if per_image else ()
        x = ad.Tensor(xv.copy())
        w = ad.Tensor(rng.normal(size=lead + (3, 4, 1, 1)))
        b = ad.Tensor(rng.normal(size=lead + (3,)))
        out = ad.conv2d(x, w, b, stride=1, pad=0)
        g = rng.normal(size=out.shape)
        g_before = g.copy()
        dx, dw, db = out._vjp(g)
        assert x.value.tobytes() == xv.tobytes()
        assert g.tobytes() == g_before.tobytes()
        assert dx.shape == xv.shape and dw.shape == w.shape and db.shape == b.shape

    @pytest.mark.parametrize("stride, k, pad", [(1, 3, 1), (2, 3, 1), (1, 1, 0), (2, 1, 0)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_matches_stacked_images(self, stride, k, pad, n):
        """One batched call against one call per image: the value and the
        x, w and b gradients (the per-image w and b gradients summed)."""
        rng = np.random.default_rng(10 * n + stride + k)
        xv = rng.normal(size=(n, 3, 7, 6))
        wv, bv = rng.normal(size=(5, 3, k, k)), rng.normal(size=5)
        oh, ow = (7 + 2 * pad - k) // stride + 1, (6 + 2 * pad - k) // stride + 1
        g = rng.normal(size=(n, 5, oh, ow))
        x, w, b = (ad.Tensor(v) for v in (xv, wv, bv))
        out = ad.conv2d(x, w, b, stride, pad)
        out.backward(g)
        singles = []
        for i in range(n):
            xi, wi, bi = (ad.Tensor(v) for v in (xv[i : i + 1], wv, bv))
            oi = ad.conv2d(xi, wi, bi, stride, pad)
            oi.backward(g[i : i + 1])
            singles.append((oi.value[0], xi.grad[0], wi.grad, bi.grad))
        want = (np.stack([s[0] for s in singles]), np.stack([s[1] for s in singles]),
                sum(s[2] for s in singles), sum(s[3] for s in singles))
        for got, ref in zip((out.value, x.grad, w.grad, b.grad), want):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_no_input_gradient_for_a_constant_input(self):
        w = ad.Tensor(np.ones((3, 2, 3, 3)))
        b = ad.Tensor(np.zeros(3))
        check_no_input_gradient(ad.conv2d(np.ones((1, 2, 5, 5)), w, b, stride=2, pad=1),
                                w, b)


def loop_col2im(cols, kh, kw, stride, h, w, pad):
    """The scatter as one strided add per tap into a zeroed buffer, taps in
    (i, j) order, then cropped: the oracle of `_col2im`."""
    oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(len(cols), -1, kh, kw, oh, ow)
    out = np.zeros(cols.shape[:2] + (h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            out[..., i : i + stride * oh : stride,
                j : j + stride * ow : stride] += cols[:, :, i, j]
    return out[..., pad : pad + h, pad : pad + w]


class TestCol2im:
    @pytest.mark.parametrize("k, stride, pad", [
        (3, 2, 1), (4, 2, 1), (3, 1, 1), (1, 1, 0), (1, 1, 2), (1, 3, 0), (4, 3, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_per_tap_loop_bit_for_bit(self, k, stride, pad, n):
        """Bit for bit, signed zeros included, over entries of mixed
        magnitudes, some of them -0.0. A 1x1 stride-1 kernel gives `cols`
        itself, whose -0.0 the loop's 0.0 + -0.0 turns into 0.0; its values
        still equal the loop's."""
        rng = np.random.default_rng(100 * k + 10 * stride + pad + 1000 * n)
        h, w = 7, 6
        oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        cols = rng.normal(size=(n, 3 * k * k, oh * ow)) * 10.0 ** rng.integers(
            -8, 9, size=(n, 3 * k * k, oh * ow))
        cols[rng.random(cols.shape) < 0.2] = -0.0
        got, want = ad._col2im(cols, k, k, stride, h, w, pad), loop_col2im(
            cols, k, k, stride, h, w, pad)
        assert got.shape == want.shape == (n, 3, h, w)
        if k == stride == 1:
            np.testing.assert_array_equal(got, want)
            want = cols.reshape(n, 3, h + 2 * pad, w + 2 * pad)[
                ..., pad : pad + h, pad : pad + w]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_caches_one_read_only_index_per_geometry(self):
        index = ad._scatter_index((2, 3, 9, 8), 3, 3, 2)
        assert ad._scatter_index((2, 3, 9, 8), 3, 3, 2) is index
        assert not index.flags.writeable
        assert index.size == 2 * 3 * 9 * 4 * 3
        for other in (ad._scatter_index((1, 3, 9, 8), 3, 3, 2),
                      ad._scatter_index((2, 3, 9, 8), 4, 4, 2)):
            assert other is not index and other.size != index.size

    def test_the_index_cache_stays_bounded(self):
        info = ad._scatter_index.cache_info()
        for h in range(4, 4 + info.maxsize + 5):
            ad._scatter_index((1, 1, h, h), 3, 3, 2)
        assert ad._scatter_index.cache_info().currsize <= info.maxsize


class TestUpsampleConv2d:
    """upsample_conv2d is linear in x and in w, so its vjp must satisfy the
    adjoint identity <A x, y> = <x, A^T y> in each."""

    @pytest.mark.parametrize("shape", [(1, 1), (4, 3), (2, 5)])
    def test_adjoint_in_w(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        x = rng.normal(size=(1, shape[1], 3, 4))
        w = ad.Tensor(rng.normal(size=(*shape, 3, 3)))
        out = ad.upsample_conv2d(x, w, np.zeros(shape[0]))
        assert out.shape == (1, shape[0], 6, 8)
        y = rng.normal(size=out.shape)
        out.backward(y)
        assert float(np.sum(w.value * w.grad)) == pytest.approx(
            float(np.sum(out.value * y)), rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 4, 1, 1), (1, 8, 3, 5), (3, 2, 4, 4)])
    def test_adjoint_in_x(self, shape):
        rng = np.random.default_rng(sum(shape))
        n, c, h, wd = shape
        x = ad.Tensor(rng.normal(size=shape))
        w = rng.normal(size=(2, c, 3, 3))
        out = ad.upsample_conv2d(x, w, np.zeros(2))
        assert out.shape == (n, 2, 2 * h, 2 * wd)
        y = rng.normal(size=out.shape)
        out.backward(y)
        assert float(np.sum(x.value * x.grad)) == pytest.approx(
            float(np.sum(out.value * y)), rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 8, 3, 5), (3, 4, 1, 1), (2, 1, 6, 2)])
    def test_batch_matches_per_image(self, shape):
        """Each image of a batch gives its own value and input gradient; the
        weight and bias gradients sum over the images."""
        rng = np.random.default_rng(sum(shape) + 1)
        n, c, h, wd = shape
        xv = rng.normal(size=shape)
        wv, bv = rng.normal(size=(3, c, 3, 3)), rng.normal(size=3)
        g = rng.normal(size=(n, 3, 2 * h, 2 * wd))

        def run(xin, gin):
            x, w, b = ad.Tensor(xin), ad.Tensor(wv), ad.Tensor(bv)
            out = ad.upsample_conv2d(x, w, b)
            out.backward(gin)
            return out.value, x.grad, w.grad, b.grad

        batch = run(xv, g)
        singles = [run(xv[i : i + 1], g[i : i + 1]) for i in range(n)]
        want = (np.concatenate([s[0] for s in singles]),
                np.concatenate([s[1] for s in singles]),
                sum(s[2] for s in singles), sum(s[3] for s in singles))
        for got, ref in zip(batch, want):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_matches_brute_force_loops(self):
        """Value against the definition: nearest 2x upsampling by index,
        then a 3x3 pad-1 correlation, both as plain loops."""
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, 2))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        up = np.zeros((2, 6 + 2, 4 + 2))
        for r in range(6):
            for s in range(4):
                up[:, r + 1, s + 1] = x[:, r // 2, s // 2]
        want = np.zeros((2, 6, 4))
        for o in range(2):
            for r in range(6):
                for s in range(4):
                    want[o, r, s] = b[o] + np.sum(w[o] * up[:, r : r + 3, s : s + 3])
        np.testing.assert_allclose(ad.upsample_conv2d(x[None], w, b).value[0], want,
                                   rtol=1e-13, atol=1e-13)

    def test_no_input_gradient_for_a_constant_input(self):
        w = ad.Tensor(np.ones((3, 2, 3, 3)))
        b = ad.Tensor(np.zeros(3))
        check_no_input_gradient(ad.upsample_conv2d(np.ones((1, 2, 3, 3)), w, b), w, b)



class TestPhaseOps:
    """The geometry of upsample_conv2d: the transpose of a stride-2 pad-1
    conv whose 4x4 kernels fold each 3x3 kernel per axis."""

    def test_fold_gives_the_four_taps_per_axis(self):
        """A source row y reaches output rows 2y-1 .. 2y+2 with taps
        (w2, w1+w2, w0+w1, w0), on each axis: checked on every basis kernel."""
        def per_axis(v):
            return [v[2], v[1] + v[2], v[0] + v[1], v[0]]

        eye = np.eye(3)
        for p in range(3):
            for q in range(3):
                folded = ad._UPSAMPLE_FOLD @ np.outer(eye[p], eye[q]).ravel()
                np.testing.assert_array_equal(folded.reshape(4, 4),
                                              np.outer(per_axis(eye[p]), per_axis(eye[q])))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="3x3"):
            ad.upsample_conv2d(np.ones((1, 2, 2, 2)), np.ones((1, 2, 1, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="channel"):
            ad.upsample_conv2d(np.ones((1, 3, 2, 2)), np.ones((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="batch"):
            ad.upsample_conv2d(np.ones((2, 2, 2)), np.ones((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ValueError, match=r"bias shape \(1,\)"):
            ad.upsample_conv2d(np.ones((1, 2, 3, 3)), np.ones((3, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="no output position: 0x3 input"):
            ad.upsample_conv2d(np.ones((1, 2, 0, 3)), np.ones((1, 2, 3, 3)), np.zeros(1))


ACTIVATIONS = {None: lambda t: t, "tanh": ad.tanh, "sigmoid": ad.sigmoid}


def _fused_operands(values, kinds):
    """One call's operands: per `kinds` entry, "grad" a `Tensor`, "const"
    the plain array."""
    make = {"grad": ad.Tensor, "const": lambda v: v}
    return [make[k](v) for v, k in zip(values, kinds)]


def assert_fused_matches(fused, composed, values, kinds):
    """`fused(*operands)` is one node whose parents are the `Tensor`
    operands, and its value and every gradient equal those of
    `composed(*operands)`, the op composition it replaces, bit for bit."""
    got_args, want_args = _fused_operands(values, kinds), _fused_operands(values, kinds)
    got, want = fused(*got_args), composed(*want_args)
    assert got._parents == tuple(a for a in got_args if isinstance(a, ad.Tensor))
    assert got.value.tobytes() == want.value.tobytes()
    g = np.random.default_rng(len(values)).normal(size=got.shape)
    got.backward(g)
    want.backward(g)
    for a, b in zip(got_args, want_args):
        if isinstance(a, ad.Tensor):
            assert a.grad.shape == b.grad.shape
            assert a.grad.tobytes() == b.grad.tobytes()


KINDS = [("grad", "grad", "grad"), ("const", "grad", "const"), ("const", "grad", "grad"),
         ("grad", "const", "const")]


class TestFusedOps:
    """`affine`, `conv2d` and `upsample_conv2d` with an activation, and
    `conv2d` with per-image kernel operands, against the op compositions
    they replace."""

    @pytest.mark.parametrize("act", [None, "tanh", "sigmoid"])
    @pytest.mark.parametrize("kinds", KINDS)
    @pytest.mark.parametrize("x_shape", [(5, 4), (4,)])
    def test_affine(self, act, kinds, x_shape):
        rng = np.random.default_rng(21)
        values = [rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)]
        assert_fused_matches(lambda x, w, b: ad.affine(x, w, b, act=act),
                             lambda x, w, b: ACTIVATIONS[act](ad.matmul(x, w) + b),
                             values, kinds)

    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("kinds", KINDS)
    @pytest.mark.parametrize("stride, pad, k", [(1, 1, 3), (2, 1, 3), (1, 0, 1)])
    def test_conv2d(self, act, kinds, stride, pad, k):
        rng = np.random.default_rng(22)
        values = [rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(4, 3, k, k)),
                  rng.normal(size=4)]
        assert_fused_matches(
            lambda x, w, b: ad.conv2d(x, w, b, stride, pad, act=act),
            lambda x, w, b: ACTIVATIONS[act](ad.conv2d(x, w, b, stride, pad)),
            values, kinds)

    @pytest.mark.parametrize("act", [None, "tanh"])
    @pytest.mark.parametrize("x_kind", ["grad", "const"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_per_image_kernel_operands(self, act, x_kind, stride):
        """A sequence of each image's kernel and bias against one stacked
        kernel operand, `ad.stack` of them."""
        rng = np.random.default_rng(23)
        values = [rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(4, 3, 3, 3)),
                  rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4), rng.normal(size=4)]
        assert_fused_matches(
            lambda x, ws, wt, bs, bt: ad.conv2d(x, (ws, wt), [bs, bt], stride, act=act),
            lambda x, ws, wt, bs, bt: ACTIVATIONS[act](
                ad.conv2d(x, ad.stack([ws, wt]), ad.stack([bs, bt]), stride)),
            values, (x_kind,) + ("grad",) * 4)

    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("kinds", KINDS)
    def test_upsample_conv2d(self, act, kinds):
        rng = np.random.default_rng(24)
        values = [rng.normal(size=(2, 3, 3, 4)), rng.normal(size=(2, 3, 3, 3)),
                  rng.normal(size=2)]
        assert_fused_matches(
            lambda x, w, b: ad.upsample_conv2d(x, w, b, act=act),
            lambda x, w, b: ACTIVATIONS[act](ad.upsample_conv2d(x, w, b)),
            values, kinds)

    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("op", ["affine", "conv2d", "upsample_conv2d"])
    def test_non_finite_pre_activation_raises_in_the_op(self, op, act):
        """An overflowed pre-activation raises, though the activation would
        squash it to a finite value."""
        x = np.full((1, 2, 4, 4), 10.0)
        w = ad.Tensor(np.full((3, 2, 3, 3), 1e307))
        b = ad.Tensor(np.zeros(3))
        calls = {
            "affine": lambda: ad.affine(np.full(18, 10.0), w.value.reshape(3, 18).T, b,
                                        act=act),
            "conv2d": lambda: ad.conv2d(x, w, b, act=act),
            "upsample_conv2d": lambda: ad.upsample_conv2d(x, w, b, act=act),
        }
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as err:
            calls[op]()
        frames = [f.name for f in traceback.extract_tb(err.value.__traceback__)]
        assert frames[-1] == "_activate" and op in frames

    @pytest.mark.parametrize("act", [None, "tanh", "sigmoid"])
    @pytest.mark.parametrize("op", ["affine", "conv2d", "upsample_conv2d"])
    def test_one_finiteness_check_per_fused_node(self, op, act, monkeypatch):
        """The pre-activation is checked, or the output when there is no
        activation: never both."""
        x = np.ones((1, 2, 4, 4))
        w, b = ad.Tensor(np.ones((3, 2, 3, 3))), ad.Tensor(np.zeros(3))
        calls = {
            "affine": lambda: ad.affine(np.ones(18), w.value.reshape(3, 18).T, b, act=act),
            "conv2d": lambda: ad.conv2d(x, w, b, act=act),
            "upsample_conv2d": lambda: ad.upsample_conv2d(x, w, b, act=act),
        }
        checked = []
        all_finite = ad._all_finite
        monkeypatch.setattr(ad, "_all_finite", lambda v: checked.append(v.shape) or all_finite(v))
        calls[op]()
        assert len(checked) == 1

    def test_rejects_an_unknown_activation(self):
        with pytest.raises(ValueError, match="activation 'relu'"):
            ad.affine(np.ones(2), np.ones((2, 2)), np.zeros(2), act="relu")


class TestGRL:
    def test_forward_identity_bit_exact(self):
        x = ad.Tensor(np.array([1.0, -2.5, 3e-7]))
        y = ad.grl(x, 0.7)
        assert np.array_equal(y.value, x.value)

    def test_backward_scales_by_minus_lambda(self):
        x = ad.Tensor(np.array([1.0, 2.0]))
        ad.sum(ad.grl(x, 1.0) * 2.0).backward()
        np.testing.assert_array_equal(x.grad, [-2.0, -2.0])

    def test_lambda_zero_kills_gradient(self):
        x = ad.Tensor(np.array([4.0]))
        ad.sum(ad.grl(x, 0.0) * 5.0).backward()
        assert np.all(x.grad == 0.0)

    def test_exact_scaling_of_random_upstream(self):
        rng = np.random.default_rng(3)
        g_up = rng.normal(size=8)
        x = ad.Tensor(np.zeros(8))
        y = ad.grl(x, 0.1)
        y.backward(seed=g_up)
        np.testing.assert_array_equal(x.grad, -0.1 * g_up)

    def test_sign_symmetry_on_upstream_params(self):
        rng = np.random.default_rng(14)
        w = ad.Tensor(rng.normal(size=(3, 3)))
        x = rng.normal(size=(2, 3))
        grads = {}
        for lam in (1.0, -1.0):
            w.grad = None
            y = ad.grl(ad.affine(x, w, np.zeros(3)), lam)
            ad.sum(y * y).backward()
            grads[lam] = w.grad.copy()
        np.testing.assert_array_equal(grads[1.0], -grads[-1.0])


class TestFiniteGuard:
    def test_nan_raises(self):
        with pytest.raises(FloatingPointError):
            ad.Tensor([np.nan])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_raises_on_the_last_entry_of_a_feature_batch(self, bad):
        v = np.random.default_rng(0).normal(size=(2, 8, 32, 32))
        v[-1, -1, -1, -1] = bad
        with pytest.raises(FloatingPointError):
            ad.Tensor(v)

    def test_an_overflowing_sum_of_finite_entries_neither_raises_nor_warns(self):
        v = np.array([1e308, 1e308])
        with np.errstate(over="raise"):
            assert ad.Tensor(v).value.tobytes() == v.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ad.Tensor(v).value.tobytes() == v.tobytes()

    @pytest.mark.parametrize("bad", [[1e308, np.inf], [np.nan], [np.inf, -np.inf]])
    def test_non_finite_entries_raise_under_any_error_setting(self, bad):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="non-finite"):
            ad.Tensor(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite"):
                ad.Tensor(bad)

    def test_finite_entries_whose_sum_overflows_pass(self):
        with np.errstate(over="ignore"):
            t = ad.Tensor(np.full(4, 1e308))
        assert t.value.tobytes() == np.full(4, 1e308).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("op", ["add", "matmul", "concat", "conv2d"])
    def test_non_finite_constant_raises_at_the_op_reading_it(self, op, bad):
        """A constant makes no node, so its own values are not checked; the
        node of the op that reads it is."""
        t = ad.Tensor(np.ones((2, 3)))
        c = np.ones((2, 3))
        c[1, 2] = bad
        calls = {
            "add": lambda: ad.add(t, c),
            "matmul": lambda: ad.matmul(t, c.T),
            "concat": lambda: ad.concat([t, c], axis=0),
            "conv2d": lambda: ad.conv2d(c[None, None], ad.Tensor(np.ones((1, 1, 3, 3))),
                                        ad.Tensor(np.zeros(1))),
        }
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as err:
            calls[op]()
        frames = [f.name for f in traceback.extract_tb(err.value.__traceback__)]
        assert frames[-1] == "__init__" and op in frames

    def test_log_of_negative_raises(self):
        t = ad.Tensor([-1.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError):
                ad.log(t)


class TestConstantOperands:
    """A plain array operand is a constant: it is no parent and takes no
    slot in the vjp, and the other operand's gradient is the one it gets
    when both are `Tensor`s."""

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    @pytest.mark.parametrize("const", [0, 1])
    def test_plain_operand_takes_no_slot(self, op, const):
        """A plain array operand gives the value and the other operand's
        gradient of a `Tensor` operand, as a node whose one parent is the
        other operand."""
        rng = np.random.default_rng(5)
        av, bv = rng.normal(size=(3, 4)), rng.normal(size=4) + 3.0
        g = rng.normal(size=(3, 4))
        live = 1 - const
        args = [ad.Tensor(av), ad.Tensor(bv)]
        want = op(*args)
        args[const] = args[const].value
        got = op(*args)
        assert got._parents == (args[live],)
        assert got.value.tobytes() == want.value.tobytes()
        (grad,) = got._vjp(g)
        assert grad.tobytes() == want._vjp(g)[live].tobytes()

    def test_constant_operands_give_a_parentless_tensor(self):
        x = np.array([0.2, 0.4])
        for out in (ad.log(x), ad.mean(x), ad.matmul(x, x), ad.concat([x, x])):
            assert isinstance(out, ad.Tensor)
            assert out._parents == ()
        assert ad.log(x).value.tobytes() == np.log(x).tobytes()


class TestMean:
    @pytest.mark.parametrize("axis, keepdims", [
        (None, False), (None, True), ((1, 2), False), (-1, False), ((-2, -1), True),
    ])
    def test_equals_sum_then_div_bit_for_bit(self, axis, keepdims):
        rng = np.random.default_rng(11)
        av = rng.normal(size=(2, 3, 5))
        g_shape = np.sum(av, axis=axis, keepdims=keepdims).shape
        g = rng.normal(size=g_shape)
        a = ad.Tensor(av)
        got = ad.mean(a, axis=axis, keepdims=keepdims)
        got.backward(g)
        got_grad, a.grad = a.grad, None
        n = av.size // int(np.prod(g_shape))
        want = ad.div(ad.sum(a, axis=axis, keepdims=keepdims), float(n))
        want.backward(g)
        assert got.value.shape == want.value.shape
        assert got.value.tobytes() == want.value.tobytes()
        assert got_grad.tobytes() == a.grad.tobytes()



class TestSGD:
    def test_momentum_trajectory(self):
        p = ad.Tensor([1.0])
        opt = ad.SGD([p], lr=0.1, momentum=0.5)
        # constant gradient of 1: v_1 = 1, v_2 = 1.5
        for expected in (1.0 - 0.1, 0.9 - 0.15):
            p.grad = np.ones(1)
            opt.step()
            assert float(p.value[0]) == pytest.approx(expected, abs=1e-15)


