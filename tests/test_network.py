import hashlib
import math

import numpy as np
import pytest

from fsalign import autodiff as ad
from fsalign import network as net
from fsalign import synth, training
from fsalign.grouping import cluster_box_centers


@pytest.fixture(scope="module")
def small_net():
    return net.SeparationNet(net.NetworkSpec(), seed=0)


class TestBackbone:
    def test_shapes_follow_stride_plan(self, small_net):
        img = np.zeros((1, 3, 32, 32))
        f1, f2, f3 = small_net.forward_backbone(img)
        assert f1.value.shape == (1, 8, 16, 16)
        assert f2.value.shape == (1, 16, 8, 8)
        assert f3.value.shape == (1, 32, 4, 4)
        with pytest.raises(ValueError, match="batch"):
            small_net.forward_backbone(img[0])

    def test_zero_weights_zero_features(self):
        n = net.SeparationNet(seed=0)
        for _, p in n.named_params():
            p.value[:] = 0.0
        f1, f2, f3 = n.forward_backbone(np.zeros((1, 3, 16, 16)))
        assert not f1.value.any() and not f2.value.any() and not f3.value.any()

    def test_indivisible_shape_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.forward_backbone(np.zeros((1, 3, 30, 30)))

    def test_finite_outputs_on_random_input(self, small_net):
        rng = np.random.default_rng(1)
        f1, f2, f3 = small_net.forward_backbone(rng.uniform(size=(1, 3, 16, 16)))
        for f in (f1, f2, f3):
            assert np.all(np.isfinite(f.value))


class TestReconstruct:
    def test_channel_concatenation_shape(self, small_net):
        d = ad.Tensor(np.zeros((1, 32, 2, 2)))
        f3 = ad.Tensor(np.zeros((1, 32, 2, 2)))
        out = small_net.reconstruct(d, f3)
        assert out.value.shape == (1, 1, 16, 16)

    def test_zero_weights_constant_bias_image(self):
        n = net.SeparationNet(seed=3)
        for name, p in n.named_params():
            if name.endswith(".w"):
                p.value[:] = 0.0
        n.dec[2].b.value[:] = 0.25
        out = n.reconstruct(ad.Tensor(np.zeros((1, 32, 2, 2))),
                            ad.Tensor(np.zeros((1, 32, 2, 2))))
        np.testing.assert_allclose(out.value, 0.25)

    def test_spatial_mismatch_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.reconstruct(
                ad.Tensor(np.zeros((1, 32, 2, 2))), ad.Tensor(np.zeros((1, 32, 4, 4)))
            )


class TestEncodePrivate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pair_equals_each_domain_stack_on_its_own_image(self, seed):
        """One call on the (2, 1, H, W) pair against `enc_s` on the source
        image and `enc_t` on the target image, layer by layer: the value and
        every encoder parameter's gradient."""
        n = net.SeparationNet(net.NetworkSpec(channels=(4, 6, 8)), seed=seed)
        rng = np.random.default_rng(seed)
        gray = rng.uniform(size=(2, 1, 16, 24))
        g = rng.normal(size=(2, 8, 2, 3))
        encoders = n.enc_s + n.enc_t
        pair = n.encode_private(gray)
        pair.backward(g)
        pair_grads = [(m.w.grad, m.b.grad) for m in encoders]
        for m in encoders:
            m.w.grad = m.b.grad = None
        for i, stack in enumerate((n.enc_s, n.enc_t)):
            h = gray[i : i + 1]
            for conv in stack:
                h = ad.tanh(ad.conv2d(h, *conv, stride=2))
            h.backward(g[i : i + 1])
            assert h.shape == (1,) + pair.shape[1:]
            assert np.abs(pair.value[i] - h.value[0]).max() <= 1e-13 * np.abs(h.value).max()
        for m, (gw, gb) in zip(encoders, pair_grads):
            for got, want in ((gw, m.w.grad), (gb, m.b.grad)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_needs_the_pair(self, small_net):
        with pytest.raises(ValueError, match="kernel stack of 2 for 1 images"):
            small_net.encode_private(np.zeros((1, 1, 16, 16)))


def _conv_layer(rng, cin, cout):
    """A 3x3 conv `Layer` with a fan-in scaled kernel and a random bias."""
    w = rng.normal(0.0, math.sqrt(1.0 / (cin * 9)), size=(cout, cin, 3, 3))
    return net.Layer(ad.Tensor(w), ad.Tensor(rng.normal(size=cout)))


class TestUpsampleConv:
    """The decoder block (`ad.upsample_conv2d`) against a 3x3 conv of the
    explicit nearest 2x upsampling: value and the x, w and b gradients."""

    # the three decoder blocks of the default spec, then odd and 1x1 maps
    @pytest.mark.parametrize("cin, cout, h, w", [
        (64, 16, 8, 8), (16, 8, 16, 16), (8, 1, 32, 32), (3, 2, 5, 7), (2, 3, 1, 1),
    ])
    def test_matches_conv_of_upsampled(self, cin, cout, h, w):
        rng = np.random.default_rng(cin * 100 + cout + h * w)
        conv = _conv_layer(rng, cin, cout)
        xv = rng.normal(size=(1, cin, h, w))
        g = rng.normal(size=(1, cout, 2 * h, 2 * w))
        results = []
        for block in (lambda x: ad.upsample_conv2d(x, conv.w, conv.b),
                      lambda x: ad.conv2d(ad.upsample2x(x), conv.w, conv.b, 1, 1)):
            conv.w.grad = conv.b.grad = None
            x = ad.Tensor(xv)
            out = block(x)
            out.backward(g)
            results.append((out.value, x.grad, conv.w.grad, conv.b.grad))
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_batch_matches_conv_of_upsampled(self):
        """An N = 2 batch against the explicit upsampling of each image."""
        rng = np.random.default_rng(77)
        conv = _conv_layer(rng, 6, 4)
        xv = rng.normal(size=(2, 6, 3, 5))
        g = rng.normal(size=(2, 4, 6, 10))
        x = ad.Tensor(xv)
        out = ad.upsample_conv2d(x, conv.w, conv.b)
        out.backward(g)
        got = (out.value, x.grad, conv.w.grad, conv.b.grad)
        conv.w.grad = conv.b.grad = None
        xs = [ad.Tensor(v[None]) for v in xv]
        outs = [ad.conv2d(ad.upsample2x(xi), conv.w, conv.b, 1, 1) for xi in xs]
        ad.sum(ad.concat(outs) * g).backward()
        want = (np.concatenate([o.value for o in outs]),
                np.concatenate([xi.grad for xi in xs]), conv.w.grad, conv.b.grad)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


class TestGlobalPool:
    def test_constant_map(self):
        f = np.full((1, 3, 4, 5), 3.0)
        np.testing.assert_array_equal(net.global_pool(f).value, [[3.0, 3.0, 3.0]])

    def test_singleton(self):
        np.testing.assert_array_equal(
            net.global_pool(np.full((1, 1, 1, 1), 2.5)).value, [[2.5]]
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(2, 4, 5, 5))
        want = [[sum(fc.ravel().tolist()) / fc.size for fc in fi] for fi in f]
        np.testing.assert_allclose(net.global_pool(f).value, want, atol=1e-12)
        with pytest.raises(ValueError, match="batch"):
            net.global_pool(f[0])


class TestCropPool:
    def test_whole_image_equals_global_pool(self):
        rng = np.random.default_rng(5)
        fmap = rng.normal(size=(6, 4, 4))
        box = np.array([16.0, 16.0, 32.0, 32.0])
        got = net.crop_pool(fmap, box)
        np.testing.assert_array_equal(got.value, net.global_pool(fmap[None]).value[0])

    def test_constant_map_any_box(self):
        fmap = np.full((3, 4, 4), 1.5)
        box = np.array([9.0, 12.0, 6.0, 10.0])
        np.testing.assert_allclose(net.crop_pool(fmap, box).value, [1.5, 1.5, 1.5])

    def test_matches_brute_force_cell_average(self):
        rng = np.random.default_rng(6)
        fmap = rng.normal(size=(2, 8, 8))
        box = np.array([20.0, 30.0, 17.0, 9.0])
        got = net.crop_pool(fmap, box).value
        # cells covered by [11.5, 28.5] x [25.5, 34.5] at stride 8
        want = fmap[:, 3:5, 1:4].mean(axis=(1, 2))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_outside_box_rejected(self):
        fmap = np.zeros((1, 4, 4))
        with pytest.raises(ValueError):
            net.crop_pool(fmap, np.array([100.0, 4.0, 4.0, 4.0]))

    def test_gradient_flows(self):
        fmap = ad.Tensor(np.random.default_rng(7).normal(size=(2, 4, 4)))
        vec = net.crop_pool(fmap, np.array([8.0, 8.0, 8.0, 8.0]))
        ad.sum(vec).backward()
        assert fmap.grad is not None and fmap.grad.any()


def ref_roi_pool_matrix(boxes, hf, wf):
    """The per-box loop `roi_pool_matrix` replaced, kept as its reference."""
    a = np.zeros((len(boxes), hf, wf))
    for k, (bx, by, w, h) in enumerate(boxes.tolist()):
        x0, y0, x1, y1 = bx - w / 2.0, by - h / 2.0, bx + w / 2.0, by + h / 2.0
        x0, x1 = max(x0, 0.0), min(x1, float(wf * net.STRIDE))
        y0, y1 = max(y0, 0.0), min(y1, float(hf * net.STRIDE))
        if x1 <= x0 or y1 <= y0:
            raise ValueError("box does not intersect the image")
        j0 = max(int(math.floor(x0 / net.STRIDE)), 0)
        j1 = min(int(math.ceil(x1 / net.STRIDE)), wf)
        i0 = max(int(math.floor(y0 / net.STRIDE)), 0)
        i1 = min(int(math.ceil(y1 / net.STRIDE)), hf)
        a[k, i0:i1, j0:j1] = 1.0 / ((i1 - i0) * (j1 - j0))
    return a.reshape(len(boxes), hf * wf)


class TestRoiPool:
    """RoI and group pooling as matrices must reproduce crop_pool and the
    per-group mean of its rows."""

    @pytest.fixture(scope="class")
    def image(self):
        scene = synth.generate_scene(synth.SceneSpec(), seed=21)
        pset = synth.generate_proposals(scene, synth.ProposalNoiseSpec(), seed=22)
        # plus boxes that hang over each border and get clipped
        boxes = np.concatenate([pset.boxes, [
            [2.0, 30.0, 12.0, 6.0],
            [62.0, 63.0, 9.0, 7.0],
            [-1.0, -2.0, 10.0, 10.0],
        ]])
        fmap = np.random.default_rng(23).normal(size=(5, 8, 8))
        return fmap, boxes, pset

    def test_rows_match_crop_pool(self, image):
        fmap, boxes, _ = image
        a = net.roi_pool_matrix(boxes, 8, 8)
        got = a @ fmap.reshape(5, -1).T
        for k, box in enumerate(boxes):
            np.testing.assert_allclose(got[k], net.crop_pool(fmap, box).value,
                                       rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=1e-12)

    def test_group_matrix_gives_group_means(self, image):
        fmap, _, pset = image
        boxes = pset.boxes
        groups, _, _ = cluster_box_centers(pset.centers())
        roi = net.roi_pool(fmap[None], net.roi_pool_matrix(boxes, 8, 8)).value
        got = net.group_mean_matrix(groups, len(boxes)) @ roi
        want = np.stack([
            np.stack([net.crop_pool(fmap, boxes[i]).value for i in members]).mean(axis=0)
            for members in groups
        ])
        assert len(groups) > 1 and max(len(m) for m in groups) > 1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_stacked_crop_pool(self, image):
        fmap, boxes, _ = image
        g = np.random.default_rng(24).normal(size=(len(boxes), 5))
        batch = ad.Tensor(fmap[None])
        net.roi_pool(batch, net.roi_pool_matrix(boxes, 8, 8)).backward(g)
        t = ad.Tensor(fmap)
        ad.stack([net.crop_pool(t, b) for b in boxes]).backward(g)
        np.testing.assert_allclose(batch.grad[0], t.grad, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="batch"):
            net.roi_pool(fmap, net.roi_pool_matrix(boxes, 8, 8))

    def test_matrix_equals_the_per_box_reference(self, image):
        _, boxes, _ = image
        rng = np.random.default_rng(25)
        # edges on multiples of 4 land on cell boundaries, where the rounding
        # outward decides the span
        grid = np.column_stack([rng.integers(0, 17, size=(40, 2)) * 4.0,
                                rng.integers(1, 9, size=(40, 2)) * 4.0])
        free = np.column_stack([rng.uniform(0.0, 64.0, size=(40, 2)),
                                rng.uniform(0.5, 40.0, size=(40, 2))])
        # a 5x7-cell span, where 1/(5*7) and 1/5/7 round apart
        boxes = np.concatenate([boxes, grid, free, [[20.0, 28.0, 40.0, 56.0]]])
        assert np.array_equal(net.roi_pool_matrix(boxes, 8, 8),
                              ref_roi_pool_matrix(boxes, 8, 8))
        outside = np.concatenate([boxes, [[100.0, 4.0, 4.0, 4.0]]])
        for build in (net.roi_pool_matrix, ref_roi_pool_matrix):
            with pytest.raises(ValueError, match="does not intersect"):
                build(outside, 8, 8)

    def test_outside_box_rejected(self):
        inside = np.array([8.0, 8.0, 4.0, 4.0])
        outside = np.array([100.0, 4.0, 4.0, 4.0])
        with pytest.raises(ValueError):
            net.roi_pool_matrix(np.stack([inside, outside]), 4, 4)
        with pytest.raises(ValueError):
            net.crop_pool(np.zeros((1, 4, 4)), outside)


class TestDomainHeads:
    def test_local_map_range_and_shape(self, small_net):
        rng = np.random.default_rng(8)
        f1, _, _ = small_net.forward_backbone(rng.uniform(size=(1, 3, 16, 16)))
        pmap, f_l = small_net.local_domain(f1)
        assert pmap.value.shape == (1, 1, 8, 8)
        assert np.all((pmap.value > 0) & (pmap.value < 1))
        assert isinstance(f_l, np.ndarray) and f_l.shape == (1, 8)

    def test_scalar_heads(self, small_net):
        rng = np.random.default_rng(9)
        _, f2, f3 = small_net.forward_backbone(rng.uniform(size=(1, 3, 16, 16)))
        p2, f_m = small_net.mid_domain(f2)
        p3, f_g = small_net.global_domain(f3)
        assert p2.value.shape == (1,) and p3.value.shape == (1,)
        assert isinstance(f_m, np.ndarray) and f_m.shape == (1, 16)
        assert isinstance(f_g, np.ndarray) and f_g.shape == (1, 16)
        fused = ad.concat([np.zeros((1, 8)), f_m, f_g, np.zeros((1, 32))], axis=1)
        p_ri = small_net.region_domain(fused)
        assert p_ri.value.shape == (1,) and 0.0 < p_ri.value[0] < 1.0
        with pytest.raises(ValueError, match="rows"):
            small_net.region_domain(fused.value[0])

    def test_region_domain_rows_backward(self):
        """Each row alone, as a (1, D) batch, and the (G, D) batch give the
        same probabilities and, summed, the same gradients."""
        model = net.SeparationNet(net.NetworkSpec(), seed=0)
        params = [*model.dri_hidden, *model.dri_out]
        rows = np.random.default_rng(11).normal(size=(3, model.dri_hidden.w.value.shape[0]))

        def grads(inputs):
            for p in params:
                p.grad = None
            probs = []
            for x in inputs:
                p = model.region_domain(x)
                ad.sum(p).backward()
                probs.append(p.value)
            return probs, [p.grad for p in params], [x.grad for x in inputs]

        single = [ad.Tensor(r[None]) for r in rows]
        batch = ad.Tensor(rows)
        p1, w1, x1 = grads(single)
        p3, w3, x3 = grads([batch])
        assert p1[0].shape == (1,) and p3[0].shape == (3,)
        np.testing.assert_allclose(np.concatenate(p1), p3[0], rtol=1e-12)
        for a, b in zip(w1, w3):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(np.concatenate(x1), x3[0], rtol=1e-12, atol=1e-15)

    def test_detector_head_shapes(self, small_net):
        feats = ad.Tensor(np.random.default_rng(10).normal(size=(5, 32)))
        logits, deltas = small_net.detector_head(feats)
        assert logits.value.shape == (5, 4)
        assert deltas.value.shape == (5, 4)


class TestDetectorLosses:
    def boxes(self):
        gt = np.array([[10, 10, 8, 8], [40, 40, 10, 10]], dtype=float)
        props = np.array([
            [10.5, 10.2, 8, 8],   # matches gt0
            [39, 41, 10, 10],     # matches gt1
            [25, 25, 8, 8],       # background
        ])
        return props, gt, [1, 3]

    def test_target_assignment(self):
        props, gt, labels = self.boxes()
        lab, targets, pos = net.detector_targets(props, gt, labels)
        assert list(lab) == [1, 3, 0]
        assert pos == [0, 1]
        assert np.all(targets[2] == 0.0)

    def test_perfect_logits_vanishing_loss(self):
        props, gt, labels = self.boxes()
        lab, _, _ = net.detector_targets(props, gt, labels)
        logits = np.full((3, 4), -40.0)
        for i, l in enumerate(lab):
            logits[i, l] = 40.0
        l_c, _ = net.detector_losses(
            ad.Tensor(logits), ad.Tensor(np.zeros((3, 4))),
            net.detector_targets(props, gt, labels),
        )
        assert float(l_c.value) == pytest.approx(0.0, abs=1e-12)

    def test_zero_deltas_on_perfect_proposals(self):
        gt = np.array([[10.0, 10.0, 8.0, 8.0]])
        props = gt.copy()
        _, l_r = net.detector_losses(
            ad.Tensor(np.zeros((1, 4))), ad.Tensor(np.zeros((1, 4))),
            net.detector_targets(props, gt, [2]),
        )
        assert float(l_r.value) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        props, gt, labels = self.boxes()
        logits = rng.normal(size=(3, 4))
        deltas = rng.normal(size=(3, 4)) * 0.5
        l_c, l_r = net.detector_losses(
            ad.Tensor(logits), ad.Tensor(deltas), net.detector_targets(props, gt, labels)
        )
        lab, targets, pos = net.detector_targets(props, gt, labels)
        # brute-force cross-entropy
        want_c = 0.0
        for i in range(3):
            z = logits[i] - logits[i].max()
            want_c += -np.log(np.exp(z[lab[i]]) / np.exp(z).sum())
        want_c /= 3
        assert float(l_c.value) == pytest.approx(want_c, rel=1e-12)
        # brute-force smooth l1 over positives
        want_r = 0.0
        for i in pos:
            for j in range(4):
                dlt = deltas[i, j] - targets[i, j]
                want_r += 0.5 * dlt**2 if abs(dlt) < 1 else abs(dlt) - 0.5
        want_r /= len(pos)
        assert float(l_r.value) == pytest.approx(want_r, rel=1e-12)

    def test_no_proposals_rejected(self):
        with pytest.raises(ValueError):
            net.detector_targets(np.zeros((0, 4)), np.array([[1.0, 1.0, 2.0, 2.0]]), [1])


class TestDeterminism:
    def test_same_seed_same_params(self):
        a = net.SeparationNet(seed=42)
        b = net.SeparationNet(seed=42)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert np.array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        a = net.SeparationNet(seed=1)
        b = net.SeparationNet(seed=2)
        assert any(
            not np.array_equal(pa.value, pb.value)
            for (_, pa), (_, pb) in zip(a.named_params(), b.named_params())
        )


# sha256 over `named_params()` at seed 0, in order, of each parameter's name,
# shape and little-endian float64 values; recorded before the modules
# registered themselves as they are built
INIT_DIGESTS = {
    "default": "1535973377ffd2ac56248f9eb4c065beaea572b9455f156c40c2ba692ae1767c",
    "gradcheck": "ae967814f71a4558d7b5d3710a8230f6bb5853c530a14c92c791dce88ef16325",
}


@pytest.mark.parametrize("which", sorted(INIT_DIGESTS))
def test_initial_weights_are_pinned(which):
    """Names, order, shapes and values of the initial parameters are pinned,
    and `named_params` holds every tensor of every `Layer` the net's
    attributes reach, exactly once: a tensor left out would go untrained and
    unsaved."""
    spec = {"default": net.NetworkSpec(),
            "gradcheck": training.gradcheck_config().network}[which]
    n = net.SeparationNet(spec, seed=0)
    h = hashlib.sha256()
    for name, p in n.named_params():
        h.update(name.encode())
        h.update(repr(p.value.shape).encode())
        h.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    assert h.hexdigest() == INIT_DIGESTS[which]
    layers = [m for v in vars(n).values() for m in (v if isinstance(v, list) else [v])
              if isinstance(m, net.Layer)]
    names, params = zip(*n.named_params())
    assert len(layers) == 23
    assert len(set(names)) == len(names) == 46
    assert len({id(p) for p in params}) == len(params)
    assert sorted(id(p) for layer in layers for p in layer) == sorted(map(id, params))
