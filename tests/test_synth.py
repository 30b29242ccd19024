import numpy as np
import pytest

from fsalign import synth
from fsalign.boxes import corners
from fsalign.synth import rgb_to_grayscale


class TestGenerateScene:
    def test_same_seed_bitwise_identical(self):
        a = synth.generate_scene(seed=7)
        b = synth.generate_scene(seed=7)
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.gray, b.gray)
        assert np.array_equal(a.eval_labels(), b.eval_labels())
        assert np.array_equal(a.eval_boxes(), b.eval_boxes())

    def test_single_object_range(self):
        spec = synth.SceneSpec(object_count_range=(1, 1))
        s = synth.generate_scene(spec, seed=3)
        assert len(s.eval_boxes()) == 1

    @pytest.mark.parametrize("seed", [85, 90, 93])
    def test_crowded_small_canvas_restarts_placement(self, seed):
        # the first object can leave no room for the second on this canvas;
        # the whole placement is redrawn instead of raising
        spec = synth.SceneSpec(canvas=(32, 32), object_count_range=(1, 2),
                               radius_range=(4, 6))
        s = synth.generate_scene(spec, seed=seed)
        boxes = s.eval_boxes()
        assert 1 <= len(boxes) <= 2
        for i, a in enumerate(boxes):
            assert 4 <= a[2] / 2 <= 6
            for b in boxes[i + 1:]:
                assert not synth._boxes_overlap(a, b)

    def test_class_frequencies_near_uniform(self):
        counts = {1: 0, 2: 0, 3: 0}
        total = 0
        for seed in range(1000):
            s = synth.generate_scene(seed=seed)
            for lab in s.eval_labels():
                counts[lab] += 1
                total += 1
        for lab, c in counts.items():
            assert abs(c / total - 1.0 / 3.0) < 0.05

    def test_gray_is_luma_exactly(self):
        s = synth.generate_scene(seed=11)
        np.testing.assert_array_equal(s.gray, rgb_to_grayscale(s.rgb))

    def test_boxes_are_tight_and_disjoint(self):
        s = synth.generate_scene(seed=13)
        for x0, y0, x1, y1 in corners(s.eval_boxes()):
            assert 0 <= x0 < x1 <= 64 and 0 <= y0 < y1 <= 64
        boxes = s.eval_boxes()
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert not synth._boxes_overlap(boxes[i], boxes[j], gap=0.0)

    def test_shapes_drawn_inside_their_boxes(self):
        s = synth.generate_scene(seed=17)
        bg = np.asarray(synth.SceneSpec().background)[:, None, None]
        diff = np.abs(s.rgb - bg).sum(axis=0) > 1e-9
        ys, xs = np.nonzero(diff)
        for y, x in zip(ys, xs):
            inside_any = any(
                x0 - 1 <= x + 0.5 <= x1 + 1 and y0 - 1 <= y + 0.5 <= y1 + 1
                for x0, y0, x1, y1 in corners(s.eval_boxes())
            )
            assert inside_any

    @pytest.mark.parametrize("shape", ["disk", "square", "triangle"])
    def test_window_mask_is_the_full_canvas_mask(self, shape):
        def full_mask(cx, cy, r, h, w):
            yy, xx = np.mgrid[0:h, 0:w]
            x, y = xx + 0.5, yy + 0.5
            if shape == "disk":
                return (x - cx) ** 2 + (y - cy) ** 2 <= r * r
            if shape == "square":
                return (np.abs(x - cx) <= r) & (np.abs(y - cy) <= r)
            inside = y <= cy + r
            inside &= (y - (cy - r)) >= 2.0 * (cx - x)
            inside &= (y - (cy - r)) >= 2.0 * (x - cx)
            return inside

        rng = np.random.default_rng(5)
        h, w = 40, 64
        cases = []
        for _ in range(200):
            r = float(rng.uniform(1.0, 18.0))
            cases.append((float(rng.uniform(r + 2.0, w - r - 2.0)),
                          float(rng.uniform(r + 2.0, h - r - 2.0)), r))
        for r in (1.0, 5.5, 7.25, 17.0):
            # the placement margin on every side, and on integer and half pixels
            cases += [(r + 2.0, r + 2.0, r), (w - r - 2.0, h - r - 2.0, r),
                      (float(round(w / 2)), h / 2 + 0.5, r)]
        # windows the canvas clips
        cases += [(0.3, 39.9, 6.0), (63.5, 0.0, 9.0), (-2.0, 20.0, 3.0)]
        for cx, cy, r in cases:
            rows, cols, mask = synth._shape_window(shape, cx, cy, r, h, w)
            want = full_mask(cx, cy, r, h, w)
            np.testing.assert_array_equal(mask, want[rows, cols])
            want[rows, cols] = False
            assert not want.any()


class TestDomainShift:
    def test_identity_shift_unchanged(self):
        s = synth.generate_scene(seed=19)
        shift = synth.DomainShiftSpec(
            color_shift=(0, 0, 0), fog_alpha=0.0, blur_radius=0.0, noise_std=0.0
        )
        t = synth.apply_domain_shift(s, shift, seed=0)
        assert np.array_equal(t.rgb, s.rgb)
        assert t.domain == "target"

    def test_smallest_blur_keeps_the_image(self):
        """At radius 1e-160, 2*r**2 is a positive subnormal, the kernel is
        [0, 1, 0] with no overflow on the way and the image is unchanged; at
        1e-200 it underflows to 0 and validation names the field."""
        s = synth.generate_scene(seed=19)
        plain = dict(color_shift=(0, 0, 0), fog_alpha=0.0, noise_std=0.0)
        with np.errstate(over="raise"):
            t = synth.apply_domain_shift(s, synth.DomainShiftSpec(blur_radius=1e-160,
                                                                  **plain))
        assert np.array_equal(t.rgb, s.rgb)
        with pytest.raises(ValueError, match="blur_radius"):
            synth.apply_domain_shift(s, synth.DomainShiftSpec(blur_radius=1e-200, **plain))

    def test_subnormal_blur_taps_raise_no_underflow(self):
        """At radius 0.026 the two off-centre taps are exp(-739.6), subnormal
        but nonzero: the blur raises no underflow error, and the kernel keeps
        the bits of the plain formula."""
        sigma = 0.026
        s = synth.generate_scene(seed=19)
        with np.errstate(under="raise"):
            kernel = synth._gaussian_kernel(sigma)
            synth._gaussian_blur(s.rgb, sigma)
        t = np.arange(-1.0, 2.0)
        with np.errstate(under="ignore"):
            want = np.exp(-(t * t) / (2.0 * sigma * sigma))
        assert np.array_equal(kernel, want / want.sum())
        assert 0.0 < kernel[0] < np.finfo(np.float64).tiny

    def test_full_fog_is_white(self):
        s = synth.generate_scene(seed=23)
        shift = synth.DomainShiftSpec(
            color_shift=(0, 0, 0), fog_alpha=1.0, blur_radius=0.0, noise_std=0.0
        )
        t = synth.apply_domain_shift(s, shift, seed=0)
        np.testing.assert_array_equal(t.rgb, np.ones_like(s.rgb))

    def test_half_fog_alpha_blend(self):
        s = synth.generate_scene(seed=29)
        shift = synth.DomainShiftSpec(
            color_shift=(0, 0, 0), fog_alpha=0.5, blur_radius=0.0, noise_std=0.0
        )
        t = synth.apply_domain_shift(s, shift, seed=0)
        np.testing.assert_allclose(t.rgb, 0.5 * s.rgb + 0.5, atol=1e-15)

    def test_gray_recomputed(self):
        s = synth.generate_scene(seed=31)
        t = synth.apply_domain_shift(s, synth.DomainShiftSpec(), seed=1)
        np.testing.assert_array_equal(t.gray, rgb_to_grayscale(t.rgb))

    def test_label_quarantine(self):
        s = synth.generate_scene(seed=37)
        t = synth.apply_domain_shift(s, synth.DomainShiftSpec(), seed=1)
        with pytest.raises(synth.LabelQuarantineError):
            _ = t.boxes
        with pytest.raises(synth.LabelQuarantineError):
            _ = t.labels
        assert len(t.eval_boxes()) == len(s.eval_boxes())

    def test_blur_wider_than_the_image_is_rejected(self):
        """A blur radius up to the image's shorter side blurs; past it the
        shift names the field before any padding, where a radius of 1e6
        asked np.pad for 262 TiB."""
        s = synth.generate_scene(synth.SceneSpec(canvas=(32, 40), object_count_range=(1, 1),
                                                 radius_range=(4, 6)), seed=19)
        synth.apply_domain_shift(s, synth.DomainShiftSpec(blur_radius=32.0), seed=0)
        for radius in (32.5, 1e6):
            with pytest.raises(ValueError, match="blur_radius"):
                synth.apply_domain_shift(s, synth.DomainShiftSpec(blur_radius=radius), seed=0)


def per_row_blur(img, sigma):
    """The blur as a loop: each channel reflect-padded on its own, then
    every padded row and every column of that result convolved on its own."""
    kernel = synth._gaussian_kernel(sigma)
    radius = len(kernel) // 2
    out = np.empty_like(img)
    for c in range(img.shape[0]):
        padded = np.pad(img[c], radius, mode="reflect")
        rows = np.array([np.convolve(v, kernel, mode="valid") for v in padded])
        out[c] = np.array([np.convolve(v, kernel, mode="valid") for v in rows.T]).T
    return out


# 3, 5, 7, 11, 13, 19 and 31 taps: numpy's convolve sums up to 11 taps in a
# loop of its own and longer kernels with BLAS ddot
BLUR_SIGMAS = (0.3, 0.6, 1.0, 1.5, 1.7, 3.0, 5.0)


class TestGaussianBlur:
    @pytest.mark.parametrize("shape, sigma", [
        (shape, sigma) for shape in ((3, 64, 64), (3, 20, 47), (2, 33, 9), (1, 1, 6))
        for sigma in BLUR_SIGMAS if sigma <= min(shape[1:])
    ] + [
        # sigma = the shorter side: the reflect pad, 3 sigma, is wider than
        # the image on both axes
        ((3, 7, 12), 7.0), ((3, 12, 7), 7.0), ((2, 2, 3), 2.0),
    ])
    def test_matches_the_per_row_loop_bit_for_bit(self, shape, sigma):
        img = np.random.default_rng(sum(shape)).random(shape)
        before = img.copy()
        out = synth._gaussian_blur(img, sigma)
        assert out.shape == img.shape and out.dtype == np.float64
        assert out.flags.c_contiguous and not np.shares_memory(out, img)
        assert out.tobytes() == per_row_blur(img, sigma).tobytes()
        assert img.tobytes() == before.tobytes()

    def test_tap_counts_span_both_convolve_paths(self):
        assert [len(synth._gaussian_kernel(s)) for s in BLUR_SIGMAS] == [3, 5, 7, 11, 13, 19, 31]


class TestGenerateProposals:
    def test_zero_jitter_equals_ground_truth(self):
        s = synth.generate_scene(seed=41)
        noise = synth.ProposalNoiseSpec(jitter_std=0.0, redundancy=3,
                                        background_count=0)
        pset = synth.generate_proposals(s, noise, seed=0)
        assert np.array_equal(pset.boxes, np.repeat(s.eval_boxes(), 3, axis=0))

    def test_fixed_seed_deterministic(self):
        s = synth.generate_scene(seed=43)
        a = synth.generate_proposals(s, seed=5)
        b = synth.generate_proposals(s, seed=5)
        assert np.array_equal(a.boxes, b.boxes)
        assert np.array_equal(a.objectness, b.objectness)

    def test_jitter_mean_displacement_near_zero(self):
        spec = synth.SceneSpec(object_count_range=(1, 1))
        noise = synth.ProposalNoiseSpec(jitter_std=1.0, redundancy=100,
                                        background_count=0)
        disp = []
        for seed in range(100):
            s = synth.generate_scene(spec, seed=seed)
            pset = synth.generate_proposals(s, noise, seed=seed)
            disp.append(pset.boxes[:, :2] - s.eval_boxes()[0, :2])
        disp = np.concatenate(disp)
        n = len(disp)
        assert n == 10_000
        # mean displacement within 3 sigma / sqrt(n) of zero per axis
        bound = 3.0 / np.sqrt(n)
        assert np.all(np.abs(disp.mean(axis=0)) < bound * 1.5 + 0.01)

    def test_background_margin_respected(self):
        s = synth.generate_scene(seed=47)
        noise = synth.ProposalNoiseSpec(background_count=4, background_margin=12.0)
        pset = synth.generate_proposals(s, noise, seed=3)
        centers = s.eval_boxes()[:, :2]
        for bx, by, _, _ in pset.boxes[-4:]:
            d = np.sqrt(((centers - [bx, by]) ** 2).sum(axis=1)).min()
            assert d >= 12.0

    def test_margin_unsatisfiable_raises(self):
        s = synth.generate_scene(synth.SceneSpec(object_count_range=(4, 4)), seed=53)
        noise = synth.ProposalNoiseSpec(background_count=1, background_margin=60.0)
        with pytest.raises(synth.PlacementError):
            synth.generate_proposals(s, noise, seed=0)


class TestPairCorpus:
    def test_sizes_and_domains(self):
        src, tgt = synth.build_pair_corpus(
            synth.SceneSpec(), synth.DomainShiftSpec(), synth.ProposalNoiseSpec(),
            n=4, base_seed=0,
        )
        assert len(src) == len(tgt) == 4
        assert all(s.domain == "source" for s, _ in src)
        assert all(t.domain == "target" for t, _ in tgt)

    def test_deterministic(self):
        a_src, a_tgt = synth.build_pair_corpus(
            synth.SceneSpec(), synth.DomainShiftSpec(), synth.ProposalNoiseSpec(),
            n=2, base_seed=9,
        )
        b_src, b_tgt = synth.build_pair_corpus(
            synth.SceneSpec(), synth.DomainShiftSpec(), synth.ProposalNoiseSpec(),
            n=2, base_seed=9,
        )
        assert np.array_equal(a_src[0][0].rgb, b_src[0][0].rgb)
        assert np.array_equal(a_tgt[1][0].rgb, b_tgt[1][0].rgb)
        assert np.array_equal(a_tgt[0][1].boxes, b_tgt[0][1].boxes)

    @pytest.mark.parametrize("domain", ["source", "target"])
    def test_a_later_start_gives_the_tail_of_the_stream(self, domain):
        specs = (synth.SceneSpec(), synth.DomainShiftSpec(), synth.ProposalNoiseSpec())
        whole = synth.domain_samples(domain, *specs, 5, 3)
        tail = synth.domain_samples(domain, *specs, 2, 3, start=3)
        assert len(tail) == 2
        for (a, pa), (b, pb) in zip(whole[3:], tail):
            assert (a.image_id, a.domain) == (b.image_id, b.domain)
            assert np.array_equal(a.rgb, b.rgb)
            assert np.array_equal(a.eval_labels(), b.eval_labels())
            assert np.array_equal(pa.boxes, pb.boxes)
            assert np.array_equal(pa.objectness, pb.objectness)

    def test_source_target_scenes_differ(self):
        src, tgt = synth.build_pair_corpus(
            synth.SceneSpec(), synth.DomainShiftSpec(), synth.ProposalNoiseSpec(),
            n=1, base_seed=4,
        )
        assert not np.array_equal(src[0][0].rgb, tgt[0][0].rgb)


class TestSample:
    @pytest.mark.parametrize("domain", ["source", "target"])
    @pytest.mark.parametrize("boxes, labels", [
        (np.ones((3, 4)), [1]),         # three boxes, one label
        (np.ones((1, 4)), [1, 2]),      # one box, two labels
        (np.ones((4, 3)), [1, 1, 1, 1]),  # rows of three coordinates
        (np.ones(4), [1]),              # a bare box, not a (1, 4) row
        (np.ones((1, 4)), [[1]]),       # labels not one-dimensional
        ([[1, 1, np.nan, 2]], [1]),     # a NaN width
        ([[np.inf, 1, 2, 2]], [1]),     # an infinite center
        ([[1, 1, 0, 2]], [1]),          # a zero width
        ([[1, 1, 2, -1]], [1]),         # a negative height
        (np.ones((1, 4)), [1.7]),       # a label that is no integer
        (np.ones((1, 4)), [7]),         # a label that is no class id
        (np.ones((1, 4)), [0]),         # the background id is no object's label
    ])
    def test_truth_that_does_not_pair_up_is_rejected(self, domain, boxes, labels):
        with pytest.raises(ValueError, match="G labels"):
            synth.Sample(domain, np.zeros((3, 8, 8)), boxes, labels)

    def test_an_image_that_is_not_three_channel_is_rejected(self):
        with pytest.raises(ValueError, match="3, H, W"):
            synth.Sample("source", np.zeros((1, 8, 8)), np.ones((1, 4)), [1])

    def test_only_the_stream_names_a_sample(self):
        scene = synth.generate_scene(seed=5)
        assert scene.image_id is None
        assert synth.apply_domain_shift(scene, seed=6).image_id is None
        specs = (synth.SceneSpec(), synth.DomainShiftSpec(), synth.ProposalNoiseSpec())
        for domain, prefix in (("source", "src"), ("target", "tgt")):
            names = [s.image_id for s, _ in synth.domain_samples(domain, *specs, 2, 3, start=9)]
            assert names == [f"{prefix}00009", f"{prefix}00010"]


class TestGrayscale:
    def test_white(self):
        img = np.ones((3, 2, 2))
        np.testing.assert_allclose(rgb_to_grayscale(img), np.ones((1, 2, 2)))

    def test_black(self):
        img = np.zeros((3, 2, 2))
        np.testing.assert_array_equal(rgb_to_grayscale(img), np.zeros((1, 2, 2)))

    def test_pure_red(self):
        img = np.zeros((3, 1, 1))
        img[0] = 1.0
        assert rgb_to_grayscale(img)[0, 0, 0] == pytest.approx(0.299)

    def test_wrong_channels_rejected(self):
        with pytest.raises(ValueError):
            rgb_to_grayscale(np.zeros((4, 2, 2)))
