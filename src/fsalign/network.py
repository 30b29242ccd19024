"""Toy detection network for two-domain adversarial training.

Pieces: a three-stage strided backbone (strides 2/4/8), one private encoder
per domain over the grayscale image, a shared decoder that reconstructs the
grayscale image from [private, shared] channel fusion, three level-wise
domain classifiers (per-location on f1, pooled on f2/f3), a region-instance
domain classifier over pooled fused group features, and a detector head over
crop-pooled f3 producing class logits and box deltas per proposal.

Each decoder block is a 3x3 convolution of a nearest 2x upsampling. It runs
at the resolution of its input, as one convolution with four phase kernels
per output map (one per output row and column parity) whose outputs are
interleaved; the upsampled map is never built. The parameters keep their
plain (O, C, 3, 3) kernel shapes.

Everything is built on the minimal autodiff engine; adversarial branches are
wired through gradient reversal by the trainer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .grouping import encode_deltas, iou


@dataclass
class NetworkSpec:
    """Channel plan and head widths; shapes are validated when run.

    The level domain classifiers are linear (affine stacks without a
    nonlinearity): they stay near their convex optimum while the features
    drift, which keeps the reversed gradient pointing at genuine
    distribution differences. `domain_head_gain` rescales their pooled
    inputs (spatially pooled tanh features are small) so the classifiers
    train at a sane rate under the shared learning rate.
    """

    channels: tuple = (8, 16, 32)
    d1_hidden: int = 8
    d23_hidden: int = 16
    dri_hidden: int = 32
    head_hidden: int = 64
    num_classes: int = 3  # object classes; background is logit index 0
    domain_head_gain: float = 8.0

    @property
    def stride(self):
        return 8

    def validate(self):
        if len(self.channels) != 3 or any(c < 1 for c in self.channels):
            raise ValueError("channels must be three positive counts")
        if self.num_classes < 1:
            raise ValueError("need at least one object class")
        if self.domain_head_gain <= 0:
            raise ValueError("domain_head_gain must be positive")


class Conv2d:
    def __init__(self, cin, cout, rng, ksize=3, stride=1, pad=1):
        std = math.sqrt(1.0 / (cin * ksize * ksize))
        self.w = ad.parameter(rng.normal(0.0, std, size=(cout, cin, ksize, ksize)))
        self.b = ad.parameter(np.zeros(cout))
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return ad.conv2d(x, self.w, self.b, stride=self.stride, pad=self.pad)

    def params(self):
        return [("w", self.w), ("b", self.b)]


class Affine:
    def __init__(self, din, dout, rng):
        std = math.sqrt(1.0 / din)
        self.w = ad.parameter(rng.normal(0.0, std, size=(din, dout)))
        self.b = ad.parameter(np.zeros(dout))

    def __call__(self, x):
        return ad.matmul(x, self.w) + self.b

    def params(self):
        return [("w", self.w), ("b", self.b)]


def _cell_span(box, stride, hf, wf):
    """Feature cells (i0, i1, j0, j1) a pixel-space box covers on an
    (hf, wf) map.

    The box is clipped to the image bounds first; covered cells are the
    stride-scaled span rounded outward. An empty span after clipping is an
    error.
    """
    h, w = hf * stride, wf * stride
    x0, y0, x1, y1 = box.corners()
    x0, x1 = max(x0, 0.0), min(x1, float(w))
    y0, y1 = max(y0, 0.0), min(y1, float(h))
    if x1 <= x0 or y1 <= y0:
        raise ValueError("box does not intersect the image")
    j0, j1 = int(math.floor(x0 / stride)), int(math.ceil(x1 / stride))
    i0, i1 = int(math.floor(y0 / stride)), int(math.ceil(y1 / stride))
    j0, j1 = max(j0, 0), min(j1, wf)
    i0, i1 = max(i0, 0), min(i1, hf)
    if j1 <= j0 or i1 <= i0:
        raise ValueError("box covers no feature cells after clipping")
    return i0, i1, j0, j1


def crop_pool(fmap, box, stride):
    """Average a (C, Hf, Wf) map over the cells a pixel-space box covers
    (see `_cell_span`). A box covering the whole image reproduces the global
    pool exactly."""
    shape = fmap.shape if isinstance(fmap, ad.Tensor) else np.shape(fmap)
    i0, i1, j0, j1 = _cell_span(box, stride, shape[1], shape[2])
    return ad.mean(ad.crop(fmap, i0, i1, j0, j1), axis=(1, 2))


def roi_pool_matrix(boxes, stride, hf, wf):
    """(P, hf*wf) averaging matrix: row k holds 1/n on the n cells box k
    covers, so its product with a flattened map is `crop_pool` of box k."""
    a = np.zeros((len(boxes), hf, wf))
    for k, box in enumerate(boxes):
        i0, i1, j0, j1 = _cell_span(box, stride, hf, wf)
        a[k, i0:i1, j0:j1] = 1.0 / ((i1 - i0) * (j1 - j0))
    return a.reshape(len(boxes), hf * wf)


def group_mean_matrix(groups, n):
    """(G, n) membership matrix with weight 1/|group| on each member, so its
    product with (n, C) rows gives the per-group means."""
    m = np.zeros((len(groups), n))
    for g, members in enumerate(groups):
        m[g, members] = 1.0 / len(members)
    return m


def roi_pool(fmap, boxes, stride):
    """(P, C) crop-pooled features of a (C, Hf, Wf) map, one matmul."""
    c, hf, wf = fmap.shape if isinstance(fmap, ad.Tensor) else np.shape(fmap)
    a = roi_pool_matrix(boxes, stride, hf, wf)
    return ad.matmul(a, ad.transpose(ad.reshape(fmap, (c, hf * wf))))


def upsample_conv(conv, x):
    """A 3x3 stride-1 pad-1 `conv` of the nearest 2x upsampling of a
    (C, H, W) map, computed at (H, W): one convolution of `x` with the four
    phase kernels of `conv.w` (`ad.upsample_kernels`), interleaved into
    (O, 2H, 2W) by `ad.depth_to_space`."""
    b4 = ad.concat([conv.b] * 4)
    return ad.depth_to_space(
        ad.conv2d(x, ad.upsample_kernels(conv.w), b4, stride=1, pad=1)
    )


class SeparationNet:
    """All trainable modules, built with a seeded generator in a fixed order."""

    def __init__(self, spec=None, seed=0):
        self.spec = spec or NetworkSpec()
        self.spec.validate()
        c1, c2, c3 = self.spec.channels
        rng = np.random.default_rng(seed)
        # shared backbone, stride 2 per stage
        self.f1_conv = Conv2d(3, c1, rng, stride=2)
        self.f2_conv = Conv2d(c1, c2, rng, stride=2)
        self.f3_conv = Conv2d(c2, c3, rng, stride=2)
        # private grayscale encoders, same output shape as f3
        self.enc_s = [
            Conv2d(1, c1, rng, stride=2),
            Conv2d(c1, c2, rng, stride=2),
            Conv2d(c2, c3, rng, stride=2),
        ]
        self.enc_t = [
            Conv2d(1, c1, rng, stride=2),
            Conv2d(c1, c2, rng, stride=2),
            Conv2d(c2, c3, rng, stride=2),
        ]
        # shared decoder: three upsample+conv blocks back to 1 channel, run
        # as phase-kernel convolutions (`upsample_conv`)
        self.dec = [
            Conv2d(2 * c3, c2, rng),
            Conv2d(c2, c1, rng),
            Conv2d(c1, 1, rng),
        ]
        # domain classifiers
        self.d1_hidden = Conv2d(c1, self.spec.d1_hidden, rng, ksize=1, pad=0)
        self.d1_out = Conv2d(self.spec.d1_hidden, 1, rng, ksize=1, pad=0)
        self.d2_hidden = Affine(c2, self.spec.d23_hidden, rng)
        self.d2_out = Affine(self.spec.d23_hidden, 1, rng)
        self.d3_hidden = Affine(c3, self.spec.d23_hidden, rng)
        self.d3_out = Affine(self.spec.d23_hidden, 1, rng)
        fused_dim = self.spec.d1_hidden + 2 * self.spec.d23_hidden + c3
        self.dri_hidden = Affine(fused_dim, self.spec.dri_hidden, rng)
        self.dri_out = Affine(self.spec.dri_hidden, 1, rng)
        # detector head
        self.head_hidden = Affine(c3, self.spec.head_hidden, rng)
        self.head_cls = Affine(self.spec.head_hidden, self.spec.num_classes + 1, rng)
        self.head_box = Affine(self.spec.head_hidden, 4, rng)

    # -- parameter bookkeeping ------------------------------------------------
    def named_modules(self):
        mods = [
            ("backbone.f1", self.f1_conv),
            ("backbone.f2", self.f2_conv),
            ("backbone.f3", self.f3_conv),
        ]
        mods += [(f"enc_s.{i}", m) for i, m in enumerate(self.enc_s)]
        mods += [(f"enc_t.{i}", m) for i, m in enumerate(self.enc_t)]
        mods += [(f"decoder.{i}", m) for i, m in enumerate(self.dec)]
        mods += [
            ("d1.hidden", self.d1_hidden),
            ("d1.out", self.d1_out),
            ("d2.hidden", self.d2_hidden),
            ("d2.out", self.d2_out),
            ("d3.hidden", self.d3_hidden),
            ("d3.out", self.d3_out),
            ("dri.hidden", self.dri_hidden),
            ("dri.out", self.dri_out),
            ("head.hidden", self.head_hidden),
            ("head.cls", self.head_cls),
            ("head.box", self.head_box),
        ]
        return mods

    def named_params(self):
        return [
            (f"{mname}.{pname}", p)
            for mname, mod in self.named_modules()
            for pname, p in mod.params()
        ]

    def params(self):
        return [p for _, p in self.named_params()]

    # -- forward pieces ---------------------------------------------------------
    def forward_backbone(self, img):
        """(3, H, W) image -> feature maps at strides 2, 4 and 8."""
        shape = img.shape if isinstance(img, ad.Tensor) else np.shape(img)
        if shape[0] != 3 or shape[1] % self.spec.stride or shape[2] % self.spec.stride:
            raise ValueError("image must be (3, H, W) with H, W divisible by 8")
        f1 = ad.tanh(self.f1_conv(img))
        f2 = ad.tanh(self.f2_conv(f1))
        f3 = ad.tanh(self.f3_conv(f2))
        return f1, f2, f3

    def encode_private(self, gray, domain):
        """Private distractive-feature encoder over the grayscale image."""
        stack = self.enc_s if domain == "source" else self.enc_t
        h = gray
        for conv in stack:
            h = ad.tanh(conv(h))
        return h

    def reconstruct(self, d, f3):
        """Decode the channel fusion [d, f3] back to the grayscale shape."""
        ds = d.shape if isinstance(d, ad.Tensor) else np.shape(d)
        fs = f3.shape if isinstance(f3, ad.Tensor) else np.shape(f3)
        if ds[1:] != fs[1:]:
            raise ValueError("private and shared maps must align spatially")
        h = ad.concat([d, f3], axis=0)
        h = ad.tanh(upsample_conv(self.dec[0], h))
        h = ad.tanh(upsample_conv(self.dec[1], h))
        return upsample_conv(self.dec[2], h)

    def local_domain(self, f1):
        """Per-location domain probability map over f1 plus the pooled
        hidden activation used as the local context vector."""
        h = self.d1_hidden(f1)
        pmap = ad.sigmoid(self.d1_out(h))
        return pmap, ad.mean(h, axis=(1, 2))

    def mid_domain(self, f2):
        pooled = self.spec.domain_head_gain * ad.reshape(
            ad.mean(f2, axis=(1, 2)), (1, -1)
        )
        h = self.d2_hidden(pooled)
        p = ad.sigmoid(self.d2_out(h))
        return ad.reshape(p, ()), ad.reshape(h, (-1,))

    def global_domain(self, f3):
        pooled = self.spec.domain_head_gain * ad.reshape(
            ad.mean(f3, axis=(1, 2)), (1, -1)
        )
        h = self.d3_hidden(pooled)
        p = ad.sigmoid(self.d3_out(h))
        return ad.reshape(p, ()), ad.reshape(h, (-1,))

    def region_domain(self, fused):
        """(G, D) pooled fused group features -> (G,) domain probabilities
        (a single (D,) feature gives a scalar)."""
        rows = ad.reshape(fused, (-1, fused.shape[-1]))
        h = ad.tanh(self.dri_hidden(self.spec.domain_head_gain * rows))
        return ad.reshape(ad.sigmoid(self.dri_out(h)), fused.shape[:-1])

    def detector_head(self, roi_features):
        """(P, C) crop-pooled features -> (P, num_classes+1) logits and
        (P, 4) box deltas."""
        h = ad.tanh(self.head_hidden(roi_features))
        return self.head_cls(h), self.head_box(h)


# ---------------------------------------------------------------------------
# detection losses
# ---------------------------------------------------------------------------

def detector_targets(proposal_boxes, gt_boxes, gt_labels, iou_threshold=0.5):
    """Per-proposal class labels and regression targets.

    A proposal takes the class of its highest-IoU ground-truth box when that
    IoU reaches the threshold, else background (0). Regression targets exist
    only for positives.
    """
    if not proposal_boxes:
        raise ValueError("no proposals to assign")
    labels = np.zeros(len(proposal_boxes), dtype=np.int64)
    targets = np.zeros((len(proposal_boxes), 4))
    positives = []
    for i, pb in enumerate(proposal_boxes):
        ious = np.array([iou(pb, g) for g in gt_boxes])
        j = int(ious.argmax())
        if ious[j] >= iou_threshold:
            labels[i] = int(gt_labels[j])
            targets[i] = encode_deltas(pb, gt_boxes[j])
            positives.append(i)
    return labels, targets, positives


def detector_losses(class_logits, box_deltas, proposal_boxes, gt_boxes, gt_labels):
    """Softmax cross-entropy over all proposals and smooth-L1 over positives."""
    labels, targets, positives = detector_targets(proposal_boxes, gt_boxes, gt_labels)
    l_c = ad.softmax_cross_entropy(class_logits, labels)
    if positives:
        l_r = ad.smooth_l1(ad.take_rows(box_deltas, positives), targets[positives])
    else:
        l_r = ad.Tensor(0.0)
    return l_c, l_r


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def finite_difference_report(named_params, loss_builder, eps=1e-5,
                             coords_per_param=50, rng=None):
    """Compare analytic parameter gradients against central differences.

    `loss_builder` re-runs the forward pass from current parameter values.
    Samples up to `coords_per_param` coordinates from every parameter tensor
    (all layers, including ones the branch should not touch, so missing graph
    edges surface as mismatches). Returns {param_name: max_relative_error}.
    """
    rng = rng or np.random.default_rng(0)
    for _, p in named_params:
        p.grad = None
    loss = loss_builder()
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
        for name, p in named_params
    }
    report = {}
    for name, p in named_params:
        flat = p.value.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= coords_per_param else rng.choice(
            n, size=coords_per_param, replace=False
        )
        worst = 0.0
        ag = analytic[name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss_builder().value)
            flat[i] = orig - eps
            lo = float(loss_builder().value)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            err = abs(ag[i] - fd) / max(abs(ag[i]), abs(fd), 1e-6)
            worst = max(worst, err)
        report[name] = worst
    return report
