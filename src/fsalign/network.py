"""Toy detection network for two-domain adversarial training.

Pieces: a three-stage strided backbone (strides 2/4/8), one private encoder
per domain over the grayscale image, a shared decoder that reconstructs the
grayscale image from [private, shared] channel fusion, three level-wise
domain classifiers (per-location on f1, pooled on f2/f3), a region-instance
domain classifier over pooled fused group features, and a detector head over
crop-pooled f3 producing class logits and box deltas per proposal.

The shared modules (backbone, decoder, level classifiers, RoI pooling) take
(N, C, H, W) batches: a training step runs its source/target pair through
them at once, and an evaluation runs each image as a batch of one. The
private encoders are per domain; they too run on the pair at once, each
layer one convolution whose kernels are stacked per image (source kernel
for the source image, target kernel for the target image).

Each decoder block is a 3x3 convolution of a nearest 2x upsampling, one
`ad.upsample_conv2d` call. That is the transpose of a stride-2 pad-1 conv
whose 4x4 kernels fold the 3x3 ones per axis, so it runs at the resolution
of its input on `ad.conv2d`'s own `_im2col`/`_col2im` pair: each output row
and column parity sees only the 2x2 source taps that reach it, the
upsampled map is never built and no multiply-add hits a structural zero.
The parameters keep their plain (O, C, 3, 3) kernel shapes.

Each layer is one graph node: a convolution or affine map with its tanh or
sigmoid activation is one `ad.conv2d`, `ad.upsample_conv2d` or `ad.affine`
call (`act=`), and the private encoders pass each domain's kernel and bias
to their `ad.conv2d` as its own operand. Everything is built on the minimal
autodiff engine; adversarial branches are wired through gradient reversal
by the trainer.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .boxes import box_iou, corners, encode_deltas
from .specs import is_count, is_real, is_tuple_of, require, store_tuples

# pixels per f3 cell: the backbone's three stride-2 stages
STRIDE = 8


@dataclass(frozen=True)
class NetworkSpec:
    """Channel plan and head widths; input shapes are checked when the net runs.

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

    def __post_init__(self):
        store_tuples(self)
        require(self, lambda v: is_tuple_of(v, is_count, 3), "three positive counts", "channels")
        require(self, is_count, "a positive integer",
                "d1_hidden", "d23_hidden", "dri_hidden", "head_hidden", "num_classes")
        require(self, lambda v: is_real(v) and v > 0, "finite and positive", "domain_head_gain")


class Conv2d:
    def __init__(self, cin, cout, rng, ksize=3, stride=1, pad=1):
        std = math.sqrt(1.0 / (cin * ksize * ksize))
        self.w = ad.Tensor(rng.normal(0.0, std, size=(cout, cin, ksize, ksize)))
        self.b = ad.Tensor(np.zeros(cout))
        self.stride = stride
        self.pad = pad

    def __call__(self, x, act=None):
        return ad.conv2d(x, self.w, self.b, stride=self.stride, pad=self.pad, act=act)

    def params(self):
        return [("w", self.w), ("b", self.b)]


class Affine:
    """x @ w + b with an optional activation of the result, one
    `ad.affine` node, for (D,) or (P, D) rows `x`."""

    def __init__(self, din, dout, rng):
        std = math.sqrt(1.0 / din)
        self.w = ad.Tensor(rng.normal(0.0, std, size=(din, dout)))
        self.b = ad.Tensor(np.zeros(dout))

    def __call__(self, x, act=None):
        return ad.affine(x, self.w, self.b, act=act)

    def params(self):
        return [("w", self.w), ("b", self.b)]


def _cell_span(boxes, hf, wf):
    """(P, 4) int rows (i0, i1, j0, j1): the feature cells each of (P, 4)
    pixel-space boxes covers on an (hf, wf) f3 map.

    The boxes are clipped to the image bounds first; covered cells are the
    `STRIDE`-scaled span rounded outward. An empty span after clipping is an
    error.
    """
    h, w = hf * STRIDE, wf * STRIDE
    x0, y0, x1, y1 = corners(boxes).T
    x0, x1 = np.maximum(x0, 0.0), np.minimum(x1, float(w))
    y0, y1 = np.maximum(y0, 0.0), np.minimum(y1, float(h))
    if ((x1 <= x0) | (y1 <= y0)).any():
        raise ValueError("box does not intersect the image")
    j0, j1 = np.maximum(np.floor(x0 / STRIDE), 0), np.minimum(np.ceil(x1 / STRIDE), wf)
    i0, i1 = np.maximum(np.floor(y0 / STRIDE), 0), np.minimum(np.ceil(y1 / STRIDE), hf)
    if ((j1 <= j0) | (i1 <= i0)).any():
        raise ValueError("box covers no feature cells after clipping")
    return np.stack([i0, i1, j0, j1], axis=1).astype(np.int64)


def global_pool(f):
    """Spatial average of an (N, C, H, W) batch: one value per image and
    channel."""
    if len(np.shape(f)) != 4:
        raise ValueError("expected an (N, C, H, W) batch")
    return ad.mean(f, axis=(-2, -1))


def crop_pool(fmap, box):
    """Average a (C, Hf, Wf) f3 map over the cells one pixel-space box
    (bx, by, w, h) covers (see `_cell_span`). A box covering the whole image
    reproduces the global pool exactly."""
    _, hf, wf = np.shape(fmap)
    i0, i1, j0, j1 = _cell_span(np.reshape(box, (1, 4)), hf, wf)[0]
    return ad.mean(ad.crop(fmap, i0, i1, j0, j1), axis=(1, 2))


def roi_pool_matrix(boxes, hf, wf):
    """(P, hf*wf) averaging matrix over an (hf, wf) f3 map: row k holds 1/n
    on the n cells box k of the (P, 4) `boxes` covers, so its product with a
    flattened map is `crop_pool` of box k."""
    i0, i1, j0, j1 = _cell_span(boxes, hf, wf).T[:, :, None]
    rows, cols = np.arange(hf), np.arange(wf)
    inside = ((i0 <= rows) & (rows < i1))[:, :, None] & ((j0 <= cols) & (cols < j1))[:, None]
    return (inside / ((i1 - i0) * (j1 - j0))[:, :, None]).reshape(len(boxes), hf * wf)


def group_mean_matrix(groups, n):
    """(G, n) membership matrix with weight 1/|group| on each member, so its
    product with (n, C) rows gives the per-group means."""
    m = np.zeros((len(groups), n))
    for g, members in enumerate(groups):
        m[g, members] = 1.0 / len(members)
    return m


def block_diag(mats):
    """Block-diagonal matrix of 2-D blocks, one block per image of a batch."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def roi_pool(fmap, a):
    """(P, C) crop-pooled features of an (N, C, Hf, Wf) batch: one product
    of the averaging matrix `a` with the maps' cells.

    `a` is the `block_diag` of each image's (P_i, Hf*Wf) `roi_pool_matrix`
    (for a batch of one, that matrix itself), and the rows of all images
    stack in image order.
    """
    shape = np.shape(fmap)
    if len(shape) != 4:
        raise ValueError(f"roi_pool takes an (N, C, Hf, Wf) batch, not shape {shape}")
    cells = ad.transpose(fmap, (0, 2, 3, 1))
    return ad.matmul(a, ad.reshape(cells, (-1, shape[1])))


class SeparationNet:
    """All trainable modules, built with a seeded generator in a fixed order."""

    def __init__(self, spec=None, seed=0):
        self.spec = spec or NetworkSpec()
        s = self.spec
        c1, c2, c3 = s.channels
        rng = np.random.default_rng(seed)
        self._modules = []

        def add(name, module):
            """Register `module` under its public name; the build order is the
            rng draw order and the `named_modules` order."""
            self._modules.append((name, module))
            return module

        def convs(name, plan, **kw):
            return [add(f"{name}.{i}", Conv2d(cin, cout, rng, **kw))
                    for i, (cin, cout) in enumerate(plan)]

        # shared backbone, stride 2 per stage
        self.f1_conv = add("backbone.f1", Conv2d(3, c1, rng, stride=2))
        self.f2_conv = add("backbone.f2", Conv2d(c1, c2, rng, stride=2))
        self.f3_conv = add("backbone.f3", Conv2d(c2, c3, rng, stride=2))
        # private grayscale encoders, same output shape as f3
        self.enc_s = convs("enc_s", ((1, c1), (c1, c2), (c2, c3)), stride=2)
        self.enc_t = convs("enc_t", ((1, c1), (c1, c2), (c2, c3)), stride=2)
        # shared decoder: three upsample+conv blocks back to 1 channel, each
        # one `ad.upsample_conv2d`
        self.dec = convs("decoder", ((2 * c3, c2), (c2, c1), (c1, 1)))
        # domain classifiers
        self.d1_hidden = add("d1.hidden", Conv2d(c1, s.d1_hidden, rng, ksize=1, pad=0))
        self.d1_out = add("d1.out", Conv2d(s.d1_hidden, 1, rng, ksize=1, pad=0))
        self.d2_hidden = add("d2.hidden", Affine(c2, s.d23_hidden, rng))
        self.d2_out = add("d2.out", Affine(s.d23_hidden, 1, rng))
        self.d3_hidden = add("d3.hidden", Affine(c3, s.d23_hidden, rng))
        self.d3_out = add("d3.out", Affine(s.d23_hidden, 1, rng))
        fused_dim = s.d1_hidden + 2 * s.d23_hidden + c3
        self.dri_hidden = add("dri.hidden", Affine(fused_dim, s.dri_hidden, rng))
        self.dri_out = add("dri.out", Affine(s.dri_hidden, 1, rng))
        # detector head
        self.head_hidden = add("head.hidden", Affine(c3, s.head_hidden, rng))
        self.head_cls = add("head.cls", Affine(s.head_hidden, s.num_classes + 1, rng))
        self.head_box = add("head.box", Affine(s.head_hidden, 4, rng))

    # -- parameter bookkeeping ------------------------------------------------
    def named_modules(self):
        """(name, module) of every trainable module, in build order."""
        return list(self._modules)

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
        """(N, 3, H, W) batch -> feature maps at strides 2, 4 and 8."""
        shape = np.shape(img)
        if (len(shape) != 4 or shape[1] != 3
                or shape[2] % STRIDE or shape[3] % STRIDE):
            raise ValueError("images must be an (N, 3, H, W) batch with H, W "
                             "divisible by 8")
        f1 = self.f1_conv(img, act="tanh")
        f2 = self.f2_conv(f1, act="tanh")
        f3 = self.f3_conv(f2, act="tanh")
        return f1, f2, f3

    def encode_private(self, gray):
        """Private distractive-feature encoders over the (2, 1, H, W)
        source/target grayscale pair: image 0 runs through `enc_s`, image 1
        through `enc_t`. Each layer is one `ad.conv2d` of the pair that takes
        each image's kernel and bias as its own operand."""
        h = gray
        for cs, ct in zip(self.enc_s, self.enc_t):
            h = ad.conv2d(h, (cs.w, ct.w), (cs.b, ct.b), cs.stride, cs.pad, act="tanh")
        return h

    def reconstruct(self, d, f3):
        """Decode the channel fusion [d, f3] of two (N, C, h, w) batches back
        to the grayscale shape."""
        ds, fs = np.shape(d), np.shape(f3)
        if len(ds) != 4 or len(fs) != 4 or ds[0] != fs[0] or ds[2:] != fs[2:]:
            raise ValueError("private and shared maps must be batches that align "
                             "spatially")
        h = ad.concat([d, f3], axis=1)
        h = ad.upsample_conv2d(h, self.dec[0].w, self.dec[0].b, act="tanh")
        h = ad.upsample_conv2d(h, self.dec[1].w, self.dec[1].b, act="tanh")
        return ad.upsample_conv2d(h, self.dec[2].w, self.dec[2].b)

    def local_domain(self, f1):
        """Per-location domain probability map over f1 plus the pooled
        hidden activation, detached, used as the local context vector."""
        h = self.d1_hidden(f1)
        pmap = self.d1_out(h, act="sigmoid")
        return pmap, h.value.mean(axis=(-2, -1))

    def _pooled_domain(self, f, hidden, out):
        """Image-level domain probability of a pooled map, () per image,
        plus the hidden activation, detached, used as the context vector."""
        h = hidden(self.spec.domain_head_gain * global_pool(f))
        p = out(h, act="sigmoid")
        return ad.reshape(p, p.shape[:-1]), h.value

    def mid_domain(self, f2):
        return self._pooled_domain(f2, self.d2_hidden, self.d2_out)

    def global_domain(self, f3):
        return self._pooled_domain(f3, self.d3_hidden, self.d3_out)

    def region_domain(self, fused):
        """(G, D) pooled fused group features -> (G,) domain probabilities."""
        if len(np.shape(fused)) != 2:
            raise ValueError(f"region_domain takes (G, D) rows, not shape "
                             f"{np.shape(fused)}")
        h = self.dri_hidden(self.spec.domain_head_gain * fused, act="tanh")
        return ad.reshape(self.dri_out(h, act="sigmoid"), (-1,))

    def detector_head(self, roi_features):
        """(P, C) crop-pooled features -> (P, num_classes+1) logits and
        (P, 4) box deltas."""
        h = self.head_hidden(roi_features, act="tanh")
        return self.head_cls(h), self.head_box(h)


# ---------------------------------------------------------------------------
# detection losses
# ---------------------------------------------------------------------------

class DetectorTargets(NamedTuple):
    labels: np.ndarray  # (P,) class per proposal, 0 for background
    deltas: np.ndarray  # (P, 4) regression targets, zero off the positives
    positives: list     # indices of the proposals with a class


def detector_targets(proposal_boxes, gt_boxes, gt_labels, iou_threshold=0.5):
    """Per-proposal class labels and regression targets of (P, 4) proposal
    boxes against (G, 4) ground-truth boxes with (G,) labels.

    A proposal takes the class of its highest-IoU ground-truth box (the
    first on a tie) when that IoU reaches the threshold, else background
    (0). Regression targets exist only for positives.
    """
    if not len(proposal_boxes):
        raise ValueError("no proposals to assign")
    ious = box_iou(proposal_boxes, gt_boxes)
    best = ious.argmax(axis=1)
    positives = np.flatnonzero(ious[np.arange(len(best)), best] >= iou_threshold)
    labels = np.zeros(len(best), dtype=np.int64)
    labels[positives] = np.asarray(gt_labels)[best[positives]]
    targets = np.zeros((len(best), 4))
    targets[positives] = encode_deltas(proposal_boxes[positives], gt_boxes[best[positives]])
    return DetectorTargets(labels, targets, positives.tolist())


def detector_losses(class_logits, box_deltas, targets):
    """Softmax cross-entropy over all proposals and smooth-L1 over the
    positives, against `targets` from `detector_targets`."""
    l_c = ad.softmax_cross_entropy(class_logits, targets.labels)
    if targets.positives:
        l_r = ad.smooth_l1(ad.take_rows(box_deltas, targets.positives),
                           targets.deltas[targets.positives])
    else:
        l_r = ad.Tensor(0.0)
    return l_c, l_r

