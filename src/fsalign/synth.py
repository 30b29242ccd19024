"""Deterministic synthetic two-domain detection corpus.

Source images are clean colored shapes (disk / square / triangle) on a dark
background; target images are color-shifted, blurred, fogged and noised
variants of independently drawn scenes. A proposal generator stands in for a
region proposal network: redundant jittered copies of every ground-truth box
plus a few background boxes. A box is a center-format row (bx, by, w, h) in
pixels: a sample's truth is one (G, 4) array with (G,) int class labels, and
its proposals are one (P, 4) array with (P,) objectness scores
(`boxes.ProposalSet`). A sample's grayscale is derived from its RGB image,
and only `domain_samples` names it.

Everything is a pure function of (spec, seed). Each domain has one sample
stream (`domain_samples`): sample i of it is seeded by
`SeedSequence([base_seed, d, i])`, d = 0 for source and 1 for target, whose
spawned children seed in order the scene, the domain shift (target only) and
the proposals. The training corpus is samples 0 to n-1 of both streams; the
held-out sets (`training.build_eval_sets`) start at 10_000 (target
detection), 20_000 (probe training) and 30_000 (probe evaluation).
Target-domain ground truth is carried for evaluation but fenced off from
training code paths.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boxes import ProposalSet
from .specs import is_count, is_real, is_tuple_of, require, store_tuples

SHAPE_CLASS_IDS = {"disk": 1, "square": 2, "triangle": 3}

GRAY_WEIGHTS = (0.299, 0.587, 0.114)

_DEFAULT_PALETTE = (
    (0.85, 0.20, 0.20),
    (0.20, 0.75, 0.25),
    (0.25, 0.35, 0.90),
    (0.90, 0.80, 0.20),
    (0.80, 0.25, 0.80),
    (0.20, 0.80, 0.80),
)

# class id -> palette slots of its objects' colors (plus brightness jitter): a
# learnable cue for the toy detector that the domain shift then attacks
_CLASS_PALETTE_SLOTS = {1: (0, 3), 2: (1, 5), 3: (2, 4)}


# whole-scene placement retries after the first attempt
_PLACEMENT_RESTARTS = 20


class PlacementError(RuntimeError):
    """Objects could not be placed without overlap within the retry budget."""


class LabelQuarantineError(RuntimeError):
    """Target-domain ground truth was touched through a training-path accessor."""


@dataclass(frozen=True)
class SceneSpec:
    canvas: tuple = (64, 64)
    object_count_range: tuple = (2, 4)
    shapes: tuple = ("disk", "square", "triangle")
    palette: tuple = _DEFAULT_PALETTE
    background: tuple = (0.15, 0.16, 0.19)
    radius_range: tuple = (5.0, 9.0)

    def __post_init__(self):
        store_tuples(self)
        require(self, lambda v: is_tuple_of(v, lambda n: is_count(n, 32), 2),
                "(height, width), integers >= 32", "canvas")
        require(self, lambda v: is_tuple_of(v, is_count, 2),
                "(min, max) object counts, integers >= 1", "object_count_range")
        if self.object_count_range[0] > self.object_count_range[1]:
            raise ValueError("object count range is inverted")
        require(self, lambda v: is_tuple_of(v, lambda s: isinstance(s, str)
                                            and s in SHAPE_CLASS_IDS) and len(v) > 0,
                f"a list of one or more of {sorted(SHAPE_CLASS_IDS)}", "shapes")
        # a radius under 1 px draws a pixel or so, and a tiny one's box area underflows to 0
        require(self, lambda v: is_tuple_of(v, lambda r: is_real(r) and r >= 1, 2),
                "two finite radii of at least 1 px", "radius_range")
        if self.radius_range[0] > self.radius_range[1]:
            raise ValueError("radius_range is inverted")
        # an object's center is drawn 2 px further than its radius from every edge
        if self.radius_range[1] > min(self.canvas) / 2.0 - 2.0:
            raise ValueError("radius_range must leave objects room on the canvas")
        require(self, lambda v: is_tuple_of(v, lambda c: is_tuple_of(c, is_real, 3)),
                "colors of three finite channel values", "palette")
        require(self, lambda v: is_tuple_of(v, is_real, 3),
                "a color of three finite channel values", "background")
        if not self.palette:
            raise ValueError("palette must hold at least one color")


@dataclass(frozen=True)
class DomainShiftSpec:
    color_shift: tuple = (-0.22, 0.05, 0.20)
    fog_alpha: float = 0.45
    blur_radius: float = 1.0
    noise_std: float = 0.02

    def __post_init__(self):
        store_tuples(self)
        require(self, lambda v: is_tuple_of(v, is_real, 3), "three finite channel offsets",
                "color_shift")
        require(self, lambda v: is_real(v) and 0.0 <= v <= 1.0, "in [0, 1]", "fog_alpha")
        # a negative blur or noise would silently switch the effect off
        require(self, lambda v: is_real(v) and v >= 0, "finite and non-negative",
                "blur_radius", "noise_std")
        # the blur kernel's denominator: at 0 its centre tap is 0/0
        r = self.blur_radius
        if r > 0 and not 2.0 * r * r > 0:
            raise ValueError(f"blur_radius = {r!r} is too small: 2*blur_radius**2 "
                             f"underflows to 0")


@dataclass(frozen=True)
class ProposalNoiseSpec:
    jitter_std: float = 2.0
    redundancy: int = 6
    background_count: int = 2
    background_margin: float = 12.0

    def __post_init__(self):
        require(self, is_count, "an integer >= 1", "redundancy")
        require(self, lambda v: is_count(v, 0), "an integer >= 0", "background_count")
        # a negative jitter would silently switch the jitter off
        require(self, lambda v: is_real(v) and v >= 0, "finite and non-negative",
                "jitter_std", "background_margin")


class Sample:
    """One (3, H, W) RGB image with ground truth: (G, 4) center-format boxes
    and (G,) int class labels. Target-domain truth is evaluation-only.

    `gray` is derived from `rgb` (`rgb_to_grayscale`). `image_id` is None
    until `domain_samples` names the sample after its place in its stream.

    `boxes` / `labels` raise for target samples so the training loop cannot
    read them by accident; evaluation code uses `eval_boxes()` /
    `eval_labels()`, which return copies.
    """

    def __init__(self, domain, rgb, boxes, labels):
        if domain not in ("source", "target"):
            raise ValueError("domain must be 'source' or 'target'")
        self.image_id = None
        self.domain = domain
        self.rgb = np.asarray(rgb, dtype=np.float64)
        self.gray = rgb_to_grayscale(self.rgb)
        self._boxes = np.asarray(boxes, dtype=np.float64)
        self._labels = np.asarray(labels, dtype=np.int64)
        if self._labels.ndim != 1 or self._boxes.shape != (len(self._labels), 4):
            raise ValueError(f"truth must be (G, 4) boxes and G labels, not boxes of shape "
                             f"{self._boxes.shape} and labels of shape {self._labels.shape}")

    @property
    def boxes(self):
        if self.domain == "target":
            raise LabelQuarantineError(
                "target ground truth is evaluation-only; use eval_boxes()"
            )
        return self._boxes

    @property
    def labels(self):
        if self.domain == "target":
            raise LabelQuarantineError(
                "target ground truth is evaluation-only; use eval_labels()"
            )
        return self._labels

    def eval_boxes(self):
        return self._boxes.copy()

    def eval_labels(self):
        return self._labels.copy()


def _shape_window(shape, cx, cy, r, h, w):
    """(rows, cols, mask): slices of an (h, w) canvas and the mask over them
    of a shape of radius `r` centred at (cx, cy). Pixel (i, j) is tested at
    its centre (j + 0.5, i + 0.5).

    Every shape lies inside its box, |x - cx| <= r and |y - cy| <= r, and
    the window is that box plus a 1 px margin, so a pixel outside it is at
    least 1.5 px from the box and in no shape. The window's mask is the
    full-canvas mask's entries there, bit for bit: each entry is the same
    arithmetic on the same pixel centre.
    """
    rows = slice(max(math.floor(cy - r) - 1, 0), min(math.ceil(cy + r) + 1, h))
    cols = slice(max(math.floor(cx - r) - 1, 0), min(math.ceil(cx + r) + 1, w))
    y = np.arange(rows.start, rows.stop)[:, None] + 0.5
    x = np.arange(cols.start, cols.stop) + 0.5
    if shape == "disk":
        return rows, cols, (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    if shape == "square":
        return rows, cols, (np.abs(x - cx) <= r) & (np.abs(y - cy) <= r)
    # upward triangle with vertices (cx, cy-r), (cx-r, cy+r), (cx+r, cy+r):
    # below the apex, inside the left edge and inside the mirrored right edge
    below = y - (cy - r)
    return rows, cols, (y <= cy + r) & (below >= 2.0 * (cx - x)) & (below >= 2.0 * (x - cx))


def _boxes_overlap(a, b, gap=2.0):
    """Whether center-format boxes a and b, each (bx, by, w, h), come within
    `gap` of each other on both axes."""
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    return not (ax + aw / 2.0 + gap <= bx - bw / 2.0 or bx + bw / 2.0 + gap <= ax - aw / 2.0
                or ay + ah / 2.0 + gap <= by - bh / 2.0
                or by + bh / 2.0 + gap <= ay - ah / 2.0)


def _place_objects(spec, rng, h, w):
    """One placement attempt: [(box, shape, color)] with pairwise-separated
    center-format boxes (bx, by, w, h), or None when some object found no
    free spot in 200 draws."""
    count = int(rng.integers(spec.object_count_range[0], spec.object_count_range[1] + 1))
    objects = []
    for _ in range(count):
        for _ in range(200):
            r = float(rng.uniform(*spec.radius_range))
            cx = float(rng.uniform(r + 2.0, w - r - 2.0))
            cy = float(rng.uniform(r + 2.0, h - r - 2.0))
            box = (cx, cy, 2 * r, 2 * r)
            if all(not _boxes_overlap(box, b) for b, _, _ in objects):
                break
        else:
            return None
        shape = spec.shapes[int(rng.integers(len(spec.shapes)))]
        slots = _CLASS_PALETTE_SLOTS[SHAPE_CLASS_IDS[shape]]
        slot = slots[int(rng.integers(len(slots)))] % len(spec.palette)
        tint = float(rng.uniform(0.85, 1.15))
        color = np.clip(np.asarray(spec.palette[slot]) * tint, 0.0, 1.0)
        objects.append((box, shape, color))
    return objects


def rgb_to_grayscale(img):
    """Luma conversion of a (3, H, W) map in [0, 1] to (1, H, W)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError("expected a (3, H, W) image")
    r, g, b = GRAY_WEIGHTS
    return (r * img[0] + g * img[1] + b * img[2])[None, :, :]


def generate_scene(spec=None, seed=0):
    """Build one source-domain scene: non-overlapping shapes, tight boxes.

    An early object can leave no room for a later one on a small canvas, so
    a failed placement restarts from the object count, drawing on from the
    same generator, up to `_PLACEMENT_RESTARTS` times. A scene placed on the
    first attempt is unaffected.
    """
    spec = spec or SceneSpec()
    rng = np.random.default_rng(seed)
    h, w = spec.canvas
    for _ in range(1 + _PLACEMENT_RESTARTS):
        objects = _place_objects(spec, rng, h, w)
        if objects is not None:
            break
    else:
        raise PlacementError("could not place objects without overlap")
    rgb = np.empty((3, h, w))
    for c in range(3):
        rgb[c] = spec.background[c]
    for box, shape, color in objects:
        rows, cols, mask = _shape_window(shape, box[0], box[1], box[2] / 2, h, w)
        for c in range(3):
            rgb[c, rows, cols][mask] = color[c]
    boxes = [box for box, _, _ in objects]
    labels = [SHAPE_CLASS_IDS[shape] for _, shape, _ in objects]
    return Sample("source", rgb, boxes, labels)


def _gaussian_kernel(sigma):
    """Normalised 1-D Gaussian taps out to ceil(3 sigma)."""
    radius = int(math.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    # taps past exp's underflow stay -inf: a tiny sigma overflows their division
    exponent = np.divide(-(t * t), 2.0 * sigma * sigma, out=np.full_like(t, -np.inf),
                         where=t * t <= 1492.0 * sigma * sigma)
    # taps just short of that edge are subnormal, which is no error
    with np.errstate(under="ignore"):
        kernel = np.exp(exponent)
    return kernel / kernel.sum()


def _gaussian_blur(img, sigma):
    """Separable Gaussian blur of a (C, H, W) image, reflect-padded by the
    kernel radius r: a pass along W, then one along H over the columns of
    its result. Returns a new C-contiguous array.

    Each pass reflect-pads every line (row, then column) of every channel by
    r and makes one `np.convolve` over all of them laid end to end. Output j
    of its "same" mode is the window of 2r + 1 samples centred on flat
    sample j; the window stays inside one line exactly where that line's own
    "valid" output starts r samples earlier. So reshaping to lines and
    dropping r outputs at each end (they straddle two lines, or reach past
    the ends) leaves the per-line "valid" results. numpy sums each kept
    output over the same window in the same order whatever the array around
    it, so they match convolving each line on its own bit for bit. Padding
    along H only after the W pass gives what padding both axes first and
    convolving every padded row would: a reflect pad along H copies whole
    rows, and a copied row convolves to the same bits. Rebinding `flat`
    frees each buffer once the next is made, so at most two image-sized
    buffers are live at a time.
    """
    kernel = _gaussian_kernel(sigma)
    r = len(kernel) // 2
    c, h, w = img.shape
    lines = ((0, 0), (0, 0), (r, r))  # a pad along the last axis only
    flat = np.convolve(np.pad(img, lines, mode="reflect").ravel(), kernel, "same")
    # the W pass's kept outputs, transposed so that each column is a line
    flat = np.pad(flat.reshape(c, h, w + 2 * r)[..., r:r + w].transpose(0, 2, 1), lines,
                  mode="reflect").ravel()
    flat = np.convolve(flat, kernel, "same")
    return np.ascontiguousarray(flat.reshape(c, w, h + 2 * r)[..., r:r + h].transpose(0, 2, 1))


def check_blur_radius(radius, hw):
    """Reject a blur radius above the image's shorter side: the blur pads
    each channel by 3 radii on every side, so 1e6 px would ask for 262 TiB."""
    if radius > min(hw):
        raise ValueError(f"blur_radius = {radius!r} exceeds the image's shorter side {min(hw)}")


def apply_domain_shift(sample, shift=None, seed=0):
    """Map a source sample into the target domain.

    Order: color offset, Gaussian blur, white fog alpha-blend, additive
    noise, clip to [0, 1]; grayscale is recomputed. Ground truth rides along
    but becomes evaluation-only.
    """
    shift = shift or DomainShiftSpec()
    check_blur_radius(shift.blur_radius, sample.rgb.shape[1:])
    if sample.domain != "source":
        raise ValueError("domain shift applies to source samples")
    rng = np.random.default_rng(seed)
    rgb = sample.rgb + np.asarray(shift.color_shift, dtype=np.float64)[:, None, None]
    if shift.blur_radius > 0:
        rgb = _gaussian_blur(rgb, shift.blur_radius)
    if shift.fog_alpha > 0:
        rgb = (1.0 - shift.fog_alpha) * rgb + shift.fog_alpha
    if shift.noise_std > 0:
        rgb = rgb + rng.normal(0.0, shift.noise_std, size=rgb.shape)
    rgb = np.clip(rgb, 0.0, 1.0)
    return Sample("target", rgb, sample.eval_boxes(), sample.eval_labels())


def generate_proposals(sample, noise=None, seed=0):
    """Redundant noisy proposals around the ground-truth boxes plus background.

    Each ground-truth box yields `redundancy` copies with Gaussian-jittered
    centers and sizes jittered within +-10% (jitter_std = 0 disables both, so
    proposals equal the ground truth exactly). `background_count` boxes land
    uniformly at least `background_margin` away from every object center.
    """
    noise = noise or ProposalNoiseSpec()
    rng = np.random.default_rng(seed)
    gt_boxes = sample.eval_boxes()
    if not len(gt_boxes):
        raise ValueError("sample has no ground-truth boxes")
    h, w = sample.rgb.shape[1:]
    boxes, objectness = [], []
    for gx, gy, gw, gh in gt_boxes.tolist():
        for _ in range(noise.redundancy):
            if noise.jitter_std > 0:
                dx, dy = rng.normal(0.0, noise.jitter_std, size=2).tolist()
                sw, sh = (1.0 + rng.uniform(-0.1, 0.1, size=2)).tolist()
            else:
                dx = dy = 0.0
                sw = sh = 1.0
            boxes.append((min(max(gx + dx, 1.0), w - 1.0), min(max(gy + dy, 1.0), h - 1.0),
                          gw * sw, gh * sh))
            objectness.append(rng.uniform(0.6, 1.0))
    centers = gt_boxes[:, :2]
    for _ in range(noise.background_count):
        for _ in range(2000):
            bx = float(rng.uniform(4.0, w - 4.0))
            by = float(rng.uniform(4.0, h - 4.0))
            d = np.sqrt(((centers - [bx, by]) ** 2).sum(axis=1)).min()
            if d >= noise.background_margin:
                break
        else:
            raise PlacementError("background margin unsatisfiable")
        boxes.append((bx, by, rng.uniform(8.0, 14.0), rng.uniform(8.0, 14.0)))
        objectness.append(rng.uniform(0.2, 0.7))
    return ProposalSet(boxes=np.array(boxes), objectness=np.array(objectness))


def domain_samples(domain, scene_spec, shift_spec, noise_spec, n, base_seed, start=0):
    """Samples `start` to `start + n - 1` of one domain's stream, each with
    its proposals."""
    code = ("source", "target").index(domain)
    out = []
    for i in range(start, start + n):
        children = np.random.SeedSequence([int(base_seed), code, i]).spawn(2 + code)
        sample = generate_scene(scene_spec, seed=children[0])
        if code:
            sample = apply_domain_shift(sample, shift_spec, seed=children[1])
        sample.image_id = f"{('src', 'tgt')[code]}{i:05d}"
        out.append((sample, generate_proposals(sample, noise_spec, seed=children[-1])))
    return out


def build_pair_corpus(scene_spec, shift_spec, noise_spec, n, base_seed):
    """Samples 0 to n-1 of the source and of the target stream, with proposals."""
    return tuple(domain_samples(d, scene_spec, shift_spec, noise_spec, n, base_seed)
                 for d in ("source", "target"))
