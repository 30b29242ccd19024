"""Loss suite for the two-domain feature separation / alignment objective.

All functions are pure and written against the ops in `autodiff`: an input
is a graph tensor or a constant numpy array, and each loss is a scalar
`Tensor` node. `total_objective` adds up whatever terms it is given.

Conventions: the domain losses take a batch whose leading axis runs over
images, with `domains` labelling each image 0 (source) or 1 (target); each
domain averages over its own images. Feature maps are (N, C, H, W). The
region classifier's probabilities are its "source" probability and are
clamped to [1e-7, 1 - 1e-7] before any logarithm.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

PROB_CLAMP = 1e-7

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass
class ObjectiveWeights:
    """Scalar weights of the combined objective.

    `beta` scales the reconstruction + difference terms, `lam` the
    adversarial terms, `gamma` is the focal-loss focusing exponent.
    """

    beta: float = 0.1
    lam: float = 1.0
    gamma: float = 5.0

    def validate(self):
        for name in ("beta", "lam", "gamma"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


def _domain_weights(domains):
    """(N,) weights that average each domain's images: 1/n_d for an image of
    domain d, where `domains` labels each image of a batch 0 (source) or 1
    (target)."""
    d = np.asarray(domains)
    if d.ndim != 1 or d.size == 0 or not ((d == 0) | (d == 1)).all():
        raise ValueError("domains must be a nonempty vector of 0/1 labels")
    d = d.astype(np.int64)
    return 1.0 / np.bincount(d, minlength=2)[d]


def global_pool(f):
    """Spatial average of an (N, C, H, W) batch: one value per image and
    channel."""
    if len(np.shape(f)) != 4:
        raise ValueError("expected an (N, C, H, W) batch")
    return ad.mean(f, axis=(-2, -1))


def _per_image(a):
    """(N,) sums of an (N, ...) array over everything but the batch axis."""
    nd = len(np.shape(a))
    return ad.sum(a, axis=tuple(range(1, nd))) if nd > 1 else a


def difference_loss(priv, shared, domains):
    """Orthogonality penalty between private and shared pooled features.

    `priv` and `shared` are (N, C, H, W) batches of the two streams and
    `domains` labels each image 0 (source) or 1 (target). Each image
    contributes the squared inner product of its two pooled vectors; each
    domain averages its images, and the two domain terms add.
    """
    gd, gf = global_pool(priv), global_pool(shared)
    if np.shape(gd) != np.shape(gf):
        raise ValueError("pooled channel counts differ between streams")
    inner = _per_image(gd * gf)
    return ad.matmul(inner * inner, _domain_weights(domains))


def reconstruction_loss(originals, reconstructions, domains, normalize=False):
    """L1 distance between paired (N, C, H, W) batches of maps.

    Each image's L1 norm is the raw sum of its absolute entry differences;
    set `normalize=True` to divide it by the image's entry count. Each domain
    (`domains`: 0 source, 1 target per image) averages its images, and the
    two domain terms add.
    """
    shape = np.shape(originals)
    if shape != np.shape(reconstructions):
        raise ValueError("paired maps must share a shape")
    w = _domain_weights(domains)
    if normalize:
        w = w / float(math.prod(shape[1:]))
    return ad.matmul(_per_image(ad.absolute(originals - reconstructions)), w)


def focal_source_term(p, gamma):
    """-(1-p)^gamma * log(p) for a source-domain probability p."""
    pc = ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(ad.power(1.0 - pc, gamma) * ad.log(pc))


def region_instance_loss(probs, groups_per_image, domains, gamma):
    """Focal domain loss over group probabilities.

    `probs` holds the region classifier's source probabilities of every
    group of a batch, image after image, `groups_per_image` how many rows
    each image owns and `domains` each image's label (0 source, 1 target).
    A row's focal term is the source term of the probability of its own
    domain. Each image averages over its groups, each domain over its
    images, and the two domain losses are averaged.
    """
    counts = np.asarray(groups_per_image)
    d = np.asarray(domains)
    if counts.shape != d.shape:
        raise ValueError("one group count and one domain label per image")
    if not ((d == 0).any() and (d == 1).any()):
        raise ValueError("both domains need at least one image")
    if (counts < 1).any() or counts.sum() != np.size(probs):
        raise ValueError("an image contributed no group probabilities")
    row_domain = np.repeat(d, counts)
    # the probability of each row's own domain: p for source, 1 - p for target
    own = row_domain + (1.0 - 2.0 * row_domain) * probs
    w = np.repeat(0.5 * _domain_weights(d) / counts, counts)
    return ad.matmul(focal_source_term(own, gamma), w)


def _squared_error(p, domains):
    """Each image's mean over its locations of (p - domain label)^2 for
    (N, ...) probabilities; each domain averages its images and the two
    domain terms add."""
    shape = np.shape(p)
    y = np.asarray(domains, dtype=np.float64).reshape((-1,) + (1,) * (len(shape) - 1))
    err = p - y
    return ad.matmul(_per_image(err * err),
                     _domain_weights(domains) / float(math.prod(shape[1:])))


def local_adv_loss(maps, domains):
    """Least-squares per-location domain loss for the lowest-level
    classifier: (N, 1, H, W) probability maps, source locations pushed
    toward 0 and target locations toward 1 (`_squared_error`)."""
    return _squared_error(maps, domains)


def pooled_adv_loss(p, domains):
    """Least-squares domain loss of a pooled (image-level) classifier on (N,)
    probabilities: `local_adv_loss` at one location per image."""
    return _squared_error(p, domains)


def total_objective(l_c, l_r, l_rec, l_diff, l_lg, l_ri, w):
    """Combined objective value L_c + L_r + beta*(L_rec + L_diff)
    - lam*(L_lg + L_ri).

    This is the reported min-max saddle value; the adversarial max/min split
    itself is realised by gradient reversal in the network, not here.
    """
    return l_c + l_r + w.beta * (l_rec + l_diff) - w.lam * (l_lg + l_ri)


def rgb_to_grayscale(img):
    """Luma conversion of a (3, H, W) map in [0, 1] to (1, H, W)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError("expected a (3, H, W) image")
    r, g, b = GRAY_WEIGHTS
    return (r * img[0] + g * img[1] + b * img[2])[None, :, :]
