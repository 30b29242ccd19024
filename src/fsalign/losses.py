"""Loss suite for the two-domain feature separation / alignment objective.

All functions are pure and written against the generic ops in `autodiff`, so
each one accepts either plain numpy arrays (returning floats) or graph
tensors (returning a differentiable scalar node).

Conventions: feature maps are (C, H, W); domain probabilities are the
classifier's "source" probability and are clamped to [1e-7, 1 - 1e-7] before
any logarithm.
"""

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


def _value(x):
    return x.value if isinstance(x, ad.Tensor) else np.asarray(x)


def global_pool(f):
    """Spatial average of a (C, H, W) map: one value per channel."""
    if _value(f).ndim != 3:
        raise ValueError("expected a (C, H, W) feature map")
    return ad.mean(f, axis=(1, 2))


def _scalar_mean(terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total / float(len(terms))


def _difference_term(priv, shared):
    terms = []
    for d, f in zip(priv, shared):
        gd = global_pool(d)
        gf = global_pool(f)
        if _value(gd).shape != _value(gf).shape:
            raise ValueError("pooled channel counts differ between streams")
        inner = ad.sum(gd * gf)
        terms.append(inner * inner)
    return _scalar_mean(terms)


def difference_loss(priv_source, shared_source, priv_target, shared_target):
    """Orthogonality penalty between private and shared pooled features.

    Per domain, each sample contributes the squared inner product of its two
    pooled vectors, averaged over the domain's samples; the two domain terms
    add.
    """
    if len(priv_source) != len(shared_source) or len(priv_target) != len(shared_target):
        raise ValueError("private/shared lists must pair up per domain")
    if not priv_source and not priv_target:
        raise ValueError("at least one domain must be nonempty")
    total = 0.0
    if priv_source:
        total = total + _difference_term(priv_source, shared_source)
    if priv_target:
        total = total + _difference_term(priv_target, shared_target)
    return total


def reconstruction_loss(originals, reconstructions, normalize=False):
    """Mean L1 distance between paired maps of one domain.

    The L1 norm is the raw sum of absolute entry differences; set
    `normalize=True` to divide each pair's norm by its entry count.
    """
    if len(originals) != len(reconstructions):
        raise ValueError("originals and reconstructions must pair up")
    if not originals:
        raise ValueError("need at least one pair")
    terms = []
    for x, xh in zip(originals, reconstructions):
        if _value(x).shape != _value(xh).shape:
            raise ValueError("paired maps must share a shape")
        l1 = ad.sum(ad.absolute(x - xh))
        if normalize:
            l1 = l1 / float(_value(x).size)
        terms.append(l1)
    return _scalar_mean(terms)


def focal_source_term(p, gamma):
    """-(1-p)^gamma * log(p) for a source-domain probability p."""
    pc = ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(ad.power(1.0 - pc, gamma) * ad.log(pc))


def focal_target_term(p, gamma):
    """-p^gamma * log(1-p) for a target-domain probability p."""
    pc = ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(ad.power(pc, gamma) * ad.log(1.0 - pc))


def region_instance_loss(source_probs, target_probs, gamma):
    """Focal domain loss over per-image group probabilities.

    `source_probs` / `target_probs` hold one vector per image of the region
    classifier's source-probabilities, one entry per group. Each image
    averages over its groups, each domain over its images, and the two
    domain losses are averaged.
    """
    if not source_probs or not target_probs:
        raise ValueError("both domains need at least one image")
    for probs in list(source_probs) + list(target_probs):
        if _value(probs).size == 0:
            raise ValueError("an image contributed no group probabilities")
    ls = _scalar_mean([ad.mean(focal_source_term(p, gamma)) for p in source_probs])
    lt = _scalar_mean([ad.mean(focal_target_term(p, gamma)) for p in target_probs])
    return 0.5 * (ls + lt)


def local_adv_loss(source_maps, target_maps):
    """Least-squares per-location domain loss for the lowest-level classifier.

    Source locations are pushed toward 0, target locations toward 1; the two
    per-domain means over all spatial positions add.
    """
    total = 0.0
    if source_maps:
        flat = ad.concat([ad.reshape(m, (-1,)) for m in source_maps])
        total = total + ad.mean(flat * flat)
    if target_maps:
        flat = ad.concat([ad.reshape(1.0 - m, (-1,)) for m in target_maps])
        total = total + ad.mean(flat * flat)
    return total


def pooled_adv_loss(p_s, p_t):
    """Least-squares domain loss of a pooled (image-level) classifier: the
    source probability is pushed toward 0 and the target one toward 1, the
    same bounded form as `local_adv_loss` at one location per image."""
    return p_s * p_s + (1.0 - p_t) * (1.0 - p_t)


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
