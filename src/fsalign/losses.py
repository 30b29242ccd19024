"""Loss suite for the two-domain feature separation / alignment objective.

All functions are pure: an input is a graph tensor or a constant numpy
array, and each loss is one scalar `Tensor` node (`autodiff.node`) whose
hand-written vjp repeats, in the same order, the float operations of the
composition of `autodiff` ops that defines it, so its value and gradients
are those of that composition bit for bit. `total_objective` adds up
whatever terms it is given.

Conventions: a domain loss takes one training step's (2, ...) pair, the
source image first and the target image second, and adds the two images'
terms. Feature maps are (2, C, H, W). One least-squares loss,
`local_adv_loss`, serves all three level classifiers: the per-location map
on f1 and the pooled f2 and f3 classifiers, whose one probability per image
is a single location. The region classifier's probabilities are its
"source" probability and are clamped to [1e-7, 1 - 1e-7] before any
logarithm.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .specs import is_real, require

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class ObjectiveWeights:
    """Scalar weights of the combined objective.

    `beta` scales the reconstruction + difference terms, `lam` the
    adversarial terms, `gamma` is the focal-loss focusing exponent.
    """

    beta: float = 0.1
    lam: float = 1.0
    gamma: float = 5.0

    def __post_init__(self):
        require(self, lambda v: is_real(v) and v >= 0, "finite and non-negative",
                "beta", "lam", "gamma")


def _check_pair(x, what):
    """Raise unless `x` has a leading axis of 2: the source image, then the
    target image."""
    if np.shape(x)[:1] != (2,):
        raise ValueError(f"{what} must lead with the (source, target) pair axis "
                         f"of 2, not shape {np.shape(x)}")


def difference_loss(priv, shared):
    """Orthogonality penalty between private and shared pooled features.

    `priv` and `shared` are (2, C, H, W) pairs of the two streams. Each image
    contributes the squared inner product of its two pooled vectors, and the
    two images' terms add.
    """
    _check_pair(priv, "private features")
    if len(np.shape(priv)) != 4 or len(np.shape(shared)) != 4:
        raise ValueError("expected an (N, C, H, W) batch")
    if np.shape(priv)[:2] != np.shape(shared)[:2]:
        raise ValueError("pooled channel counts differ between streams")
    dv, fv = ad.value_of(priv), ad.value_of(shared)
    nd, nf = float(dv.shape[-2] * dv.shape[-1]), float(fv.shape[-2] * fv.shape[-1])
    gd = dv.sum(axis=(-2, -1)) / nd
    gf = fv.sum(axis=(-2, -1)) / nf
    inner = (gd * gf).sum(axis=(1,))

    def vjp(g):
        # inner * inner gives each of its two operands the gradient t
        t = np.broadcast_to(g, inner.shape) * inner
        dprod = np.broadcast_to((t + t)[:, None], gd.shape)
        return (np.broadcast_to((dprod * gf / nd)[..., None, None], dv.shape).copy(),
                np.broadcast_to((dprod * gd / nf)[..., None, None], fv.shape).copy())

    return ad.node((inner * inner).sum(), (priv, shared), vjp)


def reconstruction_loss(originals, reconstructions, normalize=False):
    """L1 distance between (2, C, H, W) pairs of maps.

    Each image's L1 norm is the raw sum of its absolute entry differences;
    set `normalize=True` to divide it by the image's entry count. The two
    images' terms add.
    """
    _check_pair(originals, "originals")
    shape = np.shape(originals)
    if shape != np.shape(reconstructions):
        raise ValueError("paired maps must share a shape")
    w = np.full(2, 1.0 / math.prod(shape[1:]) if normalize else 1.0)
    diff = ad.value_of(originals) - ad.value_of(reconstructions)
    axes = tuple(range(1, len(shape)))

    def vjp(g):
        d = np.broadcast_to(np.expand_dims(g * w, axes), shape) * np.sign(diff)
        return (d, -d)

    return ad.node(np.abs(diff).sum(axis=axes) @ w, (originals, reconstructions), vjp)


def region_instance_loss(probs, groups_per_image, gamma):
    """Focal domain loss over group probabilities.

    `probs` holds the region classifier's source probabilities of every
    group of the pair, the source image's groups first, and
    `groups_per_image` the two images' group counts. A row's focal term is
    -(1 - p)^gamma * log(p) of the probability p of its own domain (p for a
    source row, 1 - p for a target row), clamped to [1e-7, 1 - 1e-7]; the
    clamp passes no gradient. Each image averages over its groups, and the
    two images' losses are averaged.
    """
    _check_pair(groups_per_image, "groups_per_image")
    counts = np.asarray(groups_per_image)
    if (counts < 1).any() or counts.sum() != np.size(probs):
        raise ValueError("an image contributed no group probabilities")
    row_domain = np.repeat([0, 1], counts)
    sign = 1.0 - 2.0 * row_domain
    own = row_domain + sign * ad.value_of(probs)
    pc = np.clip(own, PROB_CLAMP, 1.0 - PROB_CLAMP)
    inside = (own > PROB_CLAMP) & (own < 1.0 - PROB_CLAMP)
    q, p = 1.0 - pc, float(gamma)
    qp, logp = (np.ones_like(q) if p == 0.0 else q**p), np.log(pc)
    w = np.repeat(0.5 / counts, counts)

    def vjp(g):
        dterm = -(g * w)
        dq = np.zeros_like(q) if p == 0.0 else dterm * logp * p * q ** (p - 1.0)
        return ((-dq + dterm * qp / pc) * inside * sign,)

    return ad.node(-(qp * logp) @ w, (probs,), vjp)


def local_adv_loss(p):
    """Least-squares domain loss of a level classifier: for (2, ...) domain
    probabilities, each image's mean over its locations of
    (p - domain label)^2, the source label 0 and the target label 1; the two
    images' terms add. A per-location map is (2, 1, H, W); a pooled
    (image-level) classifier's (2,) probabilities are one location each."""
    _check_pair(p, "domain probabilities")
    pv = ad.value_of(p)
    per_image = (2,) + (1,) * (pv.ndim - 1)
    err = pv - np.array([0.0, 1.0]).reshape(per_image)
    axes = tuple(range(1, pv.ndim))
    w = np.full(2, 1.0 / math.prod(pv.shape[1:]))

    def vjp(g):
        # err * err gives each of its two operands the gradient t
        t = np.broadcast_to((g * w).reshape(per_image), pv.shape) * err
        return (t + t,)

    return ad.node((err * err).sum(axis=axes) @ w, (p,), vjp)


def total_objective(l_c, l_r, l_rec, l_diff, l_lg, l_ri, w):
    """Combined objective value L_c + L_r + beta*(L_rec + L_diff)
    - lam*(L_lg + L_ri).

    This is the reported min-max saddle value; the adversarial max/min split
    itself is realised by gradient reversal in the network, not here.
    """
    return l_c + l_r + w.beta * (l_rec + l_diff) - w.lam * (l_lg + l_ri)
