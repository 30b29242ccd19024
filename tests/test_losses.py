import math

import numpy as np
import pytest

from fsalign import autodiff as ad
from fsalign import losses
from fsalign.network import global_pool

# The op compositions each one-node domain loss replaced, kept as oracles:
# the loss node must give their value and every gradient bit for bit
# (`TestLossNodesMatchTheirCompositions`).


def focal_source_term(p, gamma):
    """-(1-p)^gamma * log(p) for a source-domain probability p."""
    pc = ad.clip(p, losses.PROB_CLAMP, 1.0 - losses.PROB_CLAMP)
    return ad.mul(ad.power(ad.sub(1.0, pc), gamma) * ad.log(pc), -1.0)


def _per_image(a):
    nd = len(np.shape(a))
    return ad.sum(a, axis=tuple(range(1, nd))) if nd > 1 else a


def composed_difference_loss(priv, shared):
    inner = _per_image(global_pool(priv) * global_pool(shared))
    return ad.sum(inner * inner)


def composed_reconstruction_loss(originals, reconstructions, normalize=False):
    w = 1.0 / math.prod(np.shape(originals)[1:]) if normalize else 1.0
    return ad.matmul(_per_image(ad.absolute(ad.sub(originals, reconstructions))), np.full(2, w))


def composed_region_instance_loss(probs, groups_per_image, gamma):
    counts = np.asarray(groups_per_image)
    row_domain = np.repeat([0, 1], counts)
    own = ad.add(row_domain, (1.0 - 2.0 * row_domain) * probs)
    return ad.matmul(focal_source_term(own, gamma), np.repeat(0.5 / counts, counts))


def composed_local_adv_loss(p):
    shape = np.shape(p)
    err = ad.sub(p, np.array([0.0, 1.0]).reshape((2,) + (1,) * (len(shape) - 1)))
    return ad.matmul(_per_image(err * err), np.full(2, 1.0 / math.prod(shape[1:])))


def brute_global_pool(f):
    c, h, w = f.shape
    out = np.zeros(c)
    for ci in range(c):
        s = 0.0
        for i in range(h):
            for j in range(w):
                s += f[ci, i, j]
        out[ci] = s / (h * w)
    return out


def brute_difference(ds, f3s, dt, f3t):
    total = 0.0
    for priv, shared in ((ds, f3s), (dt, f3t)):
        if not priv:
            continue
        acc = 0.0
        for d, f in zip(priv, shared):
            inner = 0.0
            for c in range(d.shape[0]):
                inner += brute_global_pool(d)[c] * brute_global_pool(f)[c]
            acc += inner**2
        total += acc / len(priv)
    return total


class TestDifferenceLoss:
    def test_orthogonal_pairs_zero(self):
        d = np.zeros((2, 2, 2))
        d[0] = 1.0
        f = np.zeros((2, 2, 2))
        f[1] = 1.0
        assert losses.difference_loss(np.stack([d, d]), np.stack([f, f])).value == 0.0

    def test_single_source_sample(self):
        """The source image's term alone, beside a target image with zero
        private features."""
        d = np.zeros((2, 2, 1, 1))
        d[0, 0] = 1.0
        f = np.zeros((2, 2, 1, 1))
        f[:, 0] = 2.0
        assert losses.difference_loss(d, f).value == pytest.approx(4.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        ds, f3s, dt, f3t = ([rng.normal(size=(3, 2, 4))] for _ in range(4))
        got = losses.difference_loss(np.stack(ds + dt), np.stack(f3s + f3t)).value
        assert got == pytest.approx(brute_difference(ds, f3s, dt, f3t), abs=1e-12)

    def test_quadratic_scaling_in_one_sample(self):
        rng = np.random.default_rng(3)
        d = [rng.normal(size=(2, 3, 3)) for _ in range(2)]
        f = [rng.normal(size=(2, 3, 3)) for _ in range(2)]
        base_terms = [
            float(np.dot(global_pool(di[None]).value[0],
                         global_pool(fi[None]).value[0])) ** 2
            for di, fi in zip(d, f)
        ]
        alpha = 1.7
        scaled = losses.difference_loss(np.stack(d), np.stack([f[0] * alpha, f[1]])).value
        want = base_terms[0] * alpha**2 + base_terms[1]
        assert scaled == pytest.approx(want, rel=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            losses.difference_loss(np.zeros((2, 2, 2, 2)), np.zeros((2, 3, 2, 2)))


class TestReconstructionLoss:
    def test_identical_pairs(self):
        x = np.ones((2, 1, 3, 3))
        assert losses.reconstruction_loss(x, x).value == 0.0

    def test_unit_differences(self):
        """Unit differences on the source image, none on the target."""
        x = np.zeros((2, 1, 2, 2))
        y = np.zeros((2, 1, 2, 2))
        y[0] = 1.0
        assert losses.reconstruction_loss(x, y).value == pytest.approx(4.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=(2, 3, 4)) for _ in range(2)]
        ys = [rng.normal(size=(2, 3, 4)) for _ in range(2)]
        want = sum(float(np.abs(x - y).sum()) for x, y in zip(xs, ys))
        got = losses.reconstruction_loss(np.stack(xs), np.stack(ys)).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(2, 1, 4, 4))
        ys = rng.normal(size=(2, 1, 4, 4))
        assert (losses.reconstruction_loss(xs, ys).value
                == losses.reconstruction_loss(ys, xs).value)

    def test_normalize_flag(self):
        x = np.zeros((2, 1, 2, 2))
        y = np.zeros((2, 1, 2, 2))
        y[0] = 1.0
        assert losses.reconstruction_loss(x, y, normalize=True).value == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            losses.reconstruction_loss(np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 3, 3)))


class TestFocalTerms:
    def test_gamma_zero_reduces_to_log(self):
        assert focal_source_term(0.5, 0.0).value == pytest.approx(
            0.6931471805599453, abs=1e-12
        )

    def test_confident_terms_vanish(self):
        assert focal_source_term(1.0, 5.0).value == pytest.approx(0.0, abs=1e-20)

    def test_gamma_five_frozen_value(self):
        # -(0.1)^5 * log(0.9), frozen with 50-digit arithmetic
        want = 1.0536051565782630e-06
        assert focal_source_term(0.9, 5.0).value == pytest.approx(want, rel=1e-12)

    def test_bce_equivalence_at_gamma_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q = rng.uniform(1e-6, 1 - 1e-6, size=2)
            got = (focal_source_term(p, 0.0).value
                   + focal_source_term(1 - q, 0.0).value)
            want = -math.log(p) - math.log(1.0 - q)
            assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for p in rng.uniform(0, 1, size=50):
            assert focal_source_term(p, 5.0).value >= 0.0
            assert focal_source_term(1 - p, 5.0).value >= 0.0


def brute_region_instance(source_probs, target_probs, gamma):
    def clamp(p):
        return min(max(p, 1e-7), 1 - 1e-7)

    ls = 0.0
    for probs in source_probs:
        acc = 0.0
        for p in probs:
            p = clamp(p)
            acc += -((1 - p) ** gamma) * math.log(p)
        ls += acc / len(probs)
    ls /= len(source_probs)
    lt = 0.0
    for probs in target_probs:
        acc = 0.0
        for p in probs:
            p = clamp(p)
            acc += -(p**gamma) * math.log(1 - p)
        lt += acc / len(probs)
    lt /= len(target_probs)
    return 0.5 * (ls + lt)


class TestRegionInstanceLoss:
    def test_single_images_single_groups(self):
        got = losses.region_instance_loss([0.5, 0.5], [1, 1], 0.0).value
        assert got == pytest.approx(0.6931471805599453, abs=1e-9)

    def test_confident_classifier_zero(self):
        got = losses.region_instance_loss([1.0, 1.0, 0.0], [2, 1], 5.0).value
        assert got == pytest.approx(0.0, abs=1e-20)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        src, tgt = ([list(rng.uniform(0.05, 0.95, size=n))] for n in (3, 5))
        got = losses.region_instance_loss(
            np.concatenate(src + tgt), [len(p) for p in src + tgt], 5.0).value
        assert got == pytest.approx(brute_region_instance(src, tgt, 5.0), abs=1e-12)

    def test_empty_group_list_rejected(self):
        with pytest.raises(ValueError):
            losses.region_instance_loss([0.5], [0, 1], 5.0)


class TestLocalAdvLoss:
    def test_perfect_classifier_zero(self):
        s = np.zeros((1, 3, 3))
        t = np.ones((1, 3, 3))
        assert losses.local_adv_loss(np.stack([s, t])).value == 0.0

    def test_worst_classifier_two(self):
        s = np.ones((1, 2, 2))
        t = np.zeros((1, 2, 2))
        assert losses.local_adv_loss(np.stack([s, t])).value == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        smap, tmap = rng.uniform(size=(2, 1, 3, 4))
        s_pix, t_pix = smap.ravel(), tmap.ravel()
        want = float((s_pix**2).mean() + ((1 - t_pix) ** 2).mean())
        got = losses.local_adv_loss(np.stack([smap, tmap])).value
        assert got == pytest.approx(want, abs=1e-12)


class TestPooledAdvLoss:
    """`local_adv_loss` on a pooled classifier's (2,) probabilities: one
    location per image."""

    def test_perfect_and_worst_classifier(self):
        assert losses.local_adv_loss([0.0, 1.0]).value == 0.0
        assert losses.local_adv_loss([1.0, 0.0]).value == 2.0

    def test_equals_one_location_local_loss(self):
        ps, pt = 0.3, 0.8
        want = losses.local_adv_loss(np.array([ps, pt]).reshape(2, 1, 1, 1)).value
        assert losses.local_adv_loss([ps, pt]).value == want

    def test_gradient(self):
        p = ad.Tensor([0.3, 0.8])
        loss = losses.local_adv_loss(p)
        loss.backward()
        assert float(loss.value) == 0.3 * 0.3 + (1.0 - 0.8) * (1.0 - 0.8)
        assert p.grad == pytest.approx([0.6, -0.4])


def _operands(values, live):
    """Fresh operands of one call: a `Tensor` where `live` says so, else
    the plain array."""
    return [ad.Tensor(v) if on else v for v, on in zip(values, live)]


def assert_node_matches_composition(loss, composed, values, live, *extra, seed=1.37):
    """`loss` is one node whose parents are the live operands, and its value
    and the gradient of each live operand equal those of `composed`, the op
    composition it replaced, bit for bit."""
    got_args, want_args = _operands(values, live), _operands(values, live)
    got, want = loss(*got_args, *extra), composed(*want_args, *extra)
    assert got._parents == tuple(a for a in got_args if isinstance(a, ad.Tensor))
    assert got.value.tobytes() == want.value.tobytes()
    if not any(live):
        return
    got.backward(np.asarray(seed))
    want.backward(np.asarray(seed))
    for g, w in zip(got_args, want_args):
        if isinstance(g, ad.Tensor):
            assert g.grad.shape == w.grad.shape
            assert g.grad.tobytes() == w.grad.tobytes()


class TestLossNodesMatchTheirCompositions:
    @pytest.mark.parametrize("shape", [(2,), (2, 1, 5, 7), (2, 3)])
    @pytest.mark.parametrize("live", [(True,), (False,)])
    def test_local_adv(self, shape, live):
        p = np.random.default_rng(len(shape)).uniform(size=shape)
        assert_node_matches_composition(losses.local_adv_loss, composed_local_adv_loss,
                                        [p], live)

    @pytest.mark.parametrize("counts", [(1, 1), (3, 5), (6, 2)])
    @pytest.mark.parametrize("gamma", [5.0, 0.0, 2.5])
    @pytest.mark.parametrize("live", [(True,), (False,)])
    def test_region_instance(self, counts, gamma, live):
        probs = np.random.default_rng(sum(counts)).uniform(0.02, 0.98, size=sum(counts))
        assert_node_matches_composition(losses.region_instance_loss,
                                        composed_region_instance_loss, [probs], live,
                                        list(counts), gamma)

    @pytest.mark.parametrize("gamma", [5.0, 0.0])
    def test_region_instance_at_and_beyond_the_clamp(self, gamma):
        c = losses.PROB_CLAMP
        probs = np.array([0.0, c, 1.0 - c, 1.0, c / 2, 1.0 - c / 2, -0.5,
                          1.0, 0.0, c, 1.0 - c, 2.0, 0.5])
        assert_node_matches_composition(losses.region_instance_loss,
                                        composed_region_instance_loss, [probs], (True,),
                                        [7, 6], gamma)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("live", [(False, True), (True, True), (True, False)])
    def test_reconstruction(self, normalize, live):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 2, 1, 6, 5))
        b[0, 0, 0] = a[0, 0, 0]  # zero differences take the sign subgradient 0
        assert_node_matches_composition(losses.reconstruction_loss,
                                        composed_reconstruction_loss, [a, b], live,
                                        normalize)

    @pytest.mark.parametrize("live", [(True, True), (False, True), (True, False)])
    def test_difference(self, live):
        rng = np.random.default_rng(6)
        d, f = rng.normal(size=(2, 3, 4, 3)), rng.normal(size=(2, 3, 5, 3))
        assert_node_matches_composition(losses.difference_loss, composed_difference_loss,
                                        [d, f], live)


class TestObjective:
    def test_all_zero(self):
        w = losses.ObjectiveWeights()
        assert losses.total_objective(0, 0, 0, 0, 0, 0, w) == 0.0

    def test_weight_gating(self):
        w = losses.ObjectiveWeights(beta=0.0, lam=0.0)
        assert losses.total_objective(1.5, 2.5, 9, 9, 9, 9, w) == 4.0

    def test_arithmetic(self):
        w = losses.ObjectiveWeights(beta=0.1, lam=1.0)
        got = losses.total_objective(1, 1, 2, 2, 3, 3, w)
        assert got == pytest.approx(-3.6, abs=1e-12)


class TestDifferentiability:
    """The losses take graph tensors and expose their gradients."""

    def test_difference_loss_gradients(self):
        rng = np.random.default_rng(11)
        d = ad.Tensor(rng.normal(size=(2, 2, 3, 3)))
        f = ad.Tensor(rng.normal(size=(2, 2, 3, 3)))
        out = losses.difference_loss(d, f)
        out.backward()
        assert d.grad is not None and f.grad is not None
        eps = 1e-6
        i = (0, 0, 1, 2)
        dv = d.value.copy()
        dv[i] += eps
        hi = losses.difference_loss(dv, f.value).value
        dv[i] -= 2 * eps
        lo = losses.difference_loss(dv, f.value).value
        assert d.grad[i] == pytest.approx((hi - lo) / (2 * eps), rel=1e-5)

    def test_focal_gradient(self):
        p = ad.Tensor(0.7)
        focal_source_term(p, 5.0).backward()
        eps = 1e-7
        fd = (
            focal_source_term(0.7 + eps, 5.0).value
            - focal_source_term(0.7 - eps, 5.0).value
        ) / (2 * eps)
        assert float(p.grad) == pytest.approx(fd, rel=1e-6)

    def test_nonnegativity_everywhere(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = rng.normal(size=(2, 2, 2, 2))
            f = rng.normal(size=(2, 2, 2, 2))
            assert losses.difference_loss(d, f).value >= 0.0
            assert losses.reconstruction_loss(d, f).value >= 0.0
            maps = np.repeat(rng.uniform(size=(1, 1, 2, 2)), 2, axis=0)
            assert losses.local_adv_loss(maps).value >= 0.0


# each domain loss called on n images instead of the (source, target) pair
PAIR_LOSSES = {
    "difference": lambda n: losses.difference_loss(np.ones((n, 2, 2, 2)),
                                                   np.ones((n, 2, 2, 2))),
    "reconstruction": lambda n: losses.reconstruction_loss(np.ones((n, 1, 2, 2)),
                                                           np.ones((n, 1, 2, 2))),
    "region_instance": lambda n: losses.region_instance_loss(np.full(n, 0.5), [1] * n, 5.0),
    "local_adv": lambda n: losses.local_adv_loss(np.full((n, 1, 2, 2), 0.5)),
    "pooled_adv": lambda n: losses.local_adv_loss(np.full(n, 0.5)),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("loss", sorted(PAIR_LOSSES))
def test_domain_losses_take_only_the_pair(loss, n):
    with pytest.raises(ValueError, match="pair axis of 2"):
        PAIR_LOSSES[loss](n)
    assert np.isfinite(PAIR_LOSSES[loss](2).value)
