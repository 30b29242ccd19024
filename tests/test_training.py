import csv
import dataclasses
import hashlib
import io
import json
import traceback

import numpy as np
import pytest

from fsalign import autodiff as ad
from fsalign import network as nw
from fsalign import grouping, losses, synth, training


def tiny_config(iterations):
    """The gradient check's narrow network and 32x32 scenes
    (`training.gradcheck_config`) with a 2+2 corpus."""
    return dataclasses.replace(training.gradcheck_config(), iterations=iterations,
                               corpus_size=2, eval_size=3, probe_size=3)


def _pair_and_net(seed=0):
    """The gradient check's net and its (source, target) corpus pair."""
    cfg = dataclasses.replace(training.gradcheck_config(), seed=seed)
    (source,), (target,) = training.build_training_corpus(cfg)
    return nw.SeparationNet(cfg.network, seed=seed), source, target


def _checked_losses(net, source, target, lam):
    """The loss graph the gradient check reads, at GRL coefficient `lam`."""
    cfg = training.gradcheck_config()
    return training.compute_losses(net, source, target, cfg.weights, lam,
                                   cfg.normalize_reconstruction)


LOSS_COLUMNS = training.CSV_COLUMNS[1:]

# per-step (L_c, L_r, L_rec, L_diff, L_lg, L_ri, total) of train(tiny_config(12)),
# recorded with the per-proposal crop_pool / per-group head implementation
GOLDEN_ROWS = np.array([
    [1.425588837454761, 0.05368830760339671, 0.7307985112369606, 0.0020910335536456362, 1.9095786694190189, 0.019110307313629907, -0.37612287719543036],
    [1.377993130888969, 0.029154403132432193, 0.7056873127194674, 0.0010302794141513298, 1.6872273555660735, 0.019684998701972566, -0.22909306103328286],
    [1.376166966755057, 0.029449673352561045, 0.7050297616472709, 0.001556854610499164, 1.7306826233822261, 0.018903703913560367, -0.2733110255623916],
    [1.3729185320781072, 0.030090714558885595, 0.7022025936709599, 0.002518002145097255, 1.800113363773717, 0.017821021159550934, -0.34445307871466935],
    [1.4302806592747466, 0.05262532687160759, 0.7299833222716829, 0.008665539454888054, 2.111191870244851, 0.01881790272878597, -0.5732389006546257],
    [1.4321098792079447, 0.05186192906616004, 0.7273755620090656, 0.01292882372953579, 2.1986472940339903, 0.021338969182838393, -0.661984016368864],
    [1.3605146970228892, 0.031979433697094745, 0.6995354253939567, 0.011731815126101719, 2.128175767442335, 0.020889514449252487, -0.6854444271195979],
    [1.4344235151286124, 0.04884258573996651, 0.7282211145206459, 0.026930160901312127, 2.3566496540744413, 0.021671570258818565, -0.8195399959224847],
    [1.3518485848398636, 0.032081943514548954, 0.6982420820915021, 0.024352836236511268, 2.324890552447888, 0.02155984495113401, -0.8902603772118076],
    [1.434484241173339, 0.046410407881819035, 0.7276917858615048, 0.03680565790990997, 2.417414999832456, 0.02230838153132003, -0.8823789879314765],
    [1.350948848451238, 0.03199324983125372, 0.6980499440102301, 0.025840005469859147, 2.339802749235588, 0.021735433866954205, -0.9062070898720418],
    [1.4343345577117894, 0.04589571747223899, 0.7275018843514031, 0.03871950761709686, 2.426470082466583, 0.02243847353708268, -0.8920561416227872],
])


def test_train_rows_match_golden():
    result = training.train(tiny_config(12))
    got = np.array([[r[c] for c in LOSS_COLUMNS] for r in result.rows])
    np.testing.assert_allclose(got, GOLDEN_ROWS, rtol=1e-10, atol=0.0)


def test_injected_nan_raises_at_the_node():
    net, source, target = _pair_and_net()
    opt = ad.SGD(net.params(), lr=1e-3)
    net.dec[1].w.value[0, 0, 0, 0] = np.nan
    with pytest.raises(training.TrainingDiverged, match="branch pair forward") as err:
        training.train_step(net, source, target, losses.ObjectiveWeights(), opt)
    # caught where the NaN first enters a node, not at a branch output: in
    # the activation epilogue of the decoder block that reads the kernel
    cause = err.value.__cause__
    assert isinstance(cause, FloatingPointError)
    frames = [f.name for f in traceback.extract_tb(cause.__traceback__)]
    assert frames[-1] == "_activate" and "upsample_conv2d" in frames


@pytest.mark.parametrize("conv", [
    lambda net: net.f1_conv, lambda net: net.enc_s[0], lambda net: net.enc_t[0],
], ids=["backbone", "source encoder", "target encoder"])
def test_an_overflowed_conv_raises_though_tanh_would_squash_it(conv):
    """A kernel that overflows its conv's output to inf fails the step in
    that conv's tanh epilogue, where tanh would give a finite 1."""
    net, source, target = _pair_and_net()
    opt = ad.SGD(net.params(), lr=1e-3)
    conv(net).w.value[0] = 1e308  # every tap of one output channel
    with np.errstate(over="ignore"), pytest.raises(
            training.TrainingDiverged, match="branch pair forward") as err:
        training.train_step(net, source, target, losses.ObjectiveWeights(), opt)
    frames = [f.name for f in traceback.extract_tb(err.value.__cause__.__traceback__)]
    assert frames[-1] == "_activate" and "conv2d" in frames


def test_nan_in_the_detector_head_names_its_branch():
    net, source, target = _pair_and_net()
    opt = ad.SGD(net.params(), lr=1e-3)
    net.head_cls.w.value[0, 0] = np.nan
    with pytest.raises(training.TrainingDiverged, match="branch detector") as err:
        training.train_step(net, source, target, losses.ObjectiveWeights(), opt)
    assert isinstance(err.value.__cause__, FloatingPointError)


def test_a_step_makes_no_constant_nodes(monkeypatch):
    """Every node one default `train_step` builds has a parent: the image
    pair, the loss weights and the per-image matrices enter the graph as
    plain operands, so the only parentless nodes are the parameters, made
    before the step."""
    net = nw.SeparationNet(seed=0)
    _, source, target = _pair_and_net()
    opt = ad.SGD(net.params(), lr=1e-3)
    made = []
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    training.train_step(net, source, target, losses.ObjectiveWeights(), opt)
    assert made
    assert [t for t in made if not t._parents] == []


@pytest.mark.parametrize("weights, nodes", [
    (losses.ObjectiveWeights(), 56),
    (losses.ObjectiveWeights(beta=0.0, lam=0.0), 14),
], ids=["adapted", "source only"])
def test_a_step_builds_a_pinned_number_of_nodes(monkeypatch, weights, nodes):
    """The graph nodes one default `train_step` builds: each conv, affine
    layer and domain loss with its activation or whole formula is one node."""
    net = nw.SeparationNet(seed=0)
    _, source, target = _pair_and_net()
    opt = ad.SGD(net.params(), lr=1e-3)
    made = []
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    training.train_step(net, source, target, weights, opt)
    assert len(made) == nodes


def test_logged_total_uses_the_applied_lambda():
    cfg = dataclasses.replace(tiny_config(2), lambda_warmup_steps=4)
    row = training.train(cfg).rows[0]  # the warm-up starts at lam 0
    terms = [row[c] for c in ("L_c", "L_r", "L_rec", "L_diff", "L_lg", "L_ri")]
    at_zero = losses.total_objective(*terms, dataclasses.replace(cfg.weights, lam=0.0))
    assert row["total"] == at_zero
    assert at_zero != losses.total_objective(*terms, cfg.weights)


def _header_and_last_row(path):
    """A loss CSV's header and the loss fields of its last row."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, [float(v) for v in rows[-1][1:]]


def test_run_experiment_builds_the_corpus_once(monkeypatch, tmp_path):
    calls = []
    build = training.build_training_corpus

    def counted(cfg):
        calls.append(cfg)
        return build(cfg)

    monkeypatch.setattr(training, "build_training_corpus", counted)
    metrics = training.run_experiment(tiny_config(6), str(tmp_path))
    assert len(calls) == 1
    # recorded when each twin built and grouped its own corpus
    assert metrics == {
        "probe_accuracy_source_only": 1.0,
        "probe_accuracy_adapted": 1.0,
        "target_match_rate": 0.6666666666666666,
        "target_match_rate_source_only": 0.6666666666666666,
        "seeds": {"train": 0},
    }
    header, last = _header_and_last_row(tmp_path / "losses.csv")
    assert header == list(training.CSV_COLUMNS)
    np.testing.assert_allclose(last, [
        1.4304679733367895, 0.05255504963492267, 0.7280477133606047,
        0.0088885243591180323, 2.1199692749733732, 0.018669997621271937,
        -0.58192262585096044], rtol=1e-10, atol=0.0)
    # the source-only twin is the detector alone, so its CSV holds only
    # the detector terms and the total
    header, last = _header_and_last_row(tmp_path / "losses_source_only.csv")
    assert header == ["step", "L_c", "L_r", "total"]
    np.testing.assert_allclose(last, [
        1.4207127047326555, 0.050450546135618217, 1.4711632508682737],
        rtol=1e-10, atol=0.0)


@pytest.fixture(scope="module")
def trained_tiny():
    cfg = tiny_config(6)
    return training.train(cfg), training.build_eval_sets(cfg)


# the evaluation path of the net `train(tiny_config(6))` gives, recorded
# bit-for-bit: pooled f3 features of the detection eval images, and the
# `.17g` fields of its loss CSV parsed back
PINNED_POOLED = np.array([
    [-0.030992150088208256, -0.004183643059980764, -0.13385527198056638, -0.2804742551280509,
     -0.25473441982854406, -0.1840482655323189, 0.12598440352386991, 0.3794621749874763],
    [-0.03245384821527566, -0.006698098104613104, -0.1328968804060636, -0.2630772040145345,
     -0.2376034492567838, -0.18172969488930774, 0.11229893965071183, 0.3717685477183802],
    [-0.03502996174393276, -0.006959543238654513, -0.15624434722139843, -0.25444013699266566,
     -0.22812028959852296, -0.16754289546967172, 0.10552619009592365, 0.35095576568850995],
])
PINNED_CSV_ROWS = [
    [1.425588837454761, 0.05368830760339671, 0.7307985112369606, 0.0020910335536456362,
     1.9095786694190189, 0.0191103073136299, -0.37612287719543036],
    [1.377993130888969, 0.029154403132432193, 0.7056873127194674, 0.0010302794141513298,
     1.6872273555660735, 0.019684998701972555, -0.22909306103328286],
    [1.376166966755057, 0.029449673352561045, 0.7050297616472708, 0.0015568546104991635,
     1.7306826233822261, 0.018903703913560374, -0.2733110255623916],
    [1.3729185320781072, 0.030090714558885595, 0.7022025936709599, 0.002518002145097255,
     1.8001133637737172, 0.017821021159550934, -0.34445307871466957],
    [1.4302806592747463, 0.05262532687160759, 0.729983322271683, 0.008665539454888054,
     2.111191870244851, 0.01881790272878598, -0.5732389006546257],
    [1.4304679733367895, 0.05255504963492267, 0.7280477133606047, 0.008888524359118032,
     2.119969274973373, 0.018669997621271927, -0.5819226258509604],
]


def test_evaluation_path_is_pinned(trained_tiny):
    result, (probe_train, probe_eval, detect_eval) = trained_tiny
    pooled = training.pooled_features(result.net, [s for s, _ in detect_eval])
    assert np.array_equal(pooled, PINNED_POOLED)
    assert training.probe_domain_accuracy(result.net, probe_train, probe_eval) == 1.0
    assert training.target_match_rate(result.net, detect_eval) == 2 / 3
    rows = list(csv.reader(io.StringIO(training.rows_to_csv_text(result.rows))))
    assert rows[0] == list(training.CSV_COLUMNS)
    assert [int(r[0]) for r in rows[1:]] == list(range(6))
    assert [[float(v) for v in r[1:]] for r in rows[1:]] == PINNED_CSV_ROWS


def test_a_diverged_box_head_fails_the_match_rate(trained_tiny):
    """Refined boxes that overflow raise instead of scoring IoU 0."""
    _, (_, _, detect_eval) = trained_tiny
    net = nw.SeparationNet(tiny_config(1).network, seed=0)
    net.head_box.b.value[:] = 1e308
    with pytest.raises(ValueError, match="refined box"):
        training.target_match_rate(net, detect_eval)


def _digest(rows):
    """sha256 of the little-endian float64 bytes of each row in turn."""
    h = hashlib.sha256()
    for row in rows:
        h.update(np.asarray(row, dtype="<f8").tobytes())
    return h.hexdigest()


# sha256 digests of the held-out sets of `tiny_config`, recorded bit-for-bit:
# the images of each probe split's source and target samples and of the
# detection set, and the detection set's proposals and ground truth
PINNED_HELD_OUT = {
    "probe_train": ["5585adabead2d7962cf31b86db57458bdb55893c43c89e4e9260672fc27df984",
                    "a6512217cb53e6d00ee24db9df95f080e9d0338c1396861be15acf39f2a9c0de"],
    "probe_eval": ["3dde7380c007312312bf1b1c6709d3f7d831debf8ce26a953dc225474eae9c54",
                   "f8713fe423a16816f630b3572f74db7e54ef1bd8324930a8de4450346685bd2c"],
    "detect_images": "ea5bb00be071ad44f7419831c6ff1dd5a41978b9211c41894901596299245d46",
    "detect_proposals": "dc18f646c9b578ebd117650b86f96cb86007f87dbcf7be42bc4a8861146ec4a9",
    "detect_truth": "24085e494e611e3ee914b9d09e3c4ab6a9af093fbb558faa3df32f3f13e82e50",
}


def test_held_out_sets_are_pinned(trained_tiny):
    _, (probe_train, probe_eval, detect_eval) = trained_tiny
    got = {}
    for name, probe in (("probe_train", probe_train), ("probe_eval", probe_eval)):
        # the source samples, then the target samples, keyed by domain or paired
        domains = probe.values() if isinstance(probe, dict) else probe
        got[name] = [_digest(s.rgb for s, _ in samples) for samples in domains]
    got["detect_images"] = _digest(s.rgb for s, _ in detect_eval)
    got["detect_proposals"] = _digest(
        np.column_stack([pset.boxes, pset.objectness]) for _, pset in detect_eval)
    got["detect_truth"] = _digest(
        np.column_stack([s.eval_boxes(), s.eval_labels()]) for s, _ in detect_eval)
    assert got == PINNED_HELD_OUT


def test_eval_sets_generate_only_the_scenes_they_keep(monkeypatch):
    """One scene per held-out sample: two probe splits of both domains and
    the target detection set."""
    calls = []
    generate = synth.generate_scene

    def counted(spec=None, seed=0):
        calls.append(seed)
        return generate(spec, seed)

    monkeypatch.setattr(synth, "generate_scene", counted)
    cfg = dataclasses.replace(tiny_config(1), probe_size=2, eval_size=3)
    training.build_eval_sets(cfg)
    assert len(calls) == 4 * cfg.probe_size + cfg.eval_size


def test_source_only_config_changes_only_weights():
    cfg = tiny_config(6)
    twin = training.source_only_config(cfg)
    assert twin.weights.beta == 0.0 and twin.weights.lam == 0.0
    assert dataclasses.replace(twin, weights=cfg.weights) == cfg


def test_l_rec_gradcheck_through_the_decoder():
    report = training.finite_difference_check(branches=["l_rec"], coords_per_param=3)
    assert report["l_rec"]["max_rel_err"] <= 1e-6


GATED_BRANCHES = ["l_c", "l_r", "l_diff", "l_adv1", "l_adv2", "l_adv3"]


def test_gradcheck_gate():
    report = training.finite_difference_check(branches=GATED_BRANCHES,
                                              coords_per_param=1)
    assert set(report) == set(GATED_BRANCHES)
    for branch, entry in report.items():
        assert entry["max_rel_err"] <= 1e-6, branch
        if branch in training.REVERSED_BRANCHES:
            assert entry["sign_symmetric"], branch


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the region-instance head reads the level classifiers' context detached: "
    "perturbing the backbone or a level classifier moves the loss through it, "
    "but no gradient flows back that way"))
@pytest.mark.parametrize("branch", ["l_ri", "composite"])
def test_gradcheck_through_the_detached_context(branch):
    report = training.finite_difference_check(branches=[branch], coords_per_param=1)
    assert report[branch]["max_rel_err"] <= 1e-6


def test_one_forward_report_equals_the_per_branch_loop():
    """The report reads every branch from one forward per perturbation; a
    loop that rebuilds the graph for each branch must give the same bits."""
    report = training.finite_difference_check(branches=["l_adv1", "l_ri"],
                                              coords_per_param=1)
    net, source, target = _pair_and_net()
    loop = nw.finite_difference_report(
        net.named_params(),
        lambda: {"l_ri": _checked_losses(net, source, target, -1.0)["l_ri"]},
        ["l_ri"], coords_per_param=1, rng=np.random.default_rng(1))
    assert loop["l_ri"] == report["l_ri"]["per_param"]


def test_train_step_descends_the_checked_composite():
    net, source, target = _pair_and_net()
    weights = losses.ObjectiveWeights()
    training.train_step(net, source, target, weights, ad.SGD(net.params(), lr=0.0))
    trained = [p.grad.copy() for p in net.params()]
    for p in net.params():
        p.grad = None
    _checked_losses(net, source, target, weights.lam)["composite"].backward()
    for (name, p), g in zip(net.named_params(), trained):
        assert p.grad.tobytes() == g.tobytes(), name


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_composite_gradient_is_the_weighted_branch_sum(lam):
    """Read from one graph, the composite's gradient equals the weighted sum
    of the branch gradients; not bitwise, as the summation order differs."""
    net, source, target = _pair_and_net()
    named = net.named_params()
    beta = training.TrainConfig().weights.beta
    g = nw.branch_gradients(named, _checked_losses(net, source, target, lam),
                            training.ALL_BRANCHES)
    for i, (name, _) in enumerate(named):
        want = (g["l_c"][i] + g["l_r"][i] + beta * (g["l_rec"][i] + g["l_diff"][i])
                + g["l_adv1"][i] + g["l_adv2"][i] + g["l_adv3"][i] + g["l_ri"][i])
        got = g["composite"][i]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(got).max(), name


def _reference_losses(net, source_entry, target_entry, weights, lam):
    """The per-image composition the pair forward replaced: each image runs
    through every module on its own and each term is summed over the two
    domains (normalised reconstruction). Each image's private features come
    from its own domain's encoder layers, called one by one on that image
    alone, a batch of one."""
    def image_forward(entry, encoder):
        sample = entry.sample
        f1, f2, f3 = net.forward_backbone(sample.rgb[None])
        d = gray = sample.gray[None]
        for conv in encoder:
            d = ad.tanh(conv(d))
        p1map, f_l = net.local_domain(ad.grl(f1, lam))
        p2, f_m = net.mid_domain(ad.grl(f2, lam))
        p3, f_g = net.global_domain(ad.grl(f3, lam))
        ctx = np.concatenate([f_l, f_m, f_g], axis=1)
        boxes = entry.pset.boxes
        roi = nw.roi_pool(f3, nw.roi_pool_matrix(boxes, *f3.shape[2:]))
        fr = ad.matmul(nw.group_mean_matrix(entry.groups, len(boxes)), roi)
        fused = ad.concat([np.tile(ctx, (len(entry.groups), 1)), ad.grl(fr, lam)], axis=1)
        return {"f3": f3, "d": d, "xhat": net.reconstruct(d, f3), "gray": gray,
                "p1map": p1map, "p2": ad.reshape(p2, ()), "p3": ad.reshape(p3, ()),
                "roi": roi, "probs": net.region_domain(fused)}

    s, t = image_forward(source_entry, net.enc_s), image_forward(target_entry, net.enc_t)
    logits, deltas = net.detector_head(s["roi"])
    l_c, l_r = nw.detector_losses(logits, deltas, nw.detector_targets(
        source_entry.pset.boxes, source_entry.sample.boxes, source_entry.sample.labels))

    def rec(x):
        return ad.sum(ad.absolute(x["gray"] - x["xhat"])) / float(x["gray"].size)

    def diff(x):
        inner = ad.sum(ad.mean(x["d"], axis=(2, 3)) * ad.mean(x["f3"], axis=(2, 3)))
        return inner * inner

    def clamp(p):
        return ad.clip(p, losses.PROB_CLAMP, 1.0 - losses.PROB_CLAMP)

    q = 1.0 - t["p1map"]
    l_adv1 = ad.mean(s["p1map"] * s["p1map"]) + ad.mean(q * q)
    l_adv2 = s["p2"] * s["p2"] + (1.0 - t["p2"]) * (1.0 - t["p2"])
    l_adv3 = s["p3"] * s["p3"] + (1.0 - t["p3"]) * (1.0 - t["p3"])
    ps, pt = clamp(s["probs"]), clamp(t["probs"])
    l_ri = 0.5 * (ad.mean(-(ad.power(1.0 - ps, weights.gamma) * ad.log(ps)))
                  + ad.mean(-(ad.power(pt, weights.gamma) * ad.log(1.0 - pt))))
    l_rec, l_diff = rec(s) + rec(t), diff(s) + diff(t)
    l_lg = l_adv1 + l_adv2 + l_adv3
    composite = l_c + l_r + weights.beta * (l_rec + l_diff) + (l_lg + l_ri)
    return {"l_c": l_c, "l_r": l_r, "l_rec": l_rec, "l_diff": l_diff, "l_adv1": l_adv1,
            "l_adv2": l_adv2, "l_adv3": l_adv3, "l_lg": l_lg, "l_ri": l_ri,
            "composite": composite}


@pytest.mark.parametrize("seed, lam", [(0, 1.0), (1, 0.3)])
def test_pair_forward_matches_the_per_image_composition(seed, lam):
    net, source, target = _pair_and_net(seed)
    weights = losses.ObjectiveWeights()
    named = net.named_params()
    branches = list(training.ALL_BRANCHES) + ["l_lg"]
    pair = training.compute_losses(net, source, target, weights, lam, normalize_rec=True)
    ref = _reference_losses(net, source, target, weights, lam)
    grads = nw.branch_gradients(named, pair, branches)
    ref_grads = nw.branch_gradients(named, ref, branches)
    for branch in branches:
        want = float(ref[branch].value)
        assert abs(float(pair[branch].value) - want) <= 1e-12 * abs(want), branch
        for (name, _), got, g in zip(named, grads[branch], ref_grads[branch]):
            assert np.abs(got - g).max() <= 1e-12 * np.abs(g).max(), (branch, name)


ALIGNMENT_KEYS = {"l_adv1", "l_adv2", "l_adv3", "l_lg", "l_ri", "p3", "dri"}

# (beta, lam) -> the keys `compute_losses` returns
SELECTED_KEYS = {
    (0.1, 1.0): {"l_c", "l_r", "l_rec", "l_diff", "composite"} | ALIGNMENT_KEYS,
    (0.1, 0.0): {"l_c", "l_r", "l_rec", "l_diff", "composite"},
    (0.0, 1.0): {"l_c", "l_r", "composite"} | ALIGNMENT_KEYS,
    (0.0, 0.0): {"l_c", "l_r", "composite"},
}


@pytest.mark.parametrize("beta, lam", list(SELECTED_KEYS))
def test_weights_select_the_built_branches(beta, lam):
    """Each selection builds exactly its branches, and its composite is the
    matching terms of the per-image composition, in value and gradient."""
    net, source, target = _pair_and_net()
    weights = losses.ObjectiveWeights(beta=beta, lam=lam)
    out = training.compute_losses(net, source, target, weights, lam, normalize_rec=True)
    assert set(out) == SELECTED_KEYS[beta, lam]
    ref = _reference_losses(net, source, target, weights, lam)
    want = ref["l_c"] + ref["l_r"]
    if beta:
        want = want + beta * (ref["l_rec"] + ref["l_diff"])
    if lam:
        want = want + (ref["l_lg"] + ref["l_ri"])
    value = float(want.value)
    assert abs(float(out["composite"].value) - value) <= 1e-12 * abs(value)
    named = net.named_params()
    got = nw.branch_gradients(named, out, ["composite"])["composite"]
    ref_grads = nw.branch_gradients(named, {"composite": want}, ["composite"])["composite"]
    for (name, _), g, w in zip(named, got, ref_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def test_source_only_step_trains_the_detector_alone():
    """At beta = lam = 0 a step logs the detector terms and the total, and
    leaves the private encoders, the decoder and the domain heads without a
    gradient and unchanged."""
    net, source, target = _pair_and_net()
    before = {name: p.value.copy() for name, p in net.named_params()}
    vals = training.train_step(net, source, target,
                               losses.ObjectiveWeights(beta=0.0, lam=0.0),
                               ad.SGD(net.params(), lr=1e-3))
    assert set(vals) == {"L_c", "L_r", "total"}
    idle = ("enc_s.", "enc_t.", "decoder.", "d1.", "d2.", "d3.", "dri.")
    for name, p in net.named_params():
        if name.startswith(idle):
            assert p.grad is None and np.array_equal(p.value, before[name]), name
        else:
            assert p.grad is not None and not np.array_equal(p.value, before[name]), name


def test_compute_losses_returns_every_branch():
    net, source, target = _pair_and_net()
    out = training.compute_losses(net, source, target, losses.ObjectiveWeights(),
                                  lam=1.0, normalize_rec=True)
    for branch in training.ALL_BRANCHES:
        assert isinstance(out[branch], ad.Tensor) and out[branch].shape == (), branch


@pytest.mark.parametrize("through_json", [False, True])
def test_config_round_trip(through_json):
    cfg = dataclasses.replace(
        tiny_config(5), decay_step=3, lambda_warmup_steps=2,
        weights=losses.ObjectiveWeights(beta=0.2, lam=0.5, gamma=2.0),
    )
    cfg.scene = dataclasses.replace(
        cfg.scene, palette=((0.9, 0.1, 0.1), (0.1, 0.9, 0.1), (0.1, 0.1, 0.9)))
    cfg.cluster = dataclasses.replace(cfg.cluster, sigma0=0.5, max_scales=50)
    data = training.config_to_dict(cfg)
    if through_json:
        data = json.loads(json.dumps(data))
    back = training.config_from_dict(data)
    assert back == cfg
    assert isinstance(back.network.channels, tuple)
    assert all(isinstance(c, tuple) for c in back.scene.palette)


@pytest.mark.parametrize("data", [
    {"iteration": 5},
    {"weights": {"lam": 0.5}},
    {"network": {"channel": [4, 6, 8]}},
    {"cluster": {"sigma_0": 0.5}},
])
def test_config_rejects_unknown_keys(data):
    with pytest.raises(TypeError, match="unknown"):
        training.config_from_dict(data)


def test_config_missing_keys_take_the_defaults():
    data = {"iterations": 5, "weights": {"lambda": 0.5}, "scene": {"canvas": [32, 32]}}
    cfg = training.config_from_dict(data)
    assert cfg == dataclasses.replace(
        training.TrainConfig(), iterations=5,
        weights=losses.ObjectiveWeights(lam=0.5),
        scene=synth.SceneSpec(canvas=(32, 32)))


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    trained = training.train(tiny_config(2)).net
    training.save_checkpoint(trained, str(tmp_path))
    other = nw.SeparationNet(trained.spec, seed=7)
    assert not np.array_equal(other.dec[0].w.value, trained.dec[0].w.value)
    training.load_checkpoint(other, str(tmp_path))
    for (name, p), (oname, q) in zip(trained.named_params(), other.named_params()):
        assert name == oname
        assert q.value.shape == p.value.shape
        assert q.value.tobytes() == p.value.tobytes()


def _saved_spec_into(tmp_path, spec, edit=None):
    """Save a fresh net of `spec`, optionally `edit` its manifest dict, and
    return the directory."""
    training.save_checkpoint(nw.SeparationNet(spec, seed=1), str(tmp_path))
    if edit:
        path = tmp_path / "checkpoint.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return str(tmp_path)


def _drop_last_param(manifest):
    manifest["params"].pop()


def _rename_first_param(manifest):
    manifest["params"][0]["name"] = "backbone.f0.w"


def _repeat_first_param(manifest):
    manifest["params"][1]["name"] = manifest["params"][0]["name"]


def _offset_last_param_to_the_last_value(manifest):
    manifest["params"][-1]["offset"] = manifest["total"] - 1


def _overlap_the_second_param(manifest):
    manifest["params"][1]["offset"] = 0


@pytest.mark.parametrize("spec, edit, match", [
    (training.gradcheck_config().network, None, r"backbone\.f1\.w"),
    (nw.NetworkSpec(), lambda m: m.update(dtype=">f8"), "dtype"),
    (nw.NetworkSpec(), _drop_last_param, r"missing \['head\.box\.b'\]"),
    (nw.NetworkSpec(), _rename_first_param, r"unexpected \['backbone\.f0\.w'\]"),
    (nw.NetworkSpec(), _repeat_first_param, "repeats"),
    # same parameter shapes, another spec
    (nw.NetworkSpec(domain_head_gain=2.0), None, r"domain_head_gain \(2\.0 vs 8\.0\)"),
    (nw.NetworkSpec(), lambda m: m.pop("network"), "num_classes"),
    # offsets off the running sum of sizes: one ran past the blob after the
    # parameters before it were overwritten, one loaded another's bytes
    (nw.NetworkSpec(), _offset_last_param_to_the_last_value, r"head\.box\.b"),
    (nw.NetworkSpec(), _overlap_the_second_param, r"offset 0 of backbone\.f1\.b"),
])
def test_load_checkpoint_rejects_another_net(tmp_path, spec, edit, match):
    """A checkpoint of another `NetworkSpec`, or whose manifest names other
    parameters, another dtype or offsets that break the packing, raises and
    leaves the net unchanged."""
    out = _saved_spec_into(tmp_path, spec, edit)
    target = nw.SeparationNet(nw.NetworkSpec(), seed=0)
    before = [p.value.copy() for p in target.params()]
    with pytest.raises(ValueError, match=match):
        training.load_checkpoint(target, out)
    for p, v in zip(target.params(), before):
        assert p.value.tobytes() == v.tobytes()


def test_load_checkpoint_rejects_a_blob_short_of_the_parameters(tmp_path):
    """A blob cut short, with its manifest total to match, raises before the
    last parameter reads past it, and leaves the net unchanged."""
    out = _saved_spec_into(tmp_path, nw.NetworkSpec(), lambda m: m.update(total=m["total"] - 1))
    blob = tmp_path / "checkpoint.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    target = nw.SeparationNet(nw.NetworkSpec(), seed=0)
    before = [p.value.copy() for p in target.params()]
    with pytest.raises(ValueError, match="blob size"):
        training.load_checkpoint(target, out)
    for p, v in zip(target.params(), before):
        assert p.value.tobytes() == v.tobytes()


@pytest.mark.parametrize("change, match", [
    ({"eval_size": 0}, "eval_size"),
    ({"probe_size": 0}, "probe_size"),
    ({"scene": synth.SceneSpec(canvas=(36, 40))}, "stride 8"),
    ({"scene": synth.SceneSpec(object_count_range=(0, 2))}, "object count"),
    ({"shift": synth.DomainShiftSpec(fog_alpha=1.5)}, "fog_alpha"),
    ({"proposal_noise": synth.ProposalNoiseSpec(redundancy=0)}, "redundancy"),
    ({"cluster": dataclasses.replace(training.TrainConfig().cluster, k=0.5)}, "multiplier"),
    ({"decay_step": -1}, "decay_step"),
    ({"lambda_warmup_steps": -1}, "lambda_warmup_steps"),
    # each of these used to pass validation, then switch an effect off
    # silently or fail later inside numpy or the first step
    ({"shift": synth.DomainShiftSpec(noise_std=-1.0)}, "noise_std"),
    ({"shift": synth.DomainShiftSpec(blur_radius=-1.0)}, "blur_radius"),
    ({"shift": synth.DomainShiftSpec(color_shift=(0.1, 0.2))}, "color_shift"),
    ({"proposal_noise": synth.ProposalNoiseSpec(jitter_std=-1.0)}, "jitter_std"),
    ({"proposal_noise": synth.ProposalNoiseSpec(background_margin=np.nan)},
     "background_margin"),
    ({"cluster": dataclasses.replace(training.TrainConfig().cluster, k=np.inf)},
     "multiplier k"),
    ({"cluster": dataclasses.replace(training.TrainConfig().cluster, sigma0=np.inf)},
     "sigma0"),
    ({"lr_initial": np.nan}, "lr_initial"),
    ({"lr_after_decay": np.inf}, "lr_after_decay"),
    ({"network": nw.NetworkSpec(domain_head_gain=np.inf)}, "domain_head_gain"),
    ({"scene": synth.SceneSpec(canvas=(32, 32), radius_range=(9.0, 5.0))}, "radius_range"),
    ({"scene": synth.SceneSpec(canvas=(32, 32), radius_range=(4.0, 15.0))}, "radius_range"),
    ({"scene": synth.SceneSpec(palette=())}, "palette"),
    ({"scene": synth.SceneSpec(background=(0.1, 0.2))}, "background"),
    ({"scene": synth.SceneSpec(canvas=(64,))}, "canvas"),
    # these too passed validation, then failed inside the network or step 0
    ({"network": nw.NetworkSpec(num_classes=2)}, "num_classes"),
    ({"network": nw.NetworkSpec(d1_hidden=0)}, "d1_hidden"),
    ({"network": nw.NetworkSpec(d23_hidden=-1)}, "d23_hidden"),
    ({"network": nw.NetworkSpec(dri_hidden=0)}, "dri_hidden"),
    ({"network": nw.NetworkSpec(head_hidden=0)}, "head_hidden"),
    ({"network": nw.NetworkSpec(channels=(4, 6.5, 8))}, "channels"),
    # non-integer counts and seeds: each passed validation, then raised a
    # TypeError inside the run or trained without a word (a fractional
    # object count, a bool)
    ({"iterations": 2.5}, "iterations"),
    ({"corpus_size": 1.5}, "corpus_size"),
    ({"eval_size": 2.5}, "eval_size"),
    ({"probe_size": 2.5}, "probe_size"),
    ({"proposal_noise": synth.ProposalNoiseSpec(redundancy=2.5)}, "redundancy"),
    ({"proposal_noise": synth.ProposalNoiseSpec(background_count=1.5)},
     "background_count"),
    ({"scene": synth.SceneSpec(canvas=(32.0, 32))}, "canvas"),
    ({"cluster": dataclasses.replace(training.TrainConfig().cluster, max_scales=50.5)},
     "max_scales"),
    ({"cluster": dataclasses.replace(training.TrainConfig().cluster,
                                     max_inner_iters=10.5)}, "max_inner_iters"),
    ({"scene": synth.SceneSpec(object_count_range=(1.5, 2))}, "object_count_range"),
    ({"iterations": True}, "iterations"),
    ({"seed": 2.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"network": nw.NetworkSpec(head_hidden=True)}, "head_hidden"),
    # a blur radius whose kernel denominator 2*r**2 underflows made every
    # target pixel NaN
    ({"shift": synth.DomainShiftSpec(blur_radius=1e-200)}, "blur_radius"),
    # a string is truthy, so "false" switched normalization on
    ({"normalize_reconstruction": "false"}, "normalize_reconstruction"),
    ({"normalize_reconstruction": 0}, "normalize_reconstruction"),
])
def test_validate_rejects(change, match):
    cfg = dataclasses.replace(tiny_config(2), **change)
    with pytest.raises(ValueError, match=match):
        cfg.validate()


@pytest.mark.parametrize("decay_step", [None, 0])
def test_validate_accepts_the_default_and_a_zero_decay_step(decay_step):
    dataclasses.replace(tiny_config(2), decay_step=decay_step).validate()


@pytest.mark.parametrize("data", [
    {"cluster": {"k": 0.5}}, {"scene": {"canvas": [40, 36]}},
    json.loads('{"lr_initial": NaN}'), json.loads('{"network": {"domain_head_gain": Infinity}}'),
    {"network": {"num_classes": 2}}, {"network": {"head_hidden": 0}},
    {"network": {"channels": [4, 6.5, 8]}},
    {"iterations": 2.5}, {"corpus_size": 1.5}, {"eval_size": 2.5}, {"iterations": True},
    {"seed": 2.5}, {"seed": -1},
    {"proposal_noise": {"redundancy": 2.5}}, {"proposal_noise": {"background_count": 1.5}},
    {"scene": {"canvas": [32.0, 32]}}, {"scene": {"object_count_range": [1.5, 2]}},
    {"cluster": {"max_scales": 50.5}}, {"cluster": {"max_inner_iters": 10.5}},
    {"normalize_reconstruction": "false"}, {"normalize_reconstruction": None},
])
def test_config_from_dict_validates_the_nested_specs(data):
    with pytest.raises(ValueError):
        training.config_from_dict(data)


def test_corpus_entries_cache_the_step_constants(monkeypatch):
    calls = []
    targets = nw.detector_targets

    def counted(boxes, gt_boxes, gt_labels):
        calls.append(len(boxes))
        return targets(boxes, gt_boxes, gt_labels)

    monkeypatch.setattr(nw, "detector_targets", counted)
    # a target image's truth raises LabelQuarantineError when read, so
    # building its entry reads none
    source, target = training.build_training_corpus(tiny_config(2))
    assert calls == [len(e.pset.boxes) for e in source]
    for entry in source + target:
        boxes = entry.pset.boxes
        np.testing.assert_array_equal(entry.roi_matrix, nw.roi_pool_matrix(boxes, 4, 4))
        np.testing.assert_array_equal(
            entry.group_matrix, nw.group_mean_matrix(entry.groups, len(boxes)))
    for entry in source:
        want = targets(entry.pset.boxes, entry.sample.boxes, entry.sample.labels)
        np.testing.assert_array_equal(entry.targets.labels, want.labels)
        np.testing.assert_array_equal(entry.targets.deltas, want.deltas)
        assert entry.targets.positives == want.positives
    assert all(entry.targets is None for entry in target)


def test_corpus_entries_keep_their_grouping_diagnostics():
    for entry in _pair_and_net()[1:]:
        members, outliers, result = grouping.cluster_box_centers(
            entry.pset.centers(), training.ScaleSweepConfig())
        assert (entry.groups, entry.outliers) == (members, outliers)
        assert entry.grouping == training.GroupingDiagnostics(
            K=result.model.K, sigma_star=result.model.sigma_star,
            outliers=len(outliers), truncated=result.truncated,
            inner_iters=result.inner_iters, fallback=False)
        assert type(entry.grouping.K) is int and type(entry.grouping.inner_iters) is int
        assert entry.grouping.inner_iters >= len(result.snapshots)


def test_target_entry_cannot_train_the_detector():
    net, _, target = _pair_and_net()
    with pytest.raises(ValueError, match="no detector targets"):
        training.compute_losses(net, target, target, losses.ObjectiveWeights(),
                                lam=1.0, normalize_rec=True)


def test_box_missing_the_image_fails_at_corpus_build():
    _, source, _ = _pair_and_net()
    sample = source.sample
    pset = synth.ProposalSet(
        boxes=np.concatenate([source.pset.boxes, [[50.0, 8.0, 6.0, 6.0]]]),
        objectness=np.append(source.pset.objectness, 1.0))
    with pytest.raises(ValueError, match="does not intersect"):
        training._grouped_entry(sample, pset, training.TrainConfig().cluster)
