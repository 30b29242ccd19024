import dataclasses
import hashlib
import json
import traceback
import warnings
import zipfile

import numpy as np
import pytest

from fsalign import autodiff as ad
from fsalign import network as nw
from fsalign import grouping, losses, scale_space, synth, training


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


LOSS_COLUMNS = training.LOGGED_TERMS + ("total",)

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


def read_steps(path):
    """The rows of a steps.jsonl file."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


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
        "adapted": {"probe_accuracy": 1.0, "target_match_rate": 0.6666666666666666},
        "source_only": {"probe_accuracy": 1.0, "target_match_rate": 0.6666666666666666},
        "seeds": {"train": 0},
    }
    last = read_steps(tmp_path / "adapted" / "steps.jsonl")[-1]
    assert list(last) == [*LOSS_COLUMNS, "acc_d3", "acc_dri", "step"]
    np.testing.assert_allclose([last[c] for c in LOSS_COLUMNS], [
        1.4304679733367895, 0.05255504963492267, 0.7280477133606047,
        0.0088885243591180323, 2.1199692749733732, 0.018669997621271937,
        -0.58192262585096044], rtol=1e-10, atol=0.0)
    # the source-only twin is the detector alone, so its rows hold only the
    # detector terms and the total
    last = read_steps(tmp_path / "source_only" / "steps.jsonl")[-1]
    assert list(last) == ["L_c", "L_r", "total", "step"]
    np.testing.assert_allclose([last[c] for c in ("L_c", "L_r", "total")], [
        1.4207127047326555, 0.050450546135618217, 1.4711632508682737],
        rtol=1e-10, atol=0.0)


def test_run_experiment_validates_before_building(monkeypatch, tmp_path):
    """An invalid config cannot be built, so `run_experiment` never sees one:
    nothing is built or written."""
    calls = []
    monkeypatch.setattr(training, "build_training_corpus", calls.append)
    monkeypatch.setattr(training, "build_eval_sets", calls.append)
    with pytest.raises(ValueError, match="iterations"):
        training.run_experiment(tiny_config(0), str(tmp_path / "run"))
    assert calls == []
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def trained_tiny():
    cfg = tiny_config(6)
    return training.train(cfg), training.build_eval_sets(cfg)


# the evaluation path of the net `train(tiny_config(6))` gives, recorded
# bit-for-bit: pooled f3 features of the detection eval images, and the loss
# fields of its steps.jsonl rows parsed back
PINNED_POOLED = np.array([
    [-0.03099215008820827, -0.004183643059980754, -0.13385527198056635, -0.2804742551280509,
     -0.25473441982854406, -0.1840482655323189, 0.12598440352386991, 0.37946217498747636],
    [-0.03245384821527566, -0.006698098104613113, -0.13289688040606357, -0.2630772040145345,
     -0.2376034492567838, -0.18172969488930774, 0.11229893965071183, 0.3717685477183802],
    [-0.035029961743932775, -0.006959543238654508, -0.15624434722139843, -0.25444013699266566,
     -0.22812028959852293, -0.16754289546967172, 0.10552619009592365, 0.35095576568850995],
])
PINNED_STEP_ROWS = [
    [1.425588837454761, 0.05368830760339671, 0.7307985112369606, 0.0020910335536456362,
     1.9095786694190189, 0.0191103073136299, -0.37612287719543036],
    [1.377993130888969, 0.029154403132432193, 0.7056873127194674, 0.0010302794141513298,
     1.6872273555660735, 0.019684998701972555, -0.22909306103328286],
    [1.376166966755057, 0.029449673352561045, 0.7050297616472709, 0.0015568546104991635,
     1.7306826233822261, 0.018903703913560374, -0.2733110255623916],
    [1.3729185320781072, 0.030090714558885602, 0.7022025936709599, 0.002518002145097254,
     1.8001133637737172, 0.017821021159550934, -0.34445307871466957],
    [1.4302806592747463, 0.05262532687160758, 0.729983322271683, 0.008665539454888054,
     2.111191870244851, 0.01881790272878596, -0.5732389006546259],
    [1.4304679733367895, 0.05255504963492267, 0.7280477133606047, 0.008888524359118032,
     2.1199692749733727, 0.018669997621271913, -0.58192262585096],
]


def test_evaluation_path_is_pinned(trained_tiny):
    result, (probe_train, probe_eval, detect_eval) = trained_tiny
    pooled = training.pooled_features(result.net, [s for s, _ in detect_eval])
    assert np.array_equal(pooled, PINNED_POOLED)
    assert training.probe_domain_accuracy(result.net, probe_train, probe_eval) == 1.0
    assert training.target_match_rate(result.net, detect_eval) == 2 / 3
    # one line of steps.jsonl per row, as `run_experiment` writes it
    rows = [json.loads(json.dumps(row)) for row in result.rows]
    assert [r["step"] for r in rows] == list(range(6))
    assert [[r[c] for c in LOSS_COLUMNS] for r in rows] == PINNED_STEP_ROWS


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


@pytest.mark.parametrize("branches, match", [([], "empty"), (["l_x"], "unknown")])
def test_gradcheck_rejects_an_empty_or_unknown_branch_list(branches, match):
    """`None` checks every branch; an empty list is an error, not all of them."""
    with pytest.raises(ValueError, match=match):
        training.finite_difference_check(branches=branches)


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
    check of one branch alone must give the same bits."""
    report = training.finite_difference_check(branches=["l_adv1", "l_ri"],
                                              coords_per_param=1)
    alone = training.finite_difference_check(branches=["l_ri"], coords_per_param=1)
    assert report["l_ri"] == alone["l_ri"]


def test_wrong_gradient_detected(monkeypatch):
    """A loss node whose vjp returns double its gradient fails its branch."""
    difference_loss = losses.difference_loss

    def doubled(priv, shared):
        out = difference_loss(priv, shared)
        vjp = out._vjp
        out._vjp = lambda g: vjp(2.0 * g)
        return out

    monkeypatch.setattr(losses, "difference_loss", doubled)
    report = training.finite_difference_check(branches=["l_diff"], coords_per_param=1)
    assert report["l_diff"]["max_rel_err"] > 0.1


@pytest.mark.parametrize("kwargs, match", [
    ({"coords_per_param": 0}, "coords_per_param"),
    ({"coords_per_param": 1.0}, "coords_per_param"),
    ({"coords_per_param": True}, "coords_per_param"),
    ({"eps": 0.0}, "eps"),
    ({"eps": -1e-5}, "eps"),
    ({"eps": float("inf")}, "eps"),
    ({"eps": float("nan")}, "eps"),
])
def test_gradcheck_rejects_a_check_that_checks_nothing(kwargs, match):
    """No sampled coordinate would report 0.0 for every branch, and a zero
    step would divide by zero."""
    with pytest.raises(ValueError, match=match):
        training.finite_difference_check(branches=["l_c"], **kwargs)


def test_gradcheck_builds_each_loss_graph_once(monkeypatch):
    """One graph at lam = -1 gives the analytic gradients and the lam = -1
    side of the sign check, one at lam = +1 the other side, and each
    sampled coordinate takes two: 46 parameter tensors, one coordinate each."""
    calls = []
    compute_losses = training.compute_losses

    def counted(*args):
        calls.append(args[4])
        return compute_losses(*args)

    monkeypatch.setattr(training, "compute_losses", counted)
    training.finite_difference_check(coords_per_param=1)
    assert len(calls) == 2 * 46 + 2 == 94
    assert calls.count(1.0) == 1


def test_gradcheck_builds_no_sign_graph_without_a_reversed_branch(monkeypatch):
    """With no reversed branch there is no sign check, so no lam = +1
    graph: one graph at lam = -1, then two per sampled coordinate."""
    calls = []
    compute_losses = training.compute_losses

    def counted(*args):
        calls.append(args[4])
        return compute_losses(*args)

    monkeypatch.setattr(training, "compute_losses", counted)
    report = training.finite_difference_check(branches=["l_rec"], coords_per_param=1)
    assert len(calls) == 2 * 46 + 1 == 93
    assert 1.0 not in calls
    assert "sign_symmetric" not in report["l_rec"]


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
    g = training.branch_gradients(named, _checked_losses(net, source, target, lam),
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
        return ad.div(ad.sum(ad.absolute(ad.sub(x["gray"], x["xhat"]))), float(x["gray"].size))

    def diff(x):
        inner = ad.sum(ad.mean(x["d"], axis=(2, 3)) * ad.mean(x["f3"], axis=(2, 3)))
        return inner * inner

    def clamp(p):
        return ad.clip(p, losses.PROB_CLAMP, 1.0 - losses.PROB_CLAMP)

    q = ad.sub(1.0, t["p1map"])
    l_adv1 = ad.mean(s["p1map"] * s["p1map"]) + ad.mean(q * q)
    l_adv2 = s["p2"] * s["p2"] + ad.sub(1.0, t["p2"]) * ad.sub(1.0, t["p2"])
    l_adv3 = s["p3"] * s["p3"] + ad.sub(1.0, t["p3"]) * ad.sub(1.0, t["p3"])
    ps, pt = clamp(s["probs"]), clamp(t["probs"])
    l_ri = 0.5 * (ad.mean(ad.mul(ad.power(ad.sub(1.0, ps), weights.gamma) * ad.log(ps), -1.0))
                  + ad.mean(ad.mul(ad.power(pt, weights.gamma) * ad.log(ad.sub(1.0, pt)), -1.0)))
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
    grads = training.branch_gradients(named, pair, branches)
    ref_grads = training.branch_gradients(named, ref, branches)
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
    got = training.branch_gradients(named, out, ["composite"])["composite"]
    ref_grads = training.branch_gradients(named, {"composite": want},
                                          ["composite"])["composite"]
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
    cfg = dataclasses.replace(
        cfg, scene=dataclasses.replace(
            cfg.scene, palette=((0.9, 0.1, 0.1), (0.1, 0.9, 0.1), (0.1, 0.1, 0.9))),
        cluster=dataclasses.replace(cfg.cluster, sigma0=0.5, max_scales=50))
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


@pytest.mark.parametrize("data, match", [
    ({"weights": "abc"}, "weights must be a JSON object, not str"),
    ({"weights": 5}, "weights must be a JSON object, not int"),
    ([{"iterations": 5}], "config must be a JSON object, not list"),
])
def test_config_rejects_a_section_that_is_not_an_object(data, match):
    with pytest.raises(TypeError, match=match):
        training.config_from_dict(data)


def test_config_missing_keys_take_the_defaults():
    data = {"iterations": 5, "weights": {"lambda": 0.5}, "scene": {"canvas": [32, 32]}}
    cfg = training.config_from_dict(data)
    assert cfg == dataclasses.replace(
        training.TrainConfig(), iterations=5,
        weights=losses.ObjectiveWeights(lam=0.5),
        scene=synth.SceneSpec(canvas=(32, 32)))


# specs given lists where tuples belong, and the same specs given tuples
LISTED_SPECS = [
    (synth.SceneSpec(canvas=[64, 64]), synth.SceneSpec(canvas=(64, 64))),
    (synth.SceneSpec(palette=[[0.9, 0.1, 0.1], (0.1, 0.9, 0.1)]),
     synth.SceneSpec(palette=((0.9, 0.1, 0.1), (0.1, 0.9, 0.1)))),
    (synth.DomainShiftSpec(color_shift=[0.1, 0.0, -0.1]),
     synth.DomainShiftSpec(color_shift=(0.1, 0.0, -0.1))),
    (nw.NetworkSpec(channels=[4, 6, 8]), nw.NetworkSpec(channels=(4, 6, 8))),
]


@pytest.mark.parametrize("listed, tupled", LISTED_SPECS)
def test_a_spec_built_from_lists_equals_the_one_from_tuples(listed, tupled):
    assert listed == tupled


@pytest.mark.parametrize("listed, tupled", LISTED_SPECS)
def test_a_spec_built_from_lists_hashes_like_the_one_from_tuples(listed, tupled):
    assert hash(listed) == hash(tupled)


def test_a_config_with_a_listed_spec_round_trips():
    cfg = training.TrainConfig(scene=synth.SceneSpec(canvas=[64, 64]))
    assert training.config_from_dict(training.config_to_dict(cfg)) == cfg


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


def _write_npz(path, entries):
    """Write (name, array) entries as the members of an npz archive, as
    `np.savez` does, but in the given order, repeats and object arrays kept."""
    with zipfile.ZipFile(path, "w") as zf, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns of a repeated name
        for name, arr in entries:
            with zf.open(name + ".npy", "w") as fh:
                np.lib.format.write_array(fh, np.asanyarray(arr), allow_pickle=True)


def _saved_spec_into(tmp_path, spec, edit=None):
    """Save a fresh net of `spec`, optionally replace its checkpoint's
    (name, array) entries, "network" first, with what `edit` makes of them,
    and return the directory."""
    training.save_checkpoint(nw.SeparationNet(spec, seed=1), str(tmp_path))
    if edit:
        path = tmp_path / "checkpoint.npz"
        with np.load(path) as npz:
            entries = [(name, npz[name]) for name in npz.files]
        _write_npz(path, edit(entries))
    return str(tmp_path)


def _drop_last_param(entries):
    return entries[:-1]


def _rename_first_param(entries):
    return [entries[0], ("backbone.f0.w", entries[1][1])] + entries[2:]


def _repeat_first_param(entries):
    return entries[:2] + [(entries[1][0], entries[2][1])] + entries[3:]


def _first_param_as_float32(entries):
    return [entries[0], (entries[1][0], entries[1][1].astype(np.float32))] + entries[2:]


def _first_param_as_object(entries):
    return [entries[0], (entries[1][0], entries[1][1].astype(object))] + entries[2:]


@pytest.mark.parametrize("spec, edit, match", [
    (training.gradcheck_config().network, None, r"backbone\.f1\.w"),
    # float64 values, but big-endian
    (nw.NetworkSpec(), lambda e: [e[0]] + [(n, a.astype(">f8")) for n, a in e[1:]], "dtype"),
    (nw.NetworkSpec(), _drop_last_param, r"missing \['head\.box\.b'\]"),
    (nw.NetworkSpec(), _rename_first_param, r"unexpected \['backbone\.f0\.w'\]"),
    (nw.NetworkSpec(), _repeat_first_param, "repeats"),
    # same parameter shapes, another spec
    (nw.NetworkSpec(domain_head_gain=2.0), None, r"domain_head_gain \(2\.0 vs 8\.0\)"),
    (nw.NetworkSpec(), lambda e: e[1:], "num_classes"),
    (nw.NetworkSpec(), _first_param_as_float32, "dtype float32"),
    # loading an object array would unpickle it; it raises instead
    (nw.NetworkSpec(), _first_param_as_object, "allow_pickle"),
    # a spec entry that is JSON but no object raised a bare TypeError
    (nw.NetworkSpec(), lambda e: [("network", "[1, 2]")] + e[1:], "network spec is not"),
    (nw.NetworkSpec(), lambda e: [("network", '"x"')] + e[1:], "network spec is not"),
    (nw.NetworkSpec(), lambda e: [("network", "null")] + e[1:], "network spec is not"),
])
def test_load_checkpoint_rejects_another_net(tmp_path, spec, edit, match):
    """A checkpoint of another `NetworkSpec`, or whose archive names other
    parameters or holds another dtype, raises and leaves the net unchanged."""
    out = _saved_spec_into(tmp_path, spec, edit)
    target = nw.SeparationNet(nw.NetworkSpec(), seed=0)
    before = [p.value.copy() for p in target.params()]
    with pytest.raises(ValueError, match=match):
        training.load_checkpoint(target, out)
    for p, v in zip(target.params(), before):
        assert p.value.tobytes() == v.tobytes()


def test_load_checkpoint_rejects_a_truncated_file(tmp_path):
    """A file cut short is no zip archive: it raises before any parameter is
    read, and leaves the net unchanged."""
    out = _saved_spec_into(tmp_path, nw.NetworkSpec())
    path = tmp_path / "checkpoint.npz"
    path.write_bytes(path.read_bytes()[:-8])
    target = nw.SeparationNet(nw.NetworkSpec(), seed=0)
    before = [p.value.copy() for p in target.params()]
    with pytest.raises(zipfile.BadZipFile):
        training.load_checkpoint(target, out)
    for p, v in zip(target.params(), before):
        assert p.value.tobytes() == v.tobytes()


# each change is built inside the test, since an invalid spec raises
# where it is built
REJECTED_CHANGES = [
    (lambda: {"eval_size": 0}, "eval_size"),
    (lambda: {"probe_size": 0}, "probe_size"),
    (lambda: {"scene": synth.SceneSpec(canvas=(36, 40))}, "stride 8"),
    (lambda: {"scene": synth.SceneSpec(object_count_range=(0, 2))}, "object count"),
    (lambda: {"shift": synth.DomainShiftSpec(fog_alpha=1.5)}, "fog_alpha"),
    (lambda: {"proposal_noise": synth.ProposalNoiseSpec(redundancy=0)}, "redundancy"),
    (lambda: {"cluster": dataclasses.replace(training.TrainConfig().cluster, k=0.5)},
     "multiplier"),
    (lambda: {"decay_step": -1}, "decay_step"),
    (lambda: {"lambda_warmup_steps": -1}, "lambda_warmup_steps"),
    # each of these used to pass validation, then switch an effect off
    # silently or fail later inside numpy or the first step
    (lambda: {"shift": synth.DomainShiftSpec(noise_std=-1.0)}, "noise_std"),
    (lambda: {"shift": synth.DomainShiftSpec(blur_radius=-1.0)}, "blur_radius"),
    (lambda: {"shift": synth.DomainShiftSpec(color_shift=(0.1, 0.2))}, "color_shift"),
    (lambda: {"proposal_noise": synth.ProposalNoiseSpec(jitter_std=-1.0)}, "jitter_std"),
    (lambda: {"proposal_noise": synth.ProposalNoiseSpec(background_margin=np.nan)},
     "background_margin"),
    (lambda: {"cluster": dataclasses.replace(training.TrainConfig().cluster, k=np.inf)},
     "multiplier k"),
    (lambda: {"cluster": dataclasses.replace(training.TrainConfig().cluster, sigma0=np.inf)},
     "sigma0"),
    (lambda: {"lr_initial": np.nan}, "lr_initial"),
    (lambda: {"lr_after_decay": np.inf}, "lr_after_decay"),
    (lambda: {"network": nw.NetworkSpec(domain_head_gain=np.inf)}, "domain_head_gain"),
    (lambda: {"scene": synth.SceneSpec(canvas=(32, 32), radius_range=(9.0, 5.0))}, "radius_range"),
    (lambda: {"scene": synth.SceneSpec(canvas=(32, 32), radius_range=(4.0, 15.0))},
     "radius_range"),
    (lambda: {"scene": synth.SceneSpec(palette=())}, "palette"),
    (lambda: {"scene": synth.SceneSpec(background=(0.1, 0.2))}, "background"),
    (lambda: {"scene": synth.SceneSpec(canvas=(64,))}, "canvas"),
    # these too passed validation, then failed inside the network or step 0
    (lambda: {"network": nw.NetworkSpec(num_classes=2)}, "num_classes"),
    (lambda: {"network": nw.NetworkSpec(d1_hidden=0)}, "d1_hidden"),
    (lambda: {"network": nw.NetworkSpec(d23_hidden=-1)}, "d23_hidden"),
    (lambda: {"network": nw.NetworkSpec(dri_hidden=0)}, "dri_hidden"),
    (lambda: {"network": nw.NetworkSpec(head_hidden=0)}, "head_hidden"),
    (lambda: {"network": nw.NetworkSpec(channels=(4, 6.5, 8))}, "channels"),
    # non-integer counts and seeds: each passed validation, then raised a
    # TypeError inside the run or trained without a word (a fractional
    # object count, a bool)
    (lambda: {"iterations": 2.5}, "iterations"),
    (lambda: {"corpus_size": 1.5}, "corpus_size"),
    (lambda: {"eval_size": 2.5}, "eval_size"),
    (lambda: {"probe_size": 2.5}, "probe_size"),
    (lambda: {"proposal_noise": synth.ProposalNoiseSpec(redundancy=2.5)}, "redundancy"),
    (lambda: {"proposal_noise": synth.ProposalNoiseSpec(background_count=1.5)},
     "background_count"),
    (lambda: {"scene": synth.SceneSpec(canvas=(32.0, 32))}, "canvas"),
    (lambda: {"cluster": dataclasses.replace(training.TrainConfig().cluster, max_scales=50.5)},
     "max_scales"),
    (lambda: {"cluster": dataclasses.replace(training.TrainConfig().cluster,
                                             max_inner_iters=10.5)}, "max_inner_iters"),
    (lambda: {"scene": synth.SceneSpec(object_count_range=(1.5, 2))}, "object_count_range"),
    (lambda: {"iterations": True}, "iterations"),
    (lambda: {"seed": 2.5}, "seed"),
    (lambda: {"seed": True}, "seed"),
    (lambda: {"network": nw.NetworkSpec(head_hidden=True)}, "head_hidden"),
    # a blur radius whose kernel denominator 2*r**2 underflows made every
    # target pixel NaN
    (lambda: {"shift": synth.DomainShiftSpec(blur_radius=1e-200)}, "blur_radius"),
    # a string is truthy, so "false" switched normalization on
    (lambda: {"normalize_reconstruction": "false"}, "normalize_reconstruction"),
    (lambda: {"normalize_reconstruction": 0}, "normalize_reconstruction"),
    # a bool passed as a real number: lr_initial True trained at lr 1.0; a
    # string raised a bare TypeError inside math.isfinite
    (lambda: {"lr_initial": True}, "lr_initial"),
    (lambda: {"lr_initial": "x"}, "lr_initial"),
    (lambda: {"momentum": False}, "momentum"),
    (lambda: {"weights": losses.ObjectiveWeights(beta=True)}, "beta"),
    (lambda: {"weights": losses.ObjectiveWeights(gamma="5")}, "gamma"),
    (lambda: {"network": nw.NetworkSpec(domain_head_gain=True)}, "domain_head_gain"),
    (lambda: {"scene": synth.SceneSpec(palette=((True, 0.1, 0.1),))}, "palette"),
    (lambda: {"shift": synth.DomainShiftSpec(fog_alpha=True)}, "fog_alpha"),
    (lambda: {"shift": synth.DomainShiftSpec(noise_std="0.02")}, "noise_std"),
    (lambda: {"proposal_noise": synth.ProposalNoiseSpec(jitter_std=True)}, "jitter_std"),
    (lambda: {"cluster": dataclasses.replace(training.TrainConfig().cluster, sigma0=True)},
     "sigma0"),
    (lambda: {"cluster": dataclasses.replace(training.TrainConfig().cluster, k="1.05")},
     "multiplier k"),
    # a scalar, a flat list or None where a tuple belongs raised a bare
    # TypeError from len(); a string of shapes was read letter by letter
    (lambda: {"network": nw.NetworkSpec(channels=5)}, "channels"),
    (lambda: {"scene": synth.SceneSpec(canvas=64)}, "canvas"),
    (lambda: {"scene": synth.SceneSpec(radius_range=5)}, "radius_range"),
    (lambda: {"scene": synth.SceneSpec(object_count_range=3)}, "object_count_range"),
    (lambda: {"scene": synth.SceneSpec(background=0.1)}, "background"),
    (lambda: {"scene": synth.SceneSpec(palette=[0.1, 0.2, 0.3])}, "palette"),
    (lambda: {"shift": synth.DomainShiftSpec(color_shift=None)}, "color_shift"),
    (lambda: {"scene": synth.SceneSpec(shapes="disk")}, "shapes must be a list"),
    # a blur wider than the canvas asked np.pad for 262 TiB when the corpus
    # was built; radii this small gave boxes of zero area and a 0/0 IoU
    (lambda: {"shift": synth.DomainShiftSpec(blur_radius=1e6)}, "blur_radius"),
    (lambda: {"scene": synth.SceneSpec(canvas=(32, 32), radius_range=(1e-300, 1e-300))},
     "radius_range"),
]


@pytest.mark.parametrize("change, match", REJECTED_CHANGES, ids=[
    f"change{i}-{match}" for i, (_, match) in enumerate(REJECTED_CHANGES)])
def test_validate_rejects(change, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(tiny_config(2), **change())


@pytest.mark.parametrize("name", ["weights", "network", "scene", "shift", "proposal_noise",
                                  "cluster"])
def test_validate_rejects_a_nested_spec_of_another_type(name):
    """A dict where a spec belongs once raised a bare AttributeError."""
    with pytest.raises(ValueError, match=f"^{name} must be of type "):
        dataclasses.replace(tiny_config(2), **{name: {}})


@pytest.mark.parametrize("decay_step", [None, 0])
def test_validate_accepts_the_default_and_a_zero_decay_step(decay_step):
    dataclasses.replace(tiny_config(2), decay_step=decay_step)


@pytest.mark.parametrize("cls, name, bad", [
    (losses.ObjectiveWeights, "beta", -1.0),
    (nw.NetworkSpec, "d1_hidden", 0),
    (scale_space.ScaleSweepConfig, "k", 0.5),
    (synth.SceneSpec, "canvas", (16, 16)),
    (synth.DomainShiftSpec, "fog_alpha", 1.5),
    (synth.ProposalNoiseSpec, "redundancy", 0),
    (training.TrainConfig, "momentum", 1.0),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_a_spec_is_frozen_and_checks_every_copy(cls, name, bad):
    spec = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec, name, bad)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        dataclasses.replace(spec, **{name: bad})


def test_building_a_corpus_checks_no_spec(monkeypatch):
    """A spec was checked when it was built, so its users take it as it is."""
    specs = synth.SceneSpec(), synth.DomainShiftSpec(), synth.ProposalNoiseSpec()
    calls = []
    monkeypatch.setattr(synth, "require", lambda *args: calls.append(args))
    synth.build_pair_corpus(*specs, n=3, base_seed=0)
    assert calls == []


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
    {"lr_initial": True}, {"weights": {"lambda": True}}, {"shift": {"fog_alpha": "0.5"}},
    {"network": {"channels": 5}}, {"scene": {"canvas": 64}}, {"scene": {"radius_range": 5}},
    {"scene": {"object_count_range": 3}}, {"scene": {"background": 0.1}},
    {"scene": {"palette": [0.1, 0.2, 0.3]}}, {"shift": {"color_shift": None}},
    {"scene": {"shapes": "disk"}},
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


@pytest.mark.xfail(strict=True, raises=synth.LabelQuarantineError,
                   reason="ROADMAP item 17: target proposals are placed from target truth")
def test_building_the_corpus_reads_no_target_truth(monkeypatch):
    for name in ("eval_boxes", "eval_labels"):
        read = getattr(synth.Sample, name)

        def quarantined(sample, read=read):
            if sample.domain == "target":
                raise synth.LabelQuarantineError("target truth read while building the corpus")
            return read(sample)

        monkeypatch.setattr(synth.Sample, name, quarantined)
    training.build_training_corpus(tiny_config(2))


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


# (groups, outliers, K, sigma_star) of each entry, source entries first, of
# the 8+8 corpus that perfbench's `train` workload steps on: a change to any
# partition of it fails here without a benchmark run
PINNED_TRAIN_GROUPINGS = [
    ([[1, 2, 3, 4, 5], [6, 7, 9, 10, 11], [13, 14, 15, 16], [18, 19, 21, 22, 23], [24], [25]],
     [0, 8, 12, 17, 20], 6, 3.284427819355801),
    ([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11], [12, 13, 14, 15, 16, 17]],
     [18, 19], 3, 8.75117248034673),
    ([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11], [12, 13, 14, 15, 16, 17], [18, 19, 20, 21, 22, 23]],
     [24, 25], 4, 7.1111270469455485),
    ([[0, 1, 4, 5], [6, 7, 8, 9, 10], [12], [13]],
     [2, 3, 11], 4, 2.9481770152206197),
    ([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11], [12, 13, 14, 15, 16, 17]],
     [18, 19], 3, 6.869319626832635),
    ([[1, 2, 3, 4, 5], [6, 7, 8, 10], [12, 13, 14, 15, 16, 17], [18, 19]],
     [0, 9, 11], 4, 3.747490844098729),
    ([[0, 1, 2, 3], [6, 7, 8, 10], [12], [13]],
     [4, 5, 9, 11], 4, 2.7686942800251675),
    ([[0, 1, 2, 3, 4, 5], [6, 7, 8, 10, 11], [12], [13]],
     [9], 4, 2.4797515557006857),
    ([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [12, 13, 14, 15, 16, 17], [18, 19, 20, 21, 22, 23]],
     [11, 24, 25], 4, 5.44317784421961),
    ([[2, 3, 4, 5], [6, 7, 8, 9, 10, 11], [12, 15, 16, 17], [18], [19]],
     [0, 1, 13, 14], 5, 2.70230267158889),
    ([[0, 1, 2, 3, 4, 5], [6, 7, 8, 10, 11], [12, 13, 14, 15, 16, 17], [19, 20, 21, 23], [24], [25]],
     [9, 18, 22], 6, 3.413265137629371),
    ([[0, 1, 2, 3, 5], [6, 7, 8, 9], [12, 15, 16], [18], [19]],
     [4, 10, 11, 13, 14, 17], 5, 3.249421402762851),
    ([[0, 1, 2, 3, 4], [6, 7, 8, 9, 10, 11], [12, 13, 14, 15, 16, 17], [18, 19, 20, 21, 22, 23]],
     [5, 24, 25], 4, 5.6655044541029485),
    ([[0, 2, 3, 4, 5], [7, 8, 9, 11], [13, 14, 16, 17], [18], [19]],
     [1, 6, 10, 12, 15], 5, 2.5571765850084165),
    ([[1, 2, 3, 4, 5], [6, 7, 9], [12, 13, 14, 16, 17], [19, 22], [24], [25]],
     [0, 8, 10, 11, 15, 18, 20, 21, 23], 6, 2.9666612157871755),
    ([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11], [12, 14, 15, 16, 17]],
     [13, 18, 19], 3, 7.258933223221746),
]


def test_train_workload_corpus_groupings_are_pinned():
    source, target = training.build_training_corpus(
        training.TrainConfig(corpus_size=8, seed=0))
    got = [(e.groups, e.outliers, e.grouping.K, e.grouping.sigma_star)
           for e in source + target]
    assert got == PINNED_TRAIN_GROUPINGS

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
