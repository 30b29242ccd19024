import dataclasses
import json
import traceback
import warnings
import zipfile

import numpy as np
import pytest

from fsalign import autodiff as ad
from fsalign import network as nw
from fsalign import grouping, losses, scale_space, synth, training

import golden
from golden import tiny_config


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


def calls_to(monkeypatch, owner, name):
    """The arguments of each later call to `owner.name`, which still runs."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def test_train_rows_match_golden():
    golden.check("golden_rows", golden.golden_rows())


def test_golden_json_holds_what_write_writes():
    """golden.json is byte for byte what `golden.py --write` writes."""
    with open(golden.PATH, encoding="utf-8") as fh:
        assert fh.read() == golden.dumps(golden.load())


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


@pytest.mark.parametrize("weights, nodes", [
    (losses.ObjectiveWeights(), 56),
    (losses.ObjectiveWeights(beta=0.0, lam=0.0), 14),
], ids=["adapted", "source only"])
def test_a_step_builds_a_pinned_number_of_nodes(monkeypatch, weights, nodes):
    """The graph nodes one default `train_step` builds: each conv, affine
    layer and domain loss with its activation or whole formula is one node.
    Each has a parent: the image pair, the loss weights and the per-image
    matrices enter the graph as plain operands."""
    net = nw.SeparationNet(seed=0)
    _, source, target = _pair_and_net()
    opt = ad.SGD(net.params(), lr=1e-3)
    calls = calls_to(monkeypatch, ad.Tensor, "__init__")
    training.train_step(net, source, target, weights, opt)
    assert len(calls) == nodes
    assert [self for self, *_ in calls if not self._parents] == []


def test_a_step_makes_no_constant_nodes(monkeypatch):
    """Every node one default `train_step` builds has a parent, so the only
    parentless nodes are the parameters, made before the step."""
    net = nw.SeparationNet(seed=0)
    _, source, target = _pair_and_net()
    opt = ad.SGD(net.params(), lr=1e-3)
    calls = calls_to(monkeypatch, ad.Tensor, "__init__")
    training.train_step(net, source, target, losses.ObjectiveWeights(), opt)
    assert calls
    assert [self for self, *_ in calls if not self._parents] == []


def test_logged_total_uses_the_applied_lambda():
    cfg = dataclasses.replace(tiny_config(2), lambda_warmup_steps=4)
    row = training.train(cfg).rows[0]  # the warm-up starts at lam 0
    terms = [row[c] for c in ("L_c", "L_r", "L_rec", "L_diff", "L_lg", "L_ri")]
    at_zero = losses.total_objective(*terms, dataclasses.replace(cfg.weights, lam=0.0))
    assert row["total"] == at_zero
    assert at_zero != losses.total_objective(*terms, cfg.weights)


def test_run_experiment_builds_the_corpus_once(monkeypatch, tmp_path):
    calls = calls_to(monkeypatch, training, "build_training_corpus")
    _, rows = experiment = golden.run_tiny_experiment(str(tmp_path))
    assert len(calls) == 1
    golden.check("run_metrics", golden.run_metrics(experiment))
    assert list(rows["adapted"][-1]) == [*golden.LOSS_COLUMNS, "acc_d3", "acc_dri", "step"]
    golden.check("step_rows", golden.loss_rows(rows["adapted"]))
    # the source-only twin is the detector alone, so its rows hold only the
    # detector terms and the total
    assert list(rows["source_only"][-1]) == ["L_c", "L_r", "total", "step"]
    golden.check("source_only_last_row", golden.source_only_last_row(experiment))


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


def test_evaluation_path_is_pinned():
    result, (probe_train, probe_eval, detect_eval) = golden.trained_tiny()
    golden.check("pooled", golden.pooled())
    assert training.probe_domain_accuracy(result.net, probe_train, probe_eval) == 1.0
    assert training.target_match_rate(result.net, detect_eval) == 2 / 3
    assert [r["step"] for r in result.rows] == list(range(6))
    golden.check("step_rows", golden.step_rows())


def test_a_diverged_box_head_fails_the_match_rate():
    """Refined boxes that overflow raise instead of scoring IoU 0."""
    _, (_, _, detect_eval) = golden.trained_tiny()
    net = nw.SeparationNet(tiny_config(1).network, seed=0)
    net.head_box.b.value[:] = 1e308
    with pytest.raises(ValueError, match="refined box"):
        training.target_match_rate(net, detect_eval)


def test_held_out_sets_are_pinned():
    golden.check("held_out", golden.held_out())


def test_eval_sets_generate_only_the_scenes_they_keep(monkeypatch):
    """One scene per held-out sample: two probe splits of both domains and
    the target detection set."""
    calls = calls_to(monkeypatch, synth, "generate_scene")
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
    calls = calls_to(monkeypatch, training, "compute_losses")
    training.finite_difference_check(coords_per_param=1)
    assert len(calls) == 2 * 46 + 2 == 94
    assert [args[4] for args in calls].count(1.0) == 1


def test_gradcheck_builds_no_sign_graph_without_a_reversed_branch(monkeypatch):
    """With no reversed branch there is no sign check, so no lam = +1
    graph: one graph at lam = -1, then two per sampled coordinate."""
    calls = calls_to(monkeypatch, training, "compute_losses")
    report = training.finite_difference_check(branches=["l_rec"], coords_per_param=1)
    assert len(calls) == 2 * 46 + 1 == 93
    assert 1.0 not in [args[4] for args in calls]
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
            d = ad.tanh(ad.conv2d(d, *conv, stride=2))
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
    assert golden.param_digest(other) == golden.param_digest(trained)


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
    targets = nw.detector_targets
    calls = calls_to(monkeypatch, nw, "detector_targets")
    # a target image's truth raises LabelQuarantineError when read, so
    # building its entry reads none
    source, target = training.build_training_corpus(tiny_config(2))
    assert [len(boxes) for boxes, *_ in calls] == [len(e.pset.boxes) for e in source]
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


def test_train_workload_corpus_groupings_are_pinned():
    """A change to any partition of the corpus that perfbench's `train`
    workload steps on fails here without a benchmark run."""
    golden.check("train_groupings", golden.train_groupings())


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
