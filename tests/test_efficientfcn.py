"""Segmentation stack: backbone taps, training schedule, metrics, synthetic data."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgd import ops
from hgd.tensor import Tensor, ConfigError
from hgd.decoder import HgdConfig
from hgd.gradcheck import gradcheck
from hgd import hgdt
from hgd import efficientfcn as ef
from hgd.metrics import metrics
from hgd.synthdata import synth_dataset
from hgd.efficientfcn import (ToyBackboneConfig, TrainConfig, init_backbone_params,
                              backbone_forward, init_seg_params, segment_forward,
                              predict_labels, poly_lr, sgd_step, evaluate,
                              train_segmenter, tiny_backbone_config, tiny_hgd_config)


# ---------------------------------------------------------------- schedule

def test_poly_lr_endpoints():
    cfg = TrainConfig(base_lr=0.01, power=0.9, max_iter=100)
    assert poly_lr(0, cfg) == 0.01
    assert poly_lr(100, cfg) == 0.0


def test_poly_lr_midpoint_frozen_value():
    cfg = TrainConfig(base_lr=0.001, power=0.9, max_iter=1000)
    # 0.001 * 0.5 ** 0.9, evaluated independently
    assert abs(poly_lr(500, cfg) - 5.358867312681466e-04) <= 1e-15


def test_poly_lr_clamps_past_end_with_warning():
    cfg = TrainConfig(max_iter=10)
    with pytest.warns(UserWarning):
        assert poly_lr(11, cfg) == 0.0


def test_poly_lr_non_increasing():
    cfg = TrainConfig(base_lr=0.05, power=0.9, max_iter=57)
    values = [poly_lr(i, cfg) for i in range(58)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(power=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch=0)


# ---------------------------------------------------------------- sgd

def p(val):
    return Tensor(np.asarray(val, dtype=np.float64), requires_grad=True)


def test_sgd_zero_lr_keeps_params():
    x = p([1.0, 2.0])
    cfg = TrainConfig(momentum=0.9, weight_decay=0.1)
    sgd_step([x], [np.array([5.0, -5.0])], 0.0, cfg)
    assert np.array_equal(x.data, [1.0, 2.0])


def test_sgd_vanilla_step():
    x = p([1.0, -2.0])
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    sgd_step([x], [np.array([10.0, 4.0])], 0.01, cfg)
    assert np.max(np.abs(x.data - np.array([0.9, -2.04]))) <= 1e-15


def test_sgd_momentum_hand_iteration():
    # f(x) = x^2 from x=1, lr=0.1, momentum=0.9, no decay:
    # step 1: v = 2.0,  x = 1 - 0.2  = 0.8
    # step 2: v = 0.9*2 + 1.6 = 3.4, x = 0.8 - 0.34 = 0.46
    x = p([1.0])
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    velocities = sgd_step([x], [2.0 * x.data.copy()], 0.1, cfg)
    assert abs(x.data[0] - 0.8) <= 1e-15
    assert abs(velocities[0][0] - 2.0) <= 1e-15
    velocities = sgd_step([x], [2.0 * x.data.copy()], 0.1, cfg, velocities)
    assert abs(velocities[0][0] - 3.4) <= 1e-15
    assert abs(x.data[0] - 0.46) <= 1e-15


def test_sgd_weight_decay_enters_velocity():
    x = p([2.0])
    cfg = TrainConfig(momentum=0.0, weight_decay=0.5)
    sgd_step([x], [np.array([0.0])], 0.1, cfg)
    assert abs(x.data[0] - 1.9) <= 1e-15


def test_sgd_rejects_negative_lr():
    x = p([1.0])
    with pytest.raises(ValueError):
        sgd_step([x], [np.array([0.0])], -0.1, TrainConfig())


# ---------------------------------------------------------------- metrics

def test_metrics_perfect_prediction():
    gt = np.array([[0, 1], [2, 255]])
    acc, miou = metrics(gt.copy(), gt, 3)
    assert acc == 1.0 and miou == 1.0


def test_metrics_half_half_hand_computed():
    gt = np.array([[0, 0, 1, 1]])
    pred = np.zeros((1, 4), dtype=np.int64)
    acc, miou = metrics(pred, gt, 2)
    assert acc == 0.5
    # class 0: tp=2 fp=2 fn=0 -> iou 0.5; class 1: tp=0, union 2 -> iou 0
    assert miou == 0.25


def test_metrics_all_ignored_raises():
    with pytest.raises(ValueError):
        metrics(np.zeros((2, 2), dtype=int), np.full((2, 2), 255), 3)


def test_metrics_matches_confusion_loop_oracle():
    rng = np.random.default_rng(0)
    nc = 4
    gt = rng.integers(0, nc, size=(13, 17))
    gt[0, :5] = 255
    pred = rng.integers(0, nc, size=(13, 17))
    acc, miou = metrics(pred, gt, nc)

    cm = np.zeros((nc, nc), dtype=np.int64)
    for i in range(13):
        for j in range(17):
            if gt[i, j] != 255:
                cm[gt[i, j], pred[i, j]] += 1
    acc_o = cm.trace() / cm.sum()
    ious = []
    for k in range(nc):
        union = cm[k, :].sum() + cm[:, k].sum() - cm[k, k]
        if union > 0:
            ious.append(cm[k, k] / union)
    miou_o = sum(ious) / len(ious)
    assert abs(acc - acc_o) <= 1e-15
    assert abs(miou - miou_o) <= 1e-15


def test_metrics_skips_absent_classes():
    gt = np.array([[1, 1]])
    pred = np.array([[1, 1]])
    acc, miou = metrics(pred, gt, 5)
    assert acc == 1.0 and miou == 1.0


def test_predict_labels_tie_breaks_to_lowest_class():
    logits = Tensor(np.zeros((4, 2, 2)))
    assert np.array_equal(predict_labels(logits), np.zeros((2, 2), dtype=np.int64))


@settings(max_examples=120, deadline=None)
@given(classes=st.sampled_from([1, 2, 5, 127, 128, 300]), h=st.integers(1, 6),
       w=st.integers(1, 6), dtype=st.sampled_from([np.float32, np.float64]),
       special_share=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1))
@example(classes=128, h=1, w=1, dtype=np.float64, special_share=0.0, seed=0)
@example(classes=300, h=2, w=3, dtype=np.float32, special_share=0.3, seed=1)
def test_predict_labels_equals_numpy_argmax(classes, h, w, dtype, special_share, seed):
    """The class scan gives np.argmax(axis=0) exactly: integer-rounded logits
    make ties common, and NaN, +-inf and +-0.0 are injected; the last class
    is made the unique maximum somewhere so a class id above 127 must fit."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(classes, h, w)).astype(dtype)
    x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype=dtype)
    hit = rng.random(x.shape) < special_share
    x[hit] = rng.choice(specials, size=int(hit.sum()))
    x[:, 0, 0] = -1.0
    x[-1, 0, 0] = 1.0
    got = predict_labels(Tensor(x))
    assert got.dtype == np.int64
    assert np.array_equal(got, np.argmax(x, axis=0).astype(np.int64))
    assert got[0, 0] == classes - 1


# ------------------------------------------------------------- synth data

def test_synth_dataset_count_and_ranges():
    samples = synth_dataset(seed=3, count=6, size=32, num_classes=4)
    assert len(samples) == 6
    for s in samples:
        assert s.image.dims == (3, 32, 32)
        assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0
        assert s.label.shape == (32, 32)
        assert s.label.min() >= 0 and s.label.max() < 4


def test_synth_dataset_deterministic_bytes():
    a = synth_dataset(seed=7, count=4, size=32, num_classes=5)
    b = synth_dataset(seed=7, count=4, size=32, num_classes=5)
    for sa, sb in zip(a, b):
        assert sa.image.data.tobytes() == sb.image.data.tobytes()
        assert sa.label.tobytes() == sb.label.tobytes()


def test_synth_dataset_covers_all_classes():
    samples = synth_dataset(seed=1, count=40, size=32, num_classes=5)
    seen = set()
    for s in samples:
        seen.update(np.unique(s.label).tolist())
    assert seen == set(range(5))


def test_synth_dataset_rejects_bad_size():
    with pytest.raises(ConfigError):
        synth_dataset(seed=0, count=1, size=30, num_classes=3)


# ---------------------------------------------------------------- backbone

def test_backbone_tap_shapes_and_channels():
    cfg = ToyBackboneConfig()
    params = init_backbone_params(cfg, np.random.default_rng(0))
    img = Tensor(np.random.default_rng(1).uniform(size=(3, 64, 64)))
    e8, e16, e32 = backbone_forward(img, params)
    assert e8.dims == (cfg.stage_channels[1], 8, 8)
    assert e16.dims == (cfg.stage_channels[2], 4, 4)
    assert e32.dims == (cfg.stage_channels[3], 2, 2)


def test_backbone_rejects_indivisible_input():
    params = init_backbone_params(ToyBackboneConfig(), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        backbone_forward(Tensor(np.zeros((3, 48, 64))), params)


def test_backbone_deterministic_given_seed():
    img = Tensor(np.random.default_rng(2).uniform(size=(3, 32, 32)))
    a = backbone_forward(img, init_backbone_params(ToyBackboneConfig(), np.random.default_rng(5)))
    b = backbone_forward(img, init_backbone_params(ToyBackboneConfig(), np.random.default_rng(5)))
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.data, tb.data)


# ------------------------------------------------------------ segmentation

def tiny_seg_params(rng, num_classes=5):
    return init_seg_params(tiny_backbone_config(), tiny_hgd_config(), num_classes, rng)


def test_segment_forward_shape():
    params = tiny_seg_params(np.random.default_rng(0))
    img = Tensor(np.random.default_rng(1).uniform(size=(3, 64, 64)))
    logits = segment_forward(img, params)
    assert logits.dims == (5, 64, 64)


def test_zero_classifier_gives_majority_class_accuracy():
    rng = np.random.default_rng(2)
    params = tiny_seg_params(rng)
    params.classifier.weight.data[:] = 0.0
    params.classifier.bias.data[:] = 0.0
    sample = synth_dataset(seed=4, count=1, size=64, num_classes=5)[0]
    logits = segment_forward(sample.image, params)
    assert np.max(np.abs(logits.data)) == 0.0
    pred = predict_labels(logits)
    assert np.all(pred == 0)
    acc, _ = metrics(pred, sample.label, 5)
    assert acc == np.mean(sample.label == 0)


def test_segment_forward_gradcheck_every_group():
    rng = np.random.default_rng(3)
    params = tiny_seg_params(rng, num_classes=3)
    sample = synth_dataset(seed=5, count=1, size=32, num_classes=3)[0]
    img = Tensor(sample.image.data.astype(np.float64))

    def build():
        return ops.cross_entropy_logits(segment_forward(img, params), sample.label)

    reports = gradcheck(build, list(params.named_parameters()), step=1e-6, tol=1e-5,
                        max_per_param=3)
    for rep in reports:
        assert rep.passed, f"{rep.name}: {rep.max_rel_err:.2e}"


def test_every_group_receives_gradient():
    # 64x64 so the coarse grid is 2x2: a 1x1 grid makes the spatial softmax
    # constant and would zero the weighting kernel's gradient legitimately
    rng = np.random.default_rng(6)
    params = tiny_seg_params(rng)
    sample = synth_dataset(seed=6, count=1, size=64, num_classes=5)[0]
    loss = ops.cross_entropy_logits(segment_forward(sample.image, params), sample.label)
    loss.backward()
    for name, tensor in params.named_parameters():
        assert tensor.grad is not None, name
        if name == "hgd.weighting.bias":
            # shift invariance of the spatial softmax makes the loss flat in
            # this bias; near-zero gradient is correct, not missing
            assert np.max(np.abs(tensor.grad)) <= 1e-12
        else:
            assert np.any(tensor.grad != 0.0), name


def test_checkpoint_round_trip_of_seg_params(tmp_path):
    params = tiny_seg_params(np.random.default_rng(7))
    named = dict(params.named_parameters())
    hgdt.save_checkpoint(tmp_path / "ck", {k: v.data for k, v in named.items()})
    back = hgdt.load_checkpoint(tmp_path / "ck")
    assert set(back) == set(named)
    for k in named:
        assert np.array_equal(back[k], named[k].data)


def test_short_training_reduces_loss(tmp_path):
    samples = synth_dataset(seed=11, count=8, size=32, num_classes=4)
    params = init_seg_params(tiny_backbone_config(), tiny_hgd_config(), 4,
                             np.random.default_rng(11))
    cfg = TrainConfig(base_lr=0.03, max_iter=60, batch=4)
    log = tmp_path / "train.csv"
    result = train_segmenter(samples, params, cfg, num_classes=4,
                             rng=np.random.default_rng(0), log_path=log)
    losses = [row["loss"] for row in result.history]
    assert np.median(losses[-20:]) < np.median(losses[:20])
    text = log.read_text().splitlines()
    assert text[0] == "iter,lr,loss,pixAcc"
    assert len(text) == 1 + len(result.history)


def test_train_step_gradient_is_per_sample_grads_summed_in_pick_order(monkeypatch):
    """A step's gradient is its samples' gradients added in the order the
    batch was drawn, the first taken as it is: the bytes of explicit
    per-sample sweeps summed that way."""
    samples = synth_dataset(seed=13, count=8, size=64, num_classes=5)
    cfg = TrainConfig(max_iter=1, batch=4)
    seen = []

    def capture(params, grads, lr, cfg, velocities=None):
        seen.extend(grads)
        return velocities

    monkeypatch.setattr(ef, "sgd_step", capture)
    train_segmenter(samples, tiny_seg_params(np.random.default_rng(13)), cfg,
                    num_classes=5, rng=np.random.default_rng(0))

    params = tiny_seg_params(np.random.default_rng(13))
    picks = np.random.default_rng(0).choice(len(samples), size=cfg.batch, replace=False)
    want = [None] * len(seen)
    for j in picks:
        for _, t in params.named_parameters():
            t.zero_grad()
        loss = ops.cross_entropy_logits(segment_forward(samples[j].image, params),
                                        samples[j].label)
        ops.scalar_scale(loss, 1.0 / len(picks)).backward()
        for i, (_, t) in enumerate(params.named_parameters()):
            want[i] = t.grad if want[i] is None else np.add(want[i], t.grad)
    assert len(seen) == 26
    for (name, _), got, ref in zip(params.named_parameters(), seen, want):
        assert np.array_equal(got, ref), name


def test_evaluate_matches_metrics_over_concatenation():
    samples = synth_dataset(seed=12, count=3, size=32, num_classes=4)
    params = init_seg_params(tiny_backbone_config(), tiny_hgd_config(), 4,
                             np.random.default_rng(12))
    acc, miou = evaluate(samples, params, 4)
    preds = []
    gts = []
    for s in samples:
        preds.append(predict_labels(segment_forward(s.image, params)).ravel())
        gts.append(s.label.ravel())
    acc_o, miou_o = metrics(np.concatenate(preds)[None], np.concatenate(gts)[None], 4)
    assert abs(acc - acc_o) <= 1e-15
    assert abs(miou - miou_o) <= 1e-15
