"""Toy segmentation stack around the codeword decoder.

A small stride-2 convolutional encoder emits taps at strides 8/16/32, the
decoder reconstructs a fine feature map, and a 1x1 classifier plus bilinear
x8 upsampling produces per-pixel logits. The trainer is plain SGD with
momentum, coupled weight decay, and a polynomial learning-rate schedule,
logging (iter, lr, loss, pixAcc) rows to CSV.

The encoder is deliberately tiny: it preserves the three-tap stride contract
the decoder consumes while staying cheap enough for finite-difference
checks and overfitting smoke tests.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .decoder import HgdConfig, HgdParams, hgd_forward, init_hgd_params
from .hgdt import write_atomic
from .metrics import IGNORE_ID, metrics
from .params import ConvParams, conv1x1_params, conv3x3_params
from .tensor import ConfigError, Tensor


# ----------------------------------------------------------------- backbone

@dataclass(frozen=True)
class ToyBackboneConfig:
    stage_channels: tuple = (8, 16, 24, 32)   # at strides 4, 8, 16, 32

    def __post_init__(self):
        if len(self.stage_channels) != 4 or any(c < 1 for c in self.stage_channels):
            raise ConfigError(f"need four positive stage channel counts, got {self.stage_channels}")

    @property
    def tap_channels(self):
        return tuple(c_out for _, c_out, tap in backbone_layout(self) if tap)


@dataclass
class BackboneLayer:
    conv: ConvParams
    stride: int
    tap: str | None = None


@dataclass
class BackboneParams:
    config: ToyBackboneConfig
    layers: list

    def named_parameters(self):
        for i, layer in enumerate(self.layers):
            yield from layer.conv.named(f"conv{i:02d}")


def backbone_layout(config: ToyBackboneConfig):
    """The encoder's five stride-2 3x3 convs as (c_in, c_out, tap), input first."""
    c4, c8, c16, c32 = config.stage_channels
    return ((3, c4, None), (c4, c4, None), (c4, c8, "e8"), (c8, c16, "e16"),
            (c16, c32, "e32"))


def init_backbone_params(config: ToyBackboneConfig, rng, dtype=np.float64) -> BackboneParams:
    layers = [BackboneLayer(conv3x3_params(c_in, c_out, rng, dtype), stride=2, tap=tap)
              for c_in, c_out, tap in backbone_layout(config)]
    return BackboneParams(config=config, layers=layers)


def backbone_forward(image: Tensor, params: BackboneParams):
    _, h, w = image.dims
    if h % 32 or w % 32:
        raise ConfigError(f"input extents must be divisible by 32, got {h}x{w}")
    taps = {}
    x = image
    for layer in params.layers:
        x = ops.relu(ops.conv3x3(x, layer.conv.weight, layer.conv.bias, stride=layer.stride))
        if layer.tap:
            taps[layer.tap] = x
    return taps["e8"], taps["e16"], taps["e32"]


# ------------------------------------------------------------- segmentation

@dataclass
class SegParams:
    backbone: BackboneParams
    hgd: HgdParams
    classifier: ConvParams

    def named_parameters(self):
        for name, t in self.backbone.named_parameters():
            yield f"backbone.{name}", t
        for name, t in self.hgd.named_parameters():
            yield f"hgd.{name}", t
        yield from self.classifier.named("classifier")


def init_seg_params(backbone_config: ToyBackboneConfig, hgd_config: HgdConfig,
                    num_classes: int, rng, dtype=np.float64) -> SegParams:
    backbone = init_backbone_params(backbone_config, rng, dtype)
    hgd = init_hgd_params(backbone_config.tap_channels, hgd_config, rng, dtype)
    classifier = conv1x1_params(hgd_config.output_channels, num_classes, rng, dtype)
    return SegParams(backbone=backbone, hgd=hgd, classifier=classifier)


def segment_forward(image: Tensor, params: SegParams) -> Tensor:
    _, h, w = image.dims
    e8, e16, e32 = backbone_forward(image, params.backbone)
    fused = hgd_forward(e8, e16, e32, params.hgd)
    logits = ops.conv1x1(fused, params.classifier.weight, params.classifier.bias)
    return ops.bilinear_resize(logits, h, w)


def predict_labels(logits: Tensor) -> np.ndarray:
    # np.argmax(axis=0)'s rule (ties go to the lowest class id, the first NaN
    # wins) as a scan over the class slices; np.argmax itself is slow along
    # a short leading axis
    return ops._first_argmax(logits.data).astype(np.int64)


def tiny_backbone_config() -> ToyBackboneConfig:
    return ToyBackboneConfig()


def tiny_hgd_config() -> HgdConfig:
    return HgdConfig(n_codewords=8, codeword_dim=32, compressed_channels=16,
                     guidance_channels=32, transfer_enabled=True)


def tiny_train_config() -> "TrainConfig":
    """Training settings for the tiny demo task.

    At the preset's seed (config.tiny_run; cli.cmd_demo_seg derives the
    data, init and batch-order seeds from it) this overfits the 32-sample
    synthetic set past 99% pixel accuracy inside the 500-step budget;
    base_lr much above 0.05 risks divergence at this scale.
    """
    return TrainConfig(base_lr=0.05, max_iter=500, batch=16)


# ----------------------------------------------------------------- training

@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.001
    power: float = 0.9
    momentum: float = 0.9
    weight_decay: float = 1e-4
    max_iter: int = 500
    batch: int = 8

    def __post_init__(self):
        if self.power <= 0:
            raise ConfigError(f"power must be positive, got {self.power}")
        if self.base_lr < 0 or self.weight_decay < 0:
            raise ConfigError("base_lr and weight_decay must be non-negative, got "
                              f"{self.base_lr} and {self.weight_decay}")
        if self.batch < 1 or self.max_iter < 1:
            raise ConfigError("batch and max_iter must be at least 1")


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    if iteration > cfg.max_iter:
        warnings.warn(f"iteration {iteration} past max_iter {cfg.max_iter}; lr clamped to 0")
        return 0.0
    return cfg.base_lr * (1.0 - iteration / cfg.max_iter) ** cfg.power


def sgd_step(params, grads, lr: float, cfg: TrainConfig, velocities=None) -> list:
    """v <- momentum*v + grad + weight_decay*param; param <- param - lr*v.
    Returns the velocities (zeros when None are given) for the next step."""
    if lr < 0:
        raise ValueError(f"learning rate must be non-negative, got {lr}")
    if velocities is None:
        velocities = [np.zeros_like(p.data) for p in params]
    for p, g, v in zip(params, grads, velocities):
        v *= cfg.momentum
        v += g
        v += cfg.weight_decay * p.data
        p.data -= lr * v
    return velocities


def evaluate(samples, params: SegParams, num_classes: int):
    preds = []
    gts = []
    for s in samples:
        preds.append(predict_labels(segment_forward(s.image, params)).ravel())
        gts.append(s.label.ravel())
    return metrics(np.concatenate(preds), np.concatenate(gts), num_classes)


@dataclass
class TrainResult:
    history: list
    final_pixacc: float
    final_miou: float


def train_segmenter(samples, params: SegParams, cfg: TrainConfig, num_classes: int,
                    rng, log_path=None, eval_every: int = 25,
                    target_pixacc: float | None = None) -> TrainResult:
    """Overfit the given samples; returns per-step history and final metrics.

    When target_pixacc is set, the whole training set is scored every
    eval_every steps and the loop stops as soon as the target is reached.
    """
    tensors = [t for _, t in params.named_parameters()]
    velocities = None
    history = []

    for it in range(cfg.max_iter):
        lr = poly_lr(it, cfg)
        picks = rng.choice(len(samples), size=min(cfg.batch, len(samples)), replace=False)
        # each sample's sweep sums its gradient onto these grads, in pick order
        for t in tensors:
            t.zero_grad()
        loss_sum = 0.0
        correct = 0
        valid = 0
        for j in picks:
            sample = samples[j]
            logits = segment_forward(sample.image, params)
            loss = ops.cross_entropy_logits(logits, sample.label)
            ops.scalar_scale(loss, 1.0 / len(picks)).backward()
            loss_sum += float(loss.data)
            pred = predict_labels(logits)
            mask = sample.label != IGNORE_ID
            correct += int((pred[mask] == sample.label[mask]).sum())
            valid += int(mask.sum())
        grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
        velocities = sgd_step(tensors, grads, lr, cfg, velocities)
        history.append({"iter": it, "lr": lr, "loss": loss_sum / len(picks),
                        "pixAcc": correct / max(valid, 1)})
        if target_pixacc is not None and (it + 1) % eval_every == 0:
            acc, _ = evaluate(samples, params, num_classes)
            if acc >= target_pixacc:
                break

    final_acc, final_miou = evaluate(samples, params, num_classes)
    if log_path is not None:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["iter", "lr", "loss", "pixAcc"])
        for row in history:
            writer.writerow([row["iter"], f"{row['lr']:.8g}",
                             f"{row['loss']:.8g}", f"{row['pixAcc']:.6f}"])
        write_atomic(log_path, buf.getvalue().encode())
    return TrainResult(history=history, final_pixacc=final_acc,
                       final_miou=final_miou)
