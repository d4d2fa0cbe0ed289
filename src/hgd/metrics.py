"""Segmentation metrics: pixel accuracy and mean intersection-over-union."""

from __future__ import annotations

import numpy as np

IGNORE_ID = 255
NO_CLASS = -1   # the prediction of a pixel whose logits are not all finite


def metrics(pred_labels, gt_labels, num_classes: int):
    """(pixAcc, mIoU) over all pixels whose ground truth is not the ignore id.

    mIoU averages IoU over the classes that appear in the ground truth or
    the prediction (nonzero union); absent classes do not drag the mean down.
    A NO_CLASS prediction is wrong for any ground truth: it counts in its
    ground-truth class's union and in no class's intersection.
    """
    pred = np.asarray(pred_labels)
    gt = np.asarray(gt_labels)
    if pred.shape != gt.shape:
        raise ValueError(f"prediction {pred.shape} and ground truth {gt.shape} differ")
    valid = gt != IGNORE_ID
    if not valid.any():
        raise ValueError("no valid pixels: every ground-truth label is the ignore id")
    p = pred[valid].astype(np.int64)
    g = gt[valid].astype(np.int64)
    if p.min() < NO_CLASS or p.max() >= num_classes or g.min() < 0 or g.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")

    # column 0 counts the NO_CLASS predictions, column q + 1 those of class q
    counts = np.bincount(g * (num_classes + 1) + (p - NO_CLASS),
                         minlength=num_classes * (num_classes + 1)).reshape(num_classes, -1)
    confusion = counts[:, 1:]
    pix_acc = confusion.trace() / counts.sum()
    tp = np.diag(confusion)
    union = counts.sum(axis=1) + confusion.sum(axis=0) - tp
    present = union > 0
    ious = tp[present] / union[present]
    return float(pix_acc), float(ious.mean())
