"""Analytic cost accounting and the early-termination trade-off sweep.

All numbers are multiplies per single image. The expected average cost
under a skip rate p is the two-point mixture p*c_lm + (1-p)*c_total, which
is also exactly what averaging per-sample spend gives, so the sweep checks
one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import pipeline as pl
from . import synthesis as syn
from .data import Dataset


@dataclass(frozen=True)
class CostReport:
    lm_madds: int
    stage2_madds: int
    synthesis_madds: int
    total_madds: int
    params_total: int
    params_shared: int
    params_per_basis: int


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    skip_rate: float
    avg_madds: float
    accuracy: float


def expected_cost(p_skip: float, c_lm: float, c_total: float) -> float:
    """Average cost when a fraction p_skip of inputs stop after stage one."""
    if not 0.0 <= p_skip <= 1.0:
        raise ValueError(f"p_skip must be in [0, 1], got {p_skip}")
    if c_lm > c_total:
        raise ValueError(f"stage-one cost {c_lm} exceeds total cost {c_total}")
    return p_skip * c_lm + (1.0 - p_skip) * c_total


def lm_param_count(lm: pl.LightweightModel) -> int:
    trunk = bb.count_params(lm.trunk)
    coeff_head = lm.trunk.feature_channels * lm.coeff_width + lm.coeff_width
    return trunk + coeff_head


def full_cost(lm: pl.LightweightModel, bank: syn.BasisBank) -> CostReport:
    """Itemized per-image cost: ``pipeline.image_madds``, with parameter counts."""
    lm_madds, synth, stage2, total = pl.image_madds(lm, bank)
    per_basis = syn.basis_param_count(bank.spec, bank.share_mask)
    shared = bb.count_params(bank.spec) - per_basis  # shared kernels, biases and head
    return CostReport(
        lm_madds=lm_madds,
        stage2_madds=stage2,
        synthesis_madds=synth,
        total_madds=total,
        params_total=lm_param_count(lm) + shared + bank.n_bases * per_basis,
        params_shared=shared,
        params_per_basis=per_basis,
    )


def sweep(lm: pl.LightweightModel, params: pl.LMParams, bank: syn.BasisBank,
          cfg: syn.SynthesisConfig, dataset: Dataset, thresholds) -> list[SweepPoint]:
    """Measure skip rate, accuracy, and average spend at each threshold.

    One pipeline pass at the largest threshold serves every threshold as a
    vectorised cut on its per-image confidences. Accuracy uses the initial
    prediction where the pipeline terminated and the specialist prediction
    elsewhere.
    The measured average spend must agree with expected_cost at the measured
    skip rate; this function asserts that contract rather than trusting it.
    """
    if len(dataset) == 0:
        raise ValueError("sweep needs a non-empty dataset")
    thresholds = [float(t) for t in thresholds]
    if not all(t >= 0 for t in thresholds):  # also rejects NaN
        raise ValueError(f"thresholds must be numbers >= 0, got {thresholds}")
    report = full_cost(lm, bank)
    record = pl.infer_batch(lm, params, bank, cfg, dataset.images, max(thresholds, default=0.0))
    n = len(dataset)
    points = []
    for threshold in thresholds:
        stop = record.confidence >= threshold
        p = int(np.count_nonzero(stop)) / n
        avg = int(np.where(stop, report.lm_madds, record.madds_spent).sum()) / n  # exact integer spend
        closed_form = expected_cost(p, report.lm_madds, report.total_madds)
        if not np.isclose(avg, closed_form, rtol=1e-9, atol=1e-9):
            raise AssertionError(
                f"measured average {avg} disagrees with closed form {closed_form}")
        points.append(SweepPoint(threshold=threshold, skip_rate=p, avg_madds=avg,
                                 accuracy=record.accuracy(dataset.labels, threshold)))
    return points
