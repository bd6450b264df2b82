"""Finite-difference audit of every differentiable operation and of the
end-to-end losses, run in 64-bit. Shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from . import inr, objectives
from .encoders import EncoderConfig, ImageEncoder, LocEncoderConfig, LocationEncoder
from .tensor import (
    Tensor,
    attention,
    concat,
    cross_entropy,
    grad_check,
    l2_normalize_rows,
    layer_norm,
    matmul,
)

__all__ = ["audit_cases", "run_audit"]


def _t(rng, *shape):
    return Tensor(rng.normal(0, 1, shape), requires_grad=True, dtype=np.float64)


def audit_cases(seed: int = 0):
    """Yield (name, fn, inputs) triples; each differentiable op appears once."""
    rng = np.random.default_rng(seed)
    cases = []

    cases.append(("matmul", lambda a, b: matmul(a, b).sum(), [_t(rng, 4, 5), _t(rng, 5, 3)]))
    cases.append(("add", lambda a, b: (a + b).sum(), [_t(rng, 3, 4), _t(rng, 4)]))
    cases.append(("sub", lambda a, b: (a - b).sum(), [_t(rng, 3, 4), _t(rng, 4)]))
    cases.append(("mul", lambda a, b: (a * b).sum(), [_t(rng, 3, 4), _t(rng, 4)]))
    cases.append(("scale", lambda a: a.scale(1.7).sum(), [_t(rng, 5)]))
    cases.append(("gelu", lambda a: a.gelu().sum(), [_t(rng, 4, 3)]))
    cases.append(("concat", lambda a, b: (concat([a, b], axis=1) * concat([b, a], axis=1)).sum(), [_t(rng, 2, 3), _t(rng, 2, 3)]))
    cases.append(("reshape", lambda a: (a.reshape(2, 6) * a.reshape(2, 6)).sum(), [_t(rng, 3, 4)]))
    cases.append(("transpose", lambda a: (a.transpose() @ a).sum(), [_t(rng, 4, 3)]))
    cases.append(("sum_axis", lambda a: (a.sum(axis=0) * a.sum(axis=0)).sum(), [_t(rng, 3, 4)]))
    cases.append(("mean_axis", lambda a: (a.mean(axis=1) * a.mean(axis=1)).sum(), [_t(rng, 3, 4)]))
    # Repeated targets, as a classification probe's labels have.
    cases.append(("cross_entropy", lambda a: cross_entropy(a, [4, 0, 4]), [_t(rng, 3, 5)]))
    cases.append(("layer_norm", lambda x, g, b: (layer_norm(x, g, b) * layer_norm(x, g, b).gelu()).sum(),
                  [_t(rng, 2, 3, 5), _t(rng, 5), _t(rng, 5)]))
    cases.append(("attention", lambda q, k, v: (attention(q, k, v, 2) * attention(q, k, v, 2).gelu()).sum(),
                  [_t(rng, 2, 3, 4), _t(rng, 2, 3, 4), _t(rng, 2, 3, 4)]))
    cases.append(("l2_normalize_rows", lambda a: (l2_normalize_rows(a) * l2_normalize_rows(a).gelu()).sum(), [_t(rng, 3, 5)]))

    cases.append(("unfold3x3", lambda a: (inr.unfold3x3(a) * inr.unfold3x3(a).gelu()).sum(), [_t(rng, 2, 3, 3, 2)]))

    d = 3
    ftheta = inr.FThetaParams(weight=_t(rng, 9 * d + 2, d), bias=_t(rng, d))
    cases.append(("f_theta", lambda w, b, z, dl: (inr.f_theta(inr.FThetaParams(w, b), z, dl)).sum(),
                  [ftheta.weight, ftheta.bias, _t(rng, 2, 9 * d), _t(rng, 2, 2)]))

    queries = rng.uniform(-0.7, 0.7, (3, 2))

    def inr_loss(w, b, fm):
        um = inr.unfold3x3(fm)
        return inr.inr_query_batch(inr.FThetaParams(w, b), um, queries).sum()

    cases.append(("inr_query_batch", inr_loss, [_t(rng, 9 * d + 2, d), _t(rng, d), _t(rng, 3, 4, 4, d)]))

    def incl(a, b):
        return objectives.incl_loss(l2_normalize_rows(a), l2_normalize_rows(b), tau=0.5)

    cases.append(("incl_loss", incl, [_t(rng, 4, d), _t(rng, 4, d)]))

    bank = objectives.MemoryBank(16)
    past = rng.normal(0, 1, (6, d))
    bank.push(past / np.linalg.norm(past, axis=1, keepdims=True))

    def secl(e, z, g):
        return objectives.secl_loss(l2_normalize_rows(e), l2_normalize_rows(z), l2_normalize_rows(g), bank, tau=0.5)

    cases.append(("secl_loss", secl, [_t(rng, 4, d), _t(rng, 4, d), _t(rng, 4, d)]))

    # Combined pipeline: both losses through the interpolation module and
    # small real encoders, differentiated w.r.t. a shared parameter sample.
    enc_cfg = EncoderConfig(channels=1, image_size=8, patch_size=4, dim=4, depth=1, heads=2, ff_width=8)
    enc_rng = np.random.default_rng(seed + 1)
    rs_enc = ImageEncoder(enc_cfg, enc_rng, prefix="rs", dtype=np.float64)
    sv_enc = ImageEncoder(enc_cfg, enc_rng, prefix="sv", dtype=np.float64)
    loc_enc = LocationEncoder(LocEncoderConfig(freqs=8, sigma=1.0, hidden=8, dim=4), enc_rng, prefix="loc", dtype=np.float64)
    ft = inr.FThetaParams.init(4, enc_rng, dtype=np.float64)
    rs_imgs = enc_rng.normal(0, 1, (3, 1, 8, 8))
    sv_imgs = enc_rng.normal(0, 1, (3, 1, 8, 8))
    lonlat = np.stack([enc_rng.uniform(-1, 1, 3), enc_rng.uniform(-0.5, 0.5, 3)], axis=1)
    uv = enc_rng.uniform(-0.4, 0.4, (3, 2))
    pipeline_bank = objectives.MemoryBank(8)
    past2 = enc_rng.normal(0, 1, (4, 4))
    pipeline_bank.push(past2 / np.linalg.norm(past2, axis=1, keepdims=True))
    pipeline_params = list(rs_enc.params.values()) + list(sv_enc.params.values()) + list(loc_enc.params.values()) + [ft.weight, ft.bias]

    def pipeline(*params):
        fm = rs_enc.encode_feature_maps(rs_imgs)
        z = inr.inr_query_batch(inr.FThetaParams(params[-2], params[-1]), inr.unfold3x3(fm), uv)
        g = sv_enc.encode_pooled(sv_imgs)
        e = loc_enc.encode(lonlat)
        return objectives.combined_loss(
            objectives.incl_loss(z, g, tau=0.5),
            objectives.secl_loss(e, z, g, pipeline_bank, tau=0.5),
            lambda_secl=1.0,
        )

    cases.append(("combined_pipeline", pipeline, pipeline_params))
    return cases


def run_audit(tolerance: float = 1e-4, seed: int = 0):
    """Run every audit case; returns a list of GradCheckReport."""
    reports = []
    for name, fn, inputs in audit_cases(seed):
        reports.append(grad_check(fn, inputs, tolerance=tolerance, op_name=name))
    return reports
