"""Finite-difference audit of every differentiable operation and of the
end-to-end losses, run in 64-bit. Shared by the CLI and the test suite."""

from __future__ import annotations

import zlib

import numpy as np

from . import inr, objectives
from .encoders import EncoderConfig, ImageEncoder, LocEncoderConfig, LocationEncoder
from .tensor import (
    Tensor,
    attention,
    cross_entropy,
    grad_check,
    l2_normalize_rows,
    layer_norm,
    matmul,
)

__all__ = ["audit_cases", "run_audit"]


def _t(rng, *shape):
    return Tensor(rng.normal(0, 1, shape), requires_grad=True, dtype=np.float64)


def _case_rng(seed: int, name: str) -> np.random.Generator:
    """A case's own generator, so adding or deleting a case moves no other
    case's inputs."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def audit_cases(seed: int = 0):
    """Yield (name, fn, inputs) triples; each differentiable op appears once."""
    cases = []

    # A case's draws beyond its inputs come after them, from the generator
    # that add returns.
    def add(name, fn, *shapes):
        rng = _case_rng(seed, name)
        cases.append((name, fn, [_t(rng, *shape) for shape in shapes]))
        return rng

    add("matmul", lambda a, b: matmul(a, b).sum(), (4, 5), (5, 3))
    add("add", lambda a, b: (a + b).sum(), (3, 4), (4,))
    add("mul", lambda a, b: (a * b).sum(), (3, 4), (4,))
    add("scale", lambda a: a.scale(1.7).sum(), (5,))
    add("gelu", lambda a: a.gelu().sum(), (4, 3))
    add("reshape", lambda a: (a.reshape(2, 6) * a.reshape(2, 6)).sum(), (3, 4))
    add("sum_axis", lambda a: (a.sum(axis=0) * a.sum(axis=0)).sum(), (3, 4))
    add("mean_axis", lambda a: (a.mean(axis=1) * a.mean(axis=1)).sum(), (3, 4))
    # Repeated targets, as a classification probe's labels have.
    add("cross_entropy", lambda a: cross_entropy(a, [4, 0, 4]), (3, 5))
    add("layer_norm", lambda x, g, b: (layer_norm(x, g, b) * layer_norm(x, g, b).gelu()).sum(), (2, 3, 5), (5,), (5,))
    add("attention", lambda q, k, v: (attention(q, k, v, 2) * attention(q, k, v, 2).gelu()).sum(),
        (2, 3, 4), (2, 3, 4), (2, 3, 4))
    add("l2_normalize_rows", lambda a: (l2_normalize_rows(a) * l2_normalize_rows(a).gelu()).sum(), (3, 5))

    d = 3
    add("f_theta", lambda w, b, z: (inr.f_theta(inr.FThetaParams(w, b), z)).sum(), (9 * d, d), (d,), (2, 9 * d))

    def inr_loss(w, b, fm):
        return inr.inr_lookup(inr.FThetaParams(w, b), fm, queries).sum()

    queries = add("inr_lookup", inr_loss, (9 * d, d), (d,), (3, 4, 4, d)).uniform(-0.7, 0.7, (3, 2))

    def incl(a, b):
        return objectives.incl_loss(l2_normalize_rows(a), l2_normalize_rows(b), tau=0.5)

    add("incl_loss", incl, (4, d), (4, d))

    def secl(e, z, g):
        return objectives.secl_loss(l2_normalize_rows(e), l2_normalize_rows(z), l2_normalize_rows(g), bank, tau=0.5)

    bank = objectives.MemoryBank(16)
    past = add("secl_loss", secl, (4, d), (4, d), (4, d)).normal(0, 1, (6, d))
    bank.push(past / np.linalg.norm(past, axis=1, keepdims=True))

    # Combined pipeline: both losses through the interpolation module and
    # small real encoders, differentiated w.r.t. a shared parameter sample.
    enc_cfg = EncoderConfig(channels=1, image_size=8, patch_size=4, dim=4, depth=1, heads=2, ff_width=8)
    enc_rng = _case_rng(seed, "combined_pipeline")
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
        z = inr.inr_lookup(inr.FThetaParams(params[-2], params[-1]), fm, uv)
        g = sv_enc.encode_pooled(sv_imgs)
        e = loc_enc.encode(lonlat)
        return objectives.combined_loss(
            objectives.incl_loss(z, g, tau=0.5),
            objectives.secl_loss(e, z, g, pipeline_bank, tau=0.5),
            lambda_secl=1.0,
        )

    cases.append(("combined_pipeline", pipeline, pipeline_params))
    return cases


def run_audit(tolerance: float = 1e-4):
    """Run every audit case of seed 0; returns a list of GradCheckReport."""
    reports = []
    for name, fn, inputs in audit_cases(0):
        reports.append(grad_check(fn, inputs, tolerance=tolerance, op_name=name))
    return reports
