"""Geospatially aligned multimodal contrastive pretraining, desk scale.

Three factorized encoders (remote-sensing feature grid, street-view
embedding, Fourier-feature location embedding), a continuous feature-map
lookup at arbitrary in-footprint coordinates, symmetric and
location-anchored InfoNCE objectives, a synthetic planted-signal data
generator, and a reproducible training and evaluation stack, all on a
small numpy reverse-mode autodiff engine.
"""

from .tensor import Tensor, backward, enable_grad, grad_check
from .geo import GeoPoint, GeoFootprint, LocalCoord, to_local, local_uv, local_lonlat, cell_centers, equal_earth
from .encoders import EncoderConfig, LocEncoderConfig, ImageEncoder, LocationEncoder, rff_features
from .inr import FThetaParams, unfold3x3, ensemble_weights, f_theta, inr_query_batch, inr_lookup
from .objectives import LossConfig, MemoryBank, incl_loss, secl_loss, combined_loss
from .datagen import DataConfig, build_world, generate_records, write_dataset, read_dataset, make_batch
from .training import TrainConfig, Model, AdamW, lr_at, train, train_step, save_checkpoint, load_checkpoint
from . import evalkit

__version__ = "0.1.0"
