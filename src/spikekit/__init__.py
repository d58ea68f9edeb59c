"""spikekit: spike-stream processing toolkit and micro-runtime.

Covers the full desk-scale pipeline: integrate-and-fire camera simulation,
the bit-packed ``.dat`` spike codec, texture-from-interval reconstruction,
hierarchical spike feature extraction, a miniature attention-pooling
backbone with temporal fusion, a full-spiking runtime with energy
accounting, and spike-text contrastive alignment with few-shot head
fine-tuning.
"""

__version__ = "0.1.0"

from .errors import DataIOError, PreconditionError, SpikeKitError
from .stream import (ClipWindowSpec, SpikeStream, StreamMeta, pack_spikes,
                     read_dat, slice_clips, subsample_temporal, unpack_spikes,
                     write_dat)
from .camera import (EncoderConfig, IntensityVideo, encode_video,
                     to_grayscale, upsampled_frames)
from .reconstruct import TfiConfig, tfi_reconstruct, tfi_video
from .hsfe import (BlockSpec, BranchSpec, allocate_channels, hsfe_forward,
                   init_hsfe_weights, mtf_forward, slice_blocks,
                   spatial_attention)
from .starnet import (MiniMapResNetConfig, attention_pool,
                      init_starnet_weights, mini_mapresnet_forward,
                      star_net_forward, temporal_attention, temporal_pool)
from .snn import (FsveConfig, esdsa_forward, fsve_forward, init_fsve_weights,
                  lif_step, sn_threshold, spiking_residual_block, tdbn)
from .energy import (EnergyLedger, LayerEnergy, count_conv_sops,
                     energy_report, estimate_ann_energy, estimate_snn_energy)
from .align import AlignmentHead, evaluate_topk, finetune_head, text_features
from .synth import SyntheticDatasetSpec, synth_dataset
from .pipeline import PipelineConfig, run_pipeline
from .weights import load_weights, save_weights

__all__ = [
    "__version__",
    "SpikeKitError", "PreconditionError", "DataIOError",
    "SpikeStream", "StreamMeta", "ClipWindowSpec", "pack_spikes",
    "unpack_spikes", "write_dat", "read_dat", "slice_clips",
    "subsample_temporal",
    "IntensityVideo", "EncoderConfig", "encode_video", "to_grayscale",
    "upsampled_frames",
    "TfiConfig", "tfi_reconstruct", "tfi_video",
    "BlockSpec", "BranchSpec", "slice_blocks",
    "allocate_channels", "mtf_forward", "spatial_attention", "hsfe_forward",
    "init_hsfe_weights",
    "MiniMapResNetConfig", "mini_mapresnet_forward",
    "attention_pool", "temporal_attention", "temporal_pool",
    "star_net_forward", "init_starnet_weights",
    "FsveConfig", "lif_step", "tdbn", "spiking_residual_block",
    "sn_threshold", "esdsa_forward", "fsve_forward", "init_fsve_weights",
    "EnergyLedger", "LayerEnergy", "count_conv_sops",
    "estimate_snn_energy", "estimate_ann_energy", "energy_report",
    "AlignmentHead", "text_features", "finetune_head", "evaluate_topk",
    "SyntheticDatasetSpec", "synth_dataset",
    "PipelineConfig", "run_pipeline",
    "save_weights", "load_weights",
]
