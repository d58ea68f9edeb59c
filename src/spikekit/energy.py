"""Synaptic-operation counting and energy estimation.

One SOP is one synaptic accumulation triggered by one input spike reaching
one output; SOPs are priced at 4.6 pJ and neuron updates (membrane update
plus threshold compare, counted whether or not the neuron fires) at 0.9 pJ
(45 nm CMOS metrics). The dense baseline prices every possible
multiply-accumulate of the same layer shapes at the SOP rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataIOError, PreconditionError
from .jsonio import checked, read_json, write_json
from .stream import is_binary

E_SOP_J = 4.6e-12
E_NEURON_J = 0.9e-12

# The JSON kind of each field of a ledger record, in field order.
_RECORD_KINDS = {"layer_name": "str", "spike_count": "count",
                 "fan_out": "count", "actual_sops": "count",
                 "neuron_ops": "count", "max_sops": "count",
                 "element_count": "count?"}


@dataclass
class LayerEnergy:
    """Per-layer operation counts."""

    layer_name: str
    spike_count: int
    fan_out: int
    actual_sops: int
    neuron_ops: int
    max_sops: int
    element_count: int | None = None

    def __post_init__(self):
        for name, kind in _RECORD_KINDS.items():
            value = getattr(self, name)
            if kind == "str" or (value is None and kind.endswith("?")):
                continue
            if int(value) != value or value < 0:
                raise PreconditionError(
                    f"{self.layer_name}: {name} must be a non-negative "
                    f"integer, got {value}")
            setattr(self, name, int(value))
        if self.actual_sops > self.max_sops:
            raise PreconditionError(
                f"{self.layer_name}: actual_sops {self.actual_sops} exceeds "
                f"max_sops {self.max_sops}")
        if self.element_count is not None \
                and self.spike_count > self.element_count:
            raise PreconditionError(
                f"{self.layer_name}: spike_count {self.spike_count} exceeds "
                f"element_count {self.element_count}")

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class EnergyLedger:
    """Ordered collection of per-layer counts for one run.

    Ledgers are per-run values, never global: pass one in explicitly.
    Recording into an existing layer name accumulates counts, so repeated
    time steps fold into one record per layer.
    """

    layers: list[LayerEnergy] = field(default_factory=list)

    def __post_init__(self):
        self._by_name = {rec.layer_name: rec for rec in self.layers}

    def record(self, layer_name: str, spike_count: int, fan_out: int,
               actual_sops: int, neuron_ops: int, max_sops: int,
               element_count: int | None = None) -> None:
        rec = LayerEnergy(layer_name, spike_count, fan_out, actual_sops,
                          neuron_ops, max_sops, element_count)
        existing = self._by_name.get(layer_name)
        if existing is None:
            self.layers.append(rec)
            self._by_name[layer_name] = rec
            return
        existing.spike_count += rec.spike_count
        existing.actual_sops += rec.actual_sops
        existing.neuron_ops += rec.neuron_ops
        existing.fan_out = max(existing.fan_out, rec.fan_out)
        existing.max_sops += rec.max_sops
        if rec.element_count is not None:
            existing.element_count = (existing.element_count or 0) + rec.element_count
        if existing.actual_sops > existing.max_sops:
            raise PreconditionError(
                f"{layer_name}: accumulated actual_sops exceed max_sops")

    def to_json_list(self) -> list[dict]:
        return [rec.to_json_dict() for rec in self.layers]

    @classmethod
    def from_json_list(cls, records) -> "EnergyLedger":
        """The ledger of a JSON list of layer records, whose fields are of
        the kinds ``_RECORD_KINDS`` names (``jsonio.checked``); anything
        else is a ``DataIOError``."""
        if not isinstance(records, list):
            raise DataIOError("ledger JSON must be a list of layer records")
        return cls(layers=[LayerEnergy(**checked(obj, _RECORD_KINDS,
                                                 "ledger record"))
                           for obj in records])

    def save(self, path) -> None:
        write_json(self.to_json_list(), path)

    @classmethod
    def load(cls, path) -> "EnergyLedger":
        return cls.from_json_list(read_json(path))


# ---------------------------------------------------------------------------
# SOP counting
# ---------------------------------------------------------------------------

def _reach_counts(n_in: int, stride: int) -> np.ndarray:
    """How many 3x3, padding-1 conv outputs each input position reaches."""
    n_out = (n_in - 1) // stride + 1
    pos = np.arange(n_in)
    lo = np.ceil((pos - 1) / stride).astype(np.int64)
    hi = np.floor((pos + 1) / stride).astype(np.int64)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, n_out - 1)
    return np.maximum(0, hi - lo + 1)


def count_conv_sops(spikes_in: np.ndarray, out_channels: int,
                    stride: int = 1) -> int:
    """SOPs of a 3x3, padding-1 convolution driven by binary [..., C, H, W]
    input maps, summed over every leading axis: each spike reaches its
    border-clipped set of output positions in every output channel."""
    spikes = np.asarray(spikes_in)
    if not is_binary(spikes):
        raise PreconditionError("conv spikes must be binary (0/1)")
    if spikes.ndim < 3:
        raise PreconditionError(
            f"conv spikes must be [..., c, h, w], got shape {spikes.shape}")
    h, w = spikes.shape[-2:]
    per_position = spikes.reshape(-1, h, w).sum(axis=0, dtype=np.int64)
    reach = np.outer(_reach_counts(h, stride), _reach_counts(w, stride))
    return int((per_position * reach).sum()) * out_channels


def dense_conv_macs(in_shape: tuple[int, int, int], out_channels: int,
                    stride: int = 1) -> int:
    """Multiply-accumulate count of the dense 3x3, padding-1 baseline."""
    c_in, h, w = in_shape
    h_out = (h - 1) // stride + 1
    w_out = (w - 1) // stride + 1
    return h_out * w_out * out_channels * 9 * c_in


def dense_linear_macs(n_rows: int, in_features: int, out_features: int) -> int:
    return n_rows * in_features * out_features


# ---------------------------------------------------------------------------
# Energy estimates
# ---------------------------------------------------------------------------

def estimate_snn_energy(ledger: EnergyLedger) -> float:
    """Joules of the spiking run: actual SOPs at 4.6 pJ plus neuron
    updates at 0.9 pJ, summed per layer."""
    total = 0.0
    for rec in ledger.layers:
        total += rec.actual_sops * E_SOP_J + rec.neuron_ops * E_NEURON_J
    return total


def estimate_ann_energy(ledger: EnergyLedger) -> float:
    """Joules of the dense baseline: max SOPs at 4.6 pJ (no neuron term)."""
    total = 0.0
    for rec in ledger.layers:
        total += rec.max_sops * E_SOP_J
    return total


def energy_report(snn_ledger: EnergyLedger) -> dict:
    """Summary report: total joules, percentage reduction, per-layer sparsity.

    The dense baseline is the ledger's own max_sops column.
    """
    e_snn = estimate_snn_energy(snn_ledger)
    e_ann = estimate_ann_energy(snn_ledger)
    reduction = 100.0 * (1.0 - e_snn / e_ann) if e_ann > 0 else 0.0
    layers = []
    for rec in snn_ledger.layers:
        sparsity = None
        if rec.element_count:
            sparsity = 1.0 - rec.spike_count / rec.element_count
        layers.append({"layer_name": rec.layer_name,
                       "spike_count": rec.spike_count,
                       "actual_sops": rec.actual_sops,
                       "neuron_ops": rec.neuron_ops,
                       "max_sops": rec.max_sops,
                       "sparsity": sparsity})
    return {"e_snn_joules": e_snn, "e_ann_joules": e_ann,
            "reduction_pct": reduction, "layers": layers}


def format_report(report: dict) -> str:
    """Fixed-width text rendering with 3-significant-digit energies."""
    lines = ["model          energy (J)",
             f"{'dense ANN':<14} {report['e_ann_joules']:.3g}",
             f"{'spiking':<14} {report['e_snn_joules']:.3g}",
             f"reduction      {report['reduction_pct']:.1f}%", "",
             f"{'layer':<24} {'spikes':>12} {'sops':>14} {'max sops':>14} {'sparsity':>9}"]
    for layer in report["layers"]:
        sparsity = (f"{layer['sparsity']:.3f}"
                    if layer["sparsity"] is not None else "-")
        lines.append(f"{layer['layer_name']:<24} {layer['spike_count']:>12} "
                     f"{layer['actual_sops']:>14} {layer['max_sops']:>14} "
                     f"{sparsity:>9}")
    return "\n".join(lines)
