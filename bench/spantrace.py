"""Outside-in span tracing of spikekit's public layer functions.

The tracer wraps each listed function in every ``spikekit`` module
namespace that binds it, so calls made through ``spikekit.pipeline``,
``spikekit.hsfe`` or the benchmark itself all pass through the wrapper.
Nothing in the package changes on disk; ``uninstall`` puts every original
binding back. Spans are kept in memory and summarised at the end.

A layer's busy time sums its outermost spans; its self time subtracts the
time covered by its direct child spans. Per-call counts (MACs, bytes,
spike rates) are computed from argument shapes and labelled "computed".
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs timed in the traced run. Their metric names are
# "<module>.<function>.busy_s", ".self_s" and ".calls".
TRACED = (
    ("synth", "render_clip"),
    ("videoio", "write_pgm_clip"),
    ("videoio", "load_video"),
    ("camera", "encode_video"),
    ("stream", "write_dat"),
    ("stream", "read_dat"),
    ("stream", "slice_clips"),
    ("stream", "subsample_temporal"),
    ("reconstruct", "tfi_video"),
    ("nnops", "conv2d"),
    ("nnops", "moving_average_same"),
    ("hsfe", "hsfe_forward"),
    ("hsfe", "mtf_forward"),
    ("hsfe", "spatial_attention"),
    ("starnet", "star_net_forward"),
    ("starnet", "mini_mapresnet_forward"),
    ("starnet", "attention_pool"),
    ("starnet", "temporal_attention"),
    ("align", "finetune_head"),
    ("align", "evaluate_topk"),
    ("snn", "fsve_forward"),
    ("snn", "spiking_residual_block"),
    ("snn", "esdsa_forward"),
    ("energy", "energy_report"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "write_json"),
)

# Counts computed from call shapes: name -> (unit, better).
COUNTS = {
    "nnops.conv2d.macs": ("count", "lower"),
    "nnops.conv2d.im2col_bytes": ("bytes", "lower"),
    "snn.esdsa_forward.corr_bytes": ("bytes", "lower"),
    "camera.spike_rate": ("ratio", "lower"),
    "stream.bytes_written": ("bytes", "lower"),
    "stream.bytes_read": ("bytes", "lower"),
    "align.finetune_head.steps": ("count", "lower"),
    "energy.actual_sops": ("count", "lower"),
    "energy.max_sops": ("count", "lower"),
    "energy.sop_ratio": ("ratio", "lower"),
}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_conv2d(acc, args, kwargs, result):
    x, kernel = args[0], args[1]
    stride = _arg(args, kwargs, 3, "stride", 1)
    padding = _arg(args, kwargs, 4, "padding", 1)
    c_out, c_in, kh, kw = kernel.shape
    h_out = (x.shape[1] + 2 * padding - kh) // stride + 1
    w_out = (x.shape[2] + 2 * padding - kw) // stride + 1
    patch = c_in * kh * kw
    acc["nnops.conv2d.macs"] += h_out * w_out * patch * c_out
    acc["nnops.conv2d.im2col_bytes"] += h_out * w_out * patch * 8


def _count_esdsa(acc, args, kwargs, result):
    n_tokens = args[0].shape[0]
    acc["snn.esdsa_forward.corr_bytes"] += n_tokens * n_tokens * 8


def _count_encode(acc, args, kwargs, result):
    acc["camera.spikes"] += result.spike_count()
    acc["camera.elements"] += result.n_elements


def _packed_bytes(meta):
    return (meta.t_len * meta.height * meta.width + 7) // 8


def _count_write_dat(acc, args, kwargs, result):
    acc["stream.bytes_written"] += _packed_bytes(_arg(args, kwargs, 1, "meta"))


def _count_read_dat(acc, args, kwargs, result):
    acc["stream.bytes_read"] += _packed_bytes(_arg(args, kwargs, 1, "meta"))


def _count_finetune(acc, args, kwargs, result):
    shots = _arg(args, kwargs, 1, "shots")
    epochs = _arg(args, kwargs, 2, "epochs")
    acc["align.finetune_head.steps"] += shots * epochs


def _count_energy_report(acc, args, kwargs, result):
    ledger = args[0] if args else kwargs["snn_ledger"]
    for rec in ledger.layers:
        acc["energy.actual_sops"] += rec.actual_sops
        acc["energy.max_sops"] += rec.max_sops or 0


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


COUNTERS = {
    "nnops.conv2d": _count_conv2d,
    "snn.esdsa_forward": _count_esdsa,
    "camera.encode_video": _count_encode,
    "stream.write_dat": _count_write_dat,
    "stream.read_dat": _count_read_dat,
    "align.finetune_head": _count_finetune,
    "energy.energy_report": _count_energy_report,
}


class Tracer:
    """Records one span per wrapped call: [name, parent, start, end, outer].

    Single-threaded: the open-span stack gives each span its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.counts.update({"camera.spikes": 0, "camera.elements": 0})
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0,
                    depth.get(name, 0) == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                depth[name] -= 1
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a spikekit module binds it.

        A function missing from its module is recorded as absent.
        """
        self.absent.clear()
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "spikekit" or key.startswith("spikekit.")]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            try:
                home = importlib.import_module(f"spikekit.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass busy/self seconds and call counts for every listed
        function, then the computed counts."""
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, _, start, end, outer) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            own = (end - start) - child_time[idx]
            self_s[name] = self_s.get(name, 0.0) + own
            if outer:
                busy[name] = busy.get(name, 0.0) + (end - start)
        out: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.busy_s"] = busy.get(name, 0.0) / passes
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
            out[f"{name}.calls"] = calls.get(name, 0) / passes
        counts = self.counts
        for name in COUNTS:
            out[name] = counts[name] / passes
        out["camera.spike_rate"] = _ratio(counts["camera.spikes"],
                                          counts["camera.elements"])
        out["energy.sop_ratio"] = _ratio(counts["energy.actual_sops"],
                                         counts["energy.max_sops"])
        return out

    def self_time_total(self) -> float:
        """Sum of self time over all spans: equals the busy time of the
        root spans, so it shows how much of a pass the spans cover."""
        return sum(end - start for _, parent, start, end, _ in self.spans
                   if parent < 0)
