"""Print the SHA-256 of every artifact of a fixed set of spikekit commands.

The commands run at one BLAS thread, in a new temporary directory, on the
spikekit package under ``SRC`` (this checkout's ``src`` by default):

* ``pipeline`` at ``{"seed": 0}`` and at a small upsampled, noisy config;
* ``featurize --seed 5`` of each run's streams, with and without
  ``--channel-step 25``;
* ``snn-forward --seed 7 --save-weights`` of each run's first stream;
* ``synth`` of one short clip per class, ``encode --noise 0.05 --seed 1``
  of one clip, then ``decode`` (to ``.npy`` and ``.dat``),
  ``reconstruct --stride 7``, ``slice`` and ``subsample`` of its stream.

Every file the commands leave is printed as one ``sha256  path`` line,
paths relative to the temporary directory, in path order. Two trees make
the same artifacts when the lists are equal, for example a ``git
archive`` of a parent commit against this checkout::

    python tools/artifact_hashes.py /tmp/parent/src > parent.txt
    python tools/artifact_hashes.py > tree.txt
    diff parent.txt tree.txt

The promise holds for one numpy build and BLAS kernel (README Notes), so
run both on the same host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PIPELINE_CONFIGS = {
    "seed0": {"seed": 0},
    "seed3": {"seed": 3, "upsample": 2, "noise_amplitude": 0.2,
              "frames": 130, "height": 96, "width": 80,
              "clips_per_class": 4, "test_per_class": 2, "shots": [1, 2]},
}


def _first_clip(manifest: pathlib.Path) -> str:
    return json.loads(manifest.read_text())["clips"][0]["name"]


def run_all(src: pathlib.Path, work: pathlib.Path) -> None:
    """Run the command set in ``work`` on the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def spikekit(*args: str) -> None:
        subprocess.run([sys.executable, "-m", "spikekit.cli", *args],
                       cwd=work, env=env, check=True,
                       stdout=subprocess.DEVNULL)

    for name, config in PIPELINE_CONFIGS.items():
        run = f"pipeline-{name}"
        (work / f"{run}.json").write_text(json.dumps(config))
        spikekit("pipeline", "--config", f"{run}.json", "--out", run)
        for extra, tag in (((), ""), (("--channel-step", "25"), "-cs25")):
            spikekit("featurize", f"{run}/spikes", "--seed", "5", *extra,
                     "--out", f"{run}-featurize{tag}.json")
        first = _first_clip(work / run / "dataset" / "manifest.json")
        spikekit("snn-forward", f"{run}/spikes/{first}.dat", "--seed", "7",
                 "--save-weights", f"{run}-snn-weights",
                 "--ledger", f"{run}-snn-ledger.json",
                 "--out", f"{run}-snn.json")
    spikekit("synth", "--out", "synth", "--clips-per-class", "1",
             "--frames", "120", "--size", "64", "--seed", "1")
    first = _first_clip(work / "synth" / "manifest.json")
    spikekit("encode", f"synth/clips/{first}", "clip.dat", "--noise", "0.05",
             "--seed", "1")
    spikekit("decode", "clip.dat", "--out", "clip.npy")
    spikekit("decode", "clip.dat", "--out", "clip-copy.dat")
    spikekit("reconstruct", "clip.dat", "--stride", "7", "--out", "tfi")
    spikekit("slice", "clip.dat", "--window", "45", "--stride", "13",
             "--out", "slices")
    spikekit("subsample", "clip.dat", "--target", "77",
             "--out", "clip-77.dat")


def hashes(work: pathlib.Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(work).as_posix()}"
            for path in sorted(work.rglob("*")) if path.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?", type=pathlib.Path, default=SRC,
                        help="directory holding the spikekit package "
                             "(default: this checkout's src)")
    src = parser.parse_args(argv).src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        run_all(src, work)
        print("\n".join(hashes(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
