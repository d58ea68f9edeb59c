"""Print the SHA-256 of every artifact of a fixed set of spikekit commands.

The commands run at one BLAS thread, in a new temporary directory, on the
spikekit package under ``SRC`` (this checkout's ``src`` by default):

* ``pipeline`` at ``{"seed": 0}`` and at a small upsampled, noisy config;
* ``featurize --seed 5`` of each run's streams, with and without
  ``--channel-step 25``;
* ``snn-forward`` of each run's first stream three times: ``--seed 7
  --save-weights``, ``--channels 3 --seed 7``, and ``--weights`` of the
  archive the first one saved;
* ``synth`` of one short clip per class, ``encode --noise 0.05 --seed 1``
  of one clip, then ``decode`` (to ``.npy`` and ``.dat``),
  ``reconstruct --stride 7``, ``slice`` and ``subsample`` of its stream;
  ``reconstruct --stride 7`` once more with ``--meta`` naming the
  sidecar that ``decode`` wrote, so a stream is read through ``--meta``
  as well as through its own sidecar;
* ``encode --upsample 3 --noise 0.05 --seed 1`` of the same clip.

Every file the commands leave is printed as one ``sha256  path`` line,
paths relative to the temporary directory, in path order. Two trees make
the same artifacts when the lists are equal. ``--against REV`` runs the
command set on both a ``git archive`` of ``REV``'s ``src`` and ``SRC``,
prints the paths whose hashes differ, and exits 1 if any do (2 if git
cannot archive ``REV``)::

    python tools/artifact_hashes.py --against HEAD~1

The promise holds for one numpy build and BLAS kernel (README Notes), so
run both on the same host.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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
        # Seeded weights at the default and a given width, and the saved
        # archive, whose width is read from its blobs.
        for tag, extra in (("", ("--seed", "7", "--save-weights",
                                 f"{run}-snn-weights")),
                           ("-c3", ("--channels", "3", "--seed", "7")),
                           ("-loaded", ("--weights", f"{run}-snn-weights"))):
            spikekit("snn-forward", f"{run}/spikes/{first}.dat", *extra,
                     "--ledger", f"{run}-snn{tag}-ledger.json",
                     "--out", f"{run}-snn{tag}.json")
    spikekit("synth", "--out", "synth", "--clips-per-class", "1",
             "--frames", "120", "--size", "64", "--seed", "1")
    first = _first_clip(work / "synth" / "manifest.json")
    spikekit("encode", f"synth/clips/{first}", "clip.dat", "--noise", "0.05",
             "--seed", "1")
    spikekit("decode", "clip.dat", "--out", "clip.npy")
    spikekit("decode", "clip.dat", "--out", "clip-copy.dat")
    spikekit("reconstruct", "clip.dat", "--stride", "7", "--out", "tfi")
    # decode's clip-copy.meta.json is a copy of clip.meta.json.
    spikekit("reconstruct", "clip.dat", "--meta", "clip-copy.meta.json",
             "--stride", "7", "--out", "tfi-meta")
    spikekit("slice", "clip.dat", "--window", "45", "--stride", "13",
             "--out", "slices")
    spikekit("subsample", "clip.dat", "--target", "77",
             "--out", "clip-77.dat")
    spikekit("encode", f"synth/clips/{first}", "clip-up3.dat", "--upsample",
             "3", "--noise", "0.05", "--seed", "1")


def hashes(src: pathlib.Path) -> dict[str, str]:
    """Path -> SHA-256 of every artifact of the command set on ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        run_all(src, work)
        return {path.relative_to(work).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(work.rglob("*")) if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?", type=pathlib.Path, default=SRC,
                        help="directory holding the spikekit package "
                             "(default: this checkout's src)")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the src of git revision REV")
    args = parser.parse_args(argv)
    if args.against is None:
        print("\n".join(f"{digest}  {path}" for path, digest
                        in hashes(args.src.resolve()).items()))
        return 0
    archive = subprocess.run(["git", "archive", args.against, "src"],
                             cwd=ROOT, stdout=subprocess.PIPE)
    if archive.returncode:      # git has said why on stderr
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        base = hashes(pathlib.Path(tmp, "src"))
    tree = hashes(args.src.resolve())
    differ = sorted(path for path in base.keys() | tree.keys()
                    if base.get(path) != tree.get(path))
    print("\n".join(differ) if differ else
          f"{len(tree)} artifacts, every hash equal to {args.against}'s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
