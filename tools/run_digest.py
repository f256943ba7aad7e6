"""Digest of every file and every output of one end-to-end CLI session.

    python3 tools/run_digest.py

Writes a seeded tiny event stream (`bench/stream.py`'s TINY shape) to a
temporary directory, with a copy of it in `\\r\\n` line breaks and blank
lines whose `stats` results file must equal the original's (the digest
shows both hashes). It runs prepare, stats on both, naive, emit-prompts,
train, eval, analyze, an omega sweep and a 1x1/2x2 expert-count sweep at default
settings, then a train and an eval run each with the structural path off,
with the semantic path off, with the literal loss and the concatenated gate
input, and with `--window 0` (every timestamp encoded with no history),
and last a train and an eval run on a second stream of TINY's shape with
40 facts per timestamp, whose snapshots of 80 queries are the digest's
largest training and ranking batches. Then it runs what those leave at
their defaults: a train and an eval run each with no prediction expert, with
the semantic gate input and in float64, and an analyze run of the first,
whose gate table ends in a note row; a train run on a text embedding
file and an eval run of it on the same rows in the binary layout (both
written by `save_semantic_embeddings`); a train run from a `--config`
file; and naive runs with `--max-timestamps`, with `--drop-history`, and
with `--drop-history` under `MESH_SEED=2`. Every command writes to a fixed
relative `--out` path. It prints, per command, its exit code and the
SHA-256 of its stdout and stderr, then `sha256  path` for every file in the
directory. MESH_* variables of the calling environment are ignored, and a
command's own are set for that command only, so two runs of one checkout
print the same digest, and two checkouts that write the same bytes do too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import stream  # noqa: E402  (bench/stream.py)
from meshtkg.cli import run  # noqa: E402
from meshtkg.encoders import save_semantic_embeddings, synthetic_embeddings  # noqa: E402
from meshtkg.tkg import load_dataset  # noqa: E402

SEED = 1                      # seed of the event streams
TINY_SPLITS = (0, 28, 6, 6)   # start, train, valid and test timestamps of the 40
STREAMS = {"data": stream.TINY, "data-blocks": dict(stream.TINY, facts_per_step=40)}
COMMANDS = (
    ["prepare", "data", "--out", "prepare"],
    ["stats", "data", "--out", "stats"],
    ["stats", "data-crlf", "--out", "stats-crlf"],
    ["naive", "data", "--out", "naive"],
    ["emit-prompts", "data", "--out", "prompts", "--domain", "political",
     "--datatype", "historical"],
    ["train", "data", "--out", "train"],
    ["eval", "train/checkpoint.mesh", "data", "--out", "eval"],
    ["analyze", "train/checkpoint.mesh", "data", "--out", "analyze"],
    ["sweep", "data", "--out", "sweep", "--omega-list", "0.5,1"],
    ["sweep", "data", "--out", "mn", "--mn-grid", "1x1,2x2"],
    *(command
      for tag, flags in (("nostruct", ["--disable-structural"]),
                         ("nosem", ["--disable-semantic"]),
                         ("literal", ["--loss-mode", "literal", "--gate-input", "concatenated"]),
                         ("window0", ["--window", "0"]))
      for command in (["train", "data", "--out", f"train-{tag}", *flags],
                      ["eval", f"train-{tag}/checkpoint.mesh", "data", "--out", f"eval-{tag}"])),
    ["train", "data-blocks", "--out", "train-blocks"],
    ["eval", "train-blocks/checkpoint.mesh", "data-blocks", "--out", "eval-blocks"],
    *(command
      for tag, flags in (("nopred", ["--disable-prediction-expert"]),
                         ("semgate", ["--gate-input", "semantic"]),
                         ("float64", ["--dtype", "float64"]))
      for command in (["train", "data", "--out", f"train-{tag}", *flags],
                      ["eval", f"train-{tag}/checkpoint.mesh", "data", "--out", f"eval-{tag}"])),
    ["analyze", "train-nopred/checkpoint.mesh", "data", "--out", "analyze-nopred"],
    ["train", "data", "--out", "train-emb", "--embeddings", "emb.txt"],
    ["eval", "train-emb/checkpoint.mesh", "data", "--out", "eval-emb", "--embeddings", "emb.bin"],
    ["train", "data", "--out", "train-config", "--config", "run.cfg"],
    ["naive", "data", "--out", "naive-max", "--max-timestamps", "20"],
    ["naive", "data", "--out", "naive-drop", "--drop-history", "0.5"],
    # leading NAME=VALUE items are environment variables of that command alone
    ["MESH_SEED=2", "naive", "data", "--out", "naive-env", "--drop-history", "0.5"],
)
EMBEDDING_WIDTH, EMBEDDING_SEED = 16, 7   # the rows of emb.txt and emb.bin
CONFIG_FILE = """# a shorter run with a narrower window
epochs_stage0 = 10
epochs_stage1 = 5
window = 2
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command: list) -> str:
    assigned = list(itertools.takewhile(lambda item: "=" in item, command))
    argv = command[len(assigned):]
    os.environ.update(item.split("=", 1) for item in assigned)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        for item in assigned:
            del os.environ[item.split("=", 1)[0]]
    return (f"exit {code}  stdout {sha256(out.getvalue().encode())}  "
            f"stderr {sha256(err.getvalue().encode())}  "
            f"{' '.join([*assigned, 'meshtkg', *argv])}")


def write_inputs(top: str) -> None:
    """The `\\r\\n` copy of the stream, the embedding files, one table in
    both layouts, and the config file."""
    os.makedirs(os.path.join(top, "data-crlf"))
    for name in sorted(os.listdir(os.path.join(top, "data"))):
        with open(os.path.join(top, "data", name), "rb") as fh:
            text = fh.read()
        with open(os.path.join(top, "data-crlf", name), "wb") as fh:
            # a blank line first and after every line
            fh.write(b"\r\n" + text.replace(b"\n", b"\r\n\r\n"))
    vocab = load_dataset(os.path.join(top, "data"))[0]
    table = synthetic_embeddings(vocab, EMBEDDING_WIDTH, EMBEDDING_SEED)
    save_semantic_embeddings(os.path.join(top, "emb.txt"), table)
    save_semantic_embeddings(os.path.join(top, "emb.bin"), table, binary=True)
    with open(os.path.join(top, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(CONFIG_FILE)


def file_digests(top: str) -> list:
    lines = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                lines.append(f"{sha256(fh.read())}  {os.path.relpath(path, top)}")
    return lines


def main() -> int:
    for key in [k for k in os.environ if k.startswith("MESH_")]:
        del os.environ[key]
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="run_digest_") as top:
        for name, shape in STREAMS.items():
            facts = stream.generate(SEED, **shape)
            stream.write(os.path.join(top, name), stream.window(facts, *TINY_SPLITS),
                         shape["num_entities"], shape["num_relations"])
        write_inputs(top)
        os.chdir(top)
        try:
            lines = [run_command(list(command)) for command in COMMANDS]
        finally:
            os.chdir(home)
        lines += file_digests(top)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
