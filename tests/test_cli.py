import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshtkg import encoders, rng, tkg, training
from meshtkg.cli import build_parser, run, write_results
from meshtkg.config import CHOICES, RunConfig
from meshtkg.encoders import save_semantic_embeddings, synthetic_embeddings
from meshtkg.evaluation import GateStats, MetricsReport, gate_statistics
from meshtkg.history import StatsReport

from conftest import micro_config


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def results(out):
    with open(os.path.join(out, "results.json"), encoding="utf-8") as fh:
        return json.load(fh)


BUCKETS = ["all", "historical", "non-historical"]
METRICS = ["mrr", "hits1", "hits3", "hits10", "count"]


def micro_flags(out, **extra):
    flags = dict(
        dim=16, llm_dim=16, adapter_hidden=16, channels=3,
        epochs_stage0=4, epochs_stage1=3, learning_rate=0.01, seed=1,
    )
    flags.update(extra)
    argv = ["--out", out]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestDataCommands:
    def test_stats(self, synth_dataset, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["stats", synth_dataset["dir"], "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "|F_his|" in printed
        stats = results(out)
        assert stats["num_entities"] == 30
        assert stats["num_train"] == synth_dataset["train"].num_facts
        assert sorted(os.listdir(out)) == ["config.echo", "results.json"]

    def test_prepare_roundtrip(self, synth_dataset, tmp_path):
        out = str(tmp_path / "o")
        assert run(["prepare", synth_dataset["dir"], "--out", out]) == 0
        from meshtkg.tkg import load_dataset

        _, train, _, _ = load_dataset(os.path.join(out, "dataset"))
        assert np.array_equal(train.array, synth_dataset["train"].array)

    def test_prepare_with_drop_history(self, synth_dataset, tmp_path):
        out = str(tmp_path / "o")
        assert run(["prepare", synth_dataset["dir"], "--out", out,
                    "--drop-history", "0.5", "--seed", "3"]) == 0
        from meshtkg.tkg import load_dataset

        _, train, _, test = load_dataset(os.path.join(out, "dataset"))
        original = synth_dataset["train"].num_facts
        assert train.num_facts == original - int(0.5 * original)
        assert test.num_facts == synth_dataset["test"].num_facts  # only train is thinned

    def test_prepare_replaces_the_dataset_files_as_one_set(self, synth_dataset,
                                                           tiny_dataset_dir, tmp_path, capsys):
        """A split that cannot be written leaves every earlier file of the
        set as it was, the id files included, and no `<path>.tmp`."""
        out = str(tmp_path / "o")
        dataset = tmp_path / "o" / "dataset"
        assert run(["prepare", tiny_dataset_dir, "--out", out]) == 0
        before = {name: (dataset / name).read_bytes()
                  for name in ("entity2id.txt", "relation2id.txt")}
        os.remove(os.path.join(dataset, "train.txt"))
        os.makedirs(os.path.join(dataset, "train.txt"))
        capsys.readouterr()
        assert run(["prepare", synth_dataset["dir"], "--out", out]) == 2
        path = os.path.join(dataset, "train.txt")
        assert re.fullmatch(rf"error: cannot write {re.escape(path)} \(.+\)\n",
                            capsys.readouterr().err)
        for name, content in before.items():
            assert (dataset / name).read_bytes() == content
        assert sorted(os.listdir(dataset)) == ["entity2id.txt", "relation2id.txt", "test.txt",
                                               "train.txt", "valid.txt"]

    def test_prepare_too_few_timestamps_exits_3(self, tiny_dataset_dir, tmp_path, capsys):
        ds = str(tmp_path / "one_timestamp")
        shutil.copytree(tiny_dataset_dir, ds)
        with open(os.path.join(ds, "train.txt"), "w", encoding="utf-8") as fh:
            fh.write("0\t0\t1\t0\n1\t0\t2\t0\n")
        for split in ("valid", "test"):
            open(os.path.join(ds, f"{split}.txt"), "w").close()
        out = str(tmp_path / "o")
        assert run(["prepare", ds, "--out", out, "--max-timestamps", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert not os.path.exists(os.path.join(out, "dataset", "test.txt"))

    def test_naive(self, synth_dataset, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["naive", synth_dataset["dir"], "--out", out]) == 0
        assert "MRR" in capsys.readouterr().out
        buckets = results(out)
        assert list(buckets) == BUCKETS
        assert all(list(report) == METRICS for report in buckets.values())
        assert buckets["all"]["count"] == (buckets["historical"]["count"]
                                           + buckets["non-historical"]["count"])
        assert sorted(os.listdir(out)) == ["config.echo", "results.json"]

    def test_naive_names_an_empty_bucket(self, tiny_dataset_dir, tmp_path, capsys):
        # every test fact of the tiny dataset repeats a training fact
        out = str(tmp_path / "o")
        assert run(["naive", tiny_dataset_dir, "--out", out]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2].split() == ["non-historical", "0", "n/a", "n/a", "n/a", "n/a"]
        assert printed[-1] == "(empty bucket: non-historical)"
        assert results(out)["non-historical"]["mrr"] is None

    def test_emit_prompts(self, synth_dataset, tmp_path):
        out = str(tmp_path / "o")
        code = run(["emit-prompts", synth_dataset["dir"], "--out", out,
                    "--domain", "political", "--datatype", "historical"])
        assert code == 0
        lines = read(os.path.join(out, "prompts.tsv")).splitlines()
        assert len(lines) == 30 + 4
        assert lines[0].startswith("E\t0\tIn the context of political,")

    @pytest.mark.parametrize("flag, value", [
        ("--domain", "a\tb"), ("--datatype", "x\ny"), ("--datatype", "x\ry"),
        # what the argv byte 0xff, which is not UTF-8, decodes to
        ("--domain", "a\udcffb"),
    ], ids=["tab", "line_feed", "carriage_return", "non_utf8_byte"])
    def test_emit_prompts_refuses_a_value_that_breaks_its_lines(self, synth_dataset, tmp_path,
                                                                capsys, flag, value):
        out = str(tmp_path / "o")
        values = {"--domain": "political", "--datatype": "historical", flag: value}
        argv = ["emit-prompts", synth_dataset["dir"], "--out", out]
        assert run(argv + [item for pair in values.items() for item in pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must hold no tab") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run(["stats", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["stats", "train"])
    def test_non_utf8_dataset_exits_3(self, synth_dataset, tmp_path, capsys, command):
        ds = str(tmp_path / "ds")
        shutil.copytree(synth_dataset["dir"], ds)
        with open(os.path.join(ds, "relation2id.txt"), "ab") as fh:
            fh.write(b"caf\xe9\t4\n")
        assert run([command, ds, *micro_flags(str(tmp_path / "o"))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "relation2id.txt:5" in err
        assert err.count("\n") == 1

    def test_id_that_int_reads_exits_3(self, synth_dataset, tmp_path, capsys):
        """`int()` reads `3_0` as 30, the next dense entity id."""
        ds = str(tmp_path / "ds")
        shutil.copytree(synth_dataset["dir"], ds)
        path = os.path.join(ds, "entity2id.txt")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("extra\t3_0\n")
        assert run(["stats", ds, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: {path}:31: id is not an integer: '3_0'\n"

    @pytest.mark.parametrize("command", ["stats", "train"])
    def test_timestamp_above_int64_exits_3(self, synth_dataset, tmp_path, capsys, command):
        ds = str(tmp_path / "ds")
        shutil.copytree(synth_dataset["dir"], ds)
        with open(os.path.join(ds, "test.txt"), "a", encoding="utf-8") as fh:
            fh.write("0\t0\t1\t99999999999999999999\n")
        assert run([command, ds, *micro_flags(str(tmp_path / "o"))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "test.txt:" in err and "int64" in err
        assert err.count("\n") == 1

    def test_largest_int64_timestamp_trains_and_evaluates(self, synth_dataset, tmp_path):
        """Raw timestamps become dense indices when loaded, so a fact at the
        int64 maximum is one more snapshot, not 2**63 of them."""
        ds = str(tmp_path / "ds")
        shutil.copytree(synth_dataset["dir"], ds)
        with open(os.path.join(ds, "test.txt"), "a", encoding="utf-8") as fh:
            fh.write(f"0\t0\t1\t{2**63 - 1}\n")
        out = str(tmp_path / "o")
        assert run(["train", ds, *micro_flags(out, epochs_stage0=1, epochs_stage1=1)]) == 0
        assert run(["eval", os.path.join(out, "checkpoint.mesh"), ds,
                    "--out", str(tmp_path / "e")]) == 0

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, message", [
        (["--dim", "abc"], "error: argument --dim: invalid int value: 'abc'\n"),
        (["--profile", "gpu"], "error: argument --profile: invalid choice: 'gpu' "
                               "(choose from 'full', 'desk')\n"),
    ], ids=["int", "choice"])
    def test_bad_flag_value_is_one_line(self, synth_dataset, tmp_path, capsys, flag, message):
        with pytest.raises(SystemExit) as exc:
            run(["stats", synth_dataset["dir"], "--out", str(tmp_path / "o"), *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().err == message


# every code point but the surrogates: JSON reads an escaped surrogate pair
# back as the one character it encodes
ANY_TEXT = st.text()
FLOATS = st.floats(allow_nan=False)        # infinities included
REPORTS = st.one_of(
    st.builds(MetricsReport, *[st.none() | FLOATS] * 4, st.integers(min_value=0)),
    st.builds(GateStats, st.none() | FLOATS, st.none() | FLOATS, st.integers(min_value=0),
              st.none() | FLOATS, st.none() | FLOATS, st.integers(min_value=0),
              st.none() | FLOATS, st.none() | FLOATS, ANY_TEXT),
    st.builds(StatsReport, *[st.integers()] * 7, FLOATS),
)


def plain(records):
    return ({key: plain(value) for key, value in records.items()}
            if isinstance(records, dict) else asdict(records))


@settings(max_examples=200, deadline=None)
@example(records=gate_statistics([1.0, 1.0], [0.5, 0.5]))   # welch_t's numpy infinity
@given(records=st.one_of(REPORTS, st.dictionaries(ANY_TEXT, REPORTS),
                         st.dictionaries(ANY_TEXT, st.dictionaries(ANY_TEXT, REPORTS))))
def test_results_read_back(records, tmp_path_factory):
    """`json.load` of results.json gives every field of every record, an
    infinity and any text among them."""
    out = str(tmp_path_factory.mktemp("results"))
    write_results(out, records)
    assert results(out) == plain(records)


def test_one_train_flag_per_config_field(capsys):
    """Every RunConfig field but `dataset` is a `train` flag that parses to
    the field's type; an enumerated field takes its CHOICES and nothing else."""
    assert set(CHOICES) == {"profile", "loss_mode", "dtype", "gate_input"}
    parser = build_parser()
    samples = {"int": "7", "float": "0.5", "str": "x"}
    for f in fields(RunConfig):
        if f.name == "dataset":
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            assert getattr(parser.parse_args(["train", "D", flag]), f.name) is True
            continue
        values = CHOICES.get(f.name, [samples[f.type]])
        for value in values:
            got = getattr(parser.parse_args(["train", "D", flag, value]), f.name)
            assert type(got).__name__ == f.type and str(got) == value
        if f.name in CHOICES:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["train", "D", flag, "bogus"])
            assert exc.value.code == 2


@pytest.fixture(scope="module")
def narrow_embeddings(synth_dataset, tmp_path_factory):
    """An 8-wide embedding file, narrower than any profile's llm_dim."""
    path = str(tmp_path_factory.mktemp("emb") / "narrow.emb")
    save_semantic_embeddings(path, synthetic_embeddings(synth_dataset["vocab"], 8, seed=5))
    return path


@pytest.fixture(scope="module")
def train_dir(synth_dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_train"))
    assert run(["train", synth_dataset["dir"], *micro_flags(out)]) == 0
    return out


class TestTrainEvalCommands:
    def test_train_artifacts(self, train_dir):
        assert os.path.exists(os.path.join(train_dir, "checkpoint.mesh"))
        log = read(os.path.join(train_dir, "training.log"))
        assert len(log.strip().split("\n")) == 3
        echo = read(os.path.join(train_dir, "config.echo"))
        assert "seed = 1" in echo and "dim = 16" in echo

    def test_determinism_byte_identical_logs(self, synth_dataset, train_dir, tmp_path):
        out2 = str(tmp_path / "again")
        assert run(["train", synth_dataset["dir"], *micro_flags(out2)]) == 0
        assert read(os.path.join(train_dir, "training.log")) == read(os.path.join(out2, "training.log"))
        assert read(os.path.join(train_dir, "config.echo")).replace(train_dir, out2) == read(
            os.path.join(out2, "config.echo")
        )

    def test_echo_reproduces_run(self, synth_dataset, train_dir, tmp_path):
        out2 = str(tmp_path / "fromecho")
        echo_path = os.path.join(train_dir, "config.echo")
        assert run(["train", synth_dataset["dir"], "--config", echo_path, "--out", out2]) == 0
        assert read(os.path.join(train_dir, "training.log")) == read(os.path.join(out2, "training.log"))

    def test_eval_and_analyze(self, synth_dataset, train_dir, tmp_path, capsys):
        ckpt = os.path.join(train_dir, "checkpoint.mesh")
        out = str(tmp_path / "ev")
        assert run(["eval", ckpt, synth_dataset["dir"], "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "historical" in printed and "alpha_1" not in printed
        evaluated = results(out)
        assert list(evaluated) == [*BUCKETS, "gates"]
        assert evaluated["gates"]["n_his"] == evaluated["historical"]["count"]
        out2 = str(tmp_path / "an")
        assert run(["analyze", ckpt, synth_dataset["dir"], "--out", out2]) == 0
        printed = capsys.readouterr().out
        assert "alpha_1" in printed and "MRR" not in printed
        # each cell of the gate table starts under its column's header
        header, _, _, counts, p_value = printed.splitlines()
        gates = results(out2)["gates"]
        assert counts.split() == ["n", str(gates["n_his"]), str(gates["n_nhis"])]
        starts = [[cell.start() for cell in re.finditer(r"\S+", line)] for line in (header, counts)]
        assert starts[0] == starts[1]
        assert p_value.split() == ["p-value", f"{gates['p_value']:.6f}"]
        # the two commands write the same results and differ only in what they print
        assert read(os.path.join(out2, "results.json")) == read(os.path.join(out, "results.json"))
        assert sorted(os.listdir(out2)) == ["config.echo", "results.json"]

    def test_eval_valid_reports_the_best_valid_mrr(self, synth_dataset, train_dir, tmp_path):
        """The checkpoint holds the kept epoch: `eval --split valid` on it
        reports the best validation MRR of the training log."""
        out = str(tmp_path / "ev")
        assert run(["eval", os.path.join(train_dir, "checkpoint.mesh"), synth_dataset["dir"],
                    "--out", out, "--split", "valid"]) == 0
        logged = [line.split("\t")[2] for line in
                  read(os.path.join(train_dir, "training.log")).splitlines()]
        assert f"{results(out)['all']['mrr']:.6f}" == max(logged, key=float)

    def test_analyze_without_prediction_expert_reports_no_statistics(
            self, synth_dataset, train_dir, tmp_path, capsys):
        # the fixed uniform weights of the ablation are no measurement to test
        out = str(tmp_path / "an")
        assert run(["analyze", os.path.join(train_dir, "checkpoint.mesh"), synth_dataset["dir"],
                    "--out", out, "--disable-prediction-expert"]) == 0
        gates = results(out)["gates"]
        assert gates["mean_his"] is None and gates["mean_nhis"] is None
        assert gates["p_value"] is None and "disable_prediction_expert" in gates["note"]
        printed = capsys.readouterr().out.splitlines()
        assert printed[1].split() == ["Mean", "n/a", "n/a"]
        assert printed[-2:] == ["p-value  n/a", f"({gates['note']})"]

    def test_analyze_with_a_bucket_below_two_samples(self, synth_dataset, train_dir, tmp_path,
                                                      capsys):
        # one test fact, a repeat of a training fact: two historical queries
        ds = str(tmp_path / "ds")
        shutil.copytree(synth_dataset["dir"], ds)
        s, r, o, _ = synth_dataset["train"].array[0]
        with open(os.path.join(ds, "test.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{s}\t{r}\t{o}\t19\n")
        out = str(tmp_path / "an")
        assert run(["analyze", os.path.join(train_dir, "checkpoint.mesh"), ds, "--out", out]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[1].split()[::2] == ["Mean", "n/a"]
        assert printed[2].split()[::2] == ["Std", "n/a"]
        assert printed[3].split() == ["n", "2", "0"]
        assert printed[-2:] == ["p-value  n/a",
                                "(statistics unavailable: a bucket has fewer than 2 samples)"]

    def test_eval_reads_the_environment_below_the_flags(self, synth_dataset, train_dir,
                                                         tmp_path, monkeypatch):
        ckpt = os.path.join(train_dir, "checkpoint.mesh")
        out_flag, out_env = str(tmp_path / "flag"), str(tmp_path / "env")
        assert run(["eval", ckpt, synth_dataset["dir"], "--out", out_flag,
                    "--disable-semantic"]) == 0
        monkeypatch.setenv("MESH_DISABLE_SEMANTIC", "1")
        assert run(["eval", ckpt, synth_dataset["dir"], "--out", out_env]) == 0
        assert read(os.path.join(out_env, "results.json")) == read(
            os.path.join(out_flag, "results.json"))
        # MESH_DATASET overrides the checkpoint's dataset, the positional one overrides both
        monkeypatch.setenv("MESH_DATASET", str(tmp_path / "none"))
        assert run(["eval", ckpt, "--out", str(tmp_path / "recorded")]) == 3
        assert run(["eval", ckpt, synth_dataset["dir"], "--out", str(tmp_path / "given")]) == 0

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_bad_environment_value_exits_2_for_eval(self, command, synth_dataset, train_dir,
                                                    tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MESH_DISABLE_SEMANTIC", "maybe")
        out = str(tmp_path / "x")
        assert run([command, os.path.join(train_dir, "checkpoint.mesh"), synth_dataset["dir"],
                    "--out", out]) == 2
        assert capsys.readouterr().err == ("error: MESH_DISABLE_SEMANTIC: cannot parse boolean "
                                           "config value 'maybe' for disable_semantic\n")
        assert not os.path.exists(out)

    def test_eval_ablation_flag_changes_metrics(self, synth_dataset, train_dir, tmp_path):
        ckpt = os.path.join(train_dir, "checkpoint.mesh")
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run(["eval", ckpt, synth_dataset["dir"], "--out", out_a]) == 0
        assert run(["eval", ckpt, synth_dataset["dir"], "--out", out_b, "--disable-semantic"]) == 0
        assert results(out_a)["all"] != results(out_b)["all"]

    def test_adapters_sized_from_embedding_file(self, synth_dataset, narrow_embeddings, tmp_path):
        # the file's width, not llm_dim, sizes the adapters; eval must rebuild them
        out = str(tmp_path / "narrow")
        argv = ["train", synth_dataset["dir"], "--embeddings", narrow_embeddings,
                *micro_flags(out, llm_dim=64, epochs_stage0=1, epochs_stage1=1)]
        assert run(argv) == 0
        out_ev = str(tmp_path / "narrow_eval")
        ckpt = os.path.join(out, "checkpoint.mesh")
        assert run(["eval", ckpt, synth_dataset["dir"], "--out", out_ev]) == 0
        assert results(out_ev)["all"]["count"] > 0
        # both echoes and the stored configuration name the width the model ran at
        for echo_dir in (out, out_ev):
            assert "\nllm_dim = 8\n" in read(os.path.join(echo_dir, "config.echo"))
        assert training.load_checkpoint(ckpt)[1]["config"].llm_dim == 8

    def test_eval_embedding_width_mismatch_is_data_error(self, synth_dataset, train_dir,
                                                         narrow_embeddings, tmp_path, capsys):
        ckpt = os.path.join(train_dir, "checkpoint.mesh")
        code = run(["eval", ckpt, synth_dataset["dir"], "--out", str(tmp_path / "ev"),
                    "--embeddings", narrow_embeddings])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_env_override(self, synth_dataset, tmp_path, monkeypatch):
        out = str(tmp_path / "envrun")
        monkeypatch.setenv("MESH_EPOCHS_STAGE1", "1")
        monkeypatch.setenv("MESH_EPOCHS_STAGE0", "1")
        monkeypatch.setenv("MESH_DIM", "8")
        argv = ["train", synth_dataset["dir"], "--out", out, "--llm-dim", "16",
                "--adapter-hidden", "8", "--channels", "2", "--seed", "1"]
        assert run(argv) == 0
        echo = read(os.path.join(out, "config.echo"))
        assert "dim = 8" in echo and "epochs_stage1 = 1" in echo

    def test_flags_beat_config_file(self, synth_dataset, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dim = 8\nepochs_stage0 = 1\nepochs_stage1 = 1\nchannels = 2\n"
                            "llm_dim = 16\nadapter_hidden = 8\n")
        out = str(tmp_path / "layered")
        argv = ["train", synth_dataset["dir"], "--config", str(cfg_file), "--out", out,
                "--dim", "12", "--seed", "1"]
        assert run(argv) == 0
        echo = read(os.path.join(out, "config.echo"))
        assert "dim = 12" in echo          # flag wins
        assert "epochs_stage0 = 1" in echo  # file beats profile preset

    def test_bad_config_value_exits_2(self, synth_dataset, tmp_path):
        assert run(["train", synth_dataset["dir"], "--out", str(tmp_path / "x"),
                    "--dropout", "1.5"]) == 2

    @pytest.mark.parametrize("suffix, where", [
        ("\n", "flag"), ("\udcff", "flag"), ("\0x", "file"),
    ], ids=["line_break", "not_utf8", "nul"])
    def test_value_the_echo_cannot_hold_exits_2_in_one_line(self, synth_dataset, tmp_path,
                                                           capsys, suffix, where):
        # a command-line byte that is not UTF-8 reaches argv as a surrogate
        out = str(tmp_path / "o") + suffix
        argv = ["stats", synth_dataset["dir"]]
        if where == "flag":
            argv += ["--out", out]
        else:
            (tmp_path / "run.cfg").write_text(f"out = {out}\n", encoding="utf-8")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: config field out must have no surrounding blanks, no line break, no NUL "
            f"and no character UTF-8 cannot encode, got {out!r}\n")
        assert os.listdir(tmp_path) == (["run.cfg"] if where == "file" else [])

    @pytest.mark.parametrize("line, message", [
        (b"dim = abc", "cannot parse int config value 'abc' for dim"),
        (b"dim = \xff", "byte 0xff is not UTF-8"),
    ], ids=["int", "utf8"])
    def test_bad_config_file_value_is_located(self, synth_dataset, tmp_path, capsys,
                                              line, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"seed = 1\n" + line + b"\n")
        out = str(tmp_path / "x")
        assert run(["train", synth_dataset["dir"], "--config", str(cfg_file), "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}:2: {message}\n"
        assert not os.path.exists(out)

    def test_bad_environment_value_is_located(self, synth_dataset, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("MESH_DIM", "abc")
        out = str(tmp_path / "x")
        assert run(["train", synth_dataset["dir"], "--out", out]) == 2
        assert capsys.readouterr().err == ("error: MESH_DIM: cannot parse int config value "
                                           "'abc' for dim\n")
        assert not os.path.exists(out)

    def test_adam_overflow_exits_4(self, synth_dataset, tmp_path, capsys):
        table = synthetic_embeddings(synth_dataset["vocab"], 16, seed=5)
        table.entity[...] = 1e30
        path = str(tmp_path / "huge.emb")
        save_semantic_embeddings(path, table, binary=True)
        out = str(tmp_path / "x")
        argv = ["train", synth_dataset["dir"], *micro_flags(out, epochs_stage0=1, epochs_stage1=1),
                "--embeddings", path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric failure: Adam update failed in stage 1, epoch 1, "
                            r"timestamp \d+: overflow encountered in \w+\n", err)
        assert not os.path.exists(os.path.join(out, "checkpoint.mesh"))

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_rows_near_float32_max_exit_4(self, command, synth_dataset, train_dir, tmp_path,
                                          capsys):
        """Rows at 3e38 overflow the adapters' first product: the stage-1
        step or the ranked split fails in one line, with no warning."""
        table = synthetic_embeddings(synth_dataset["vocab"], 16, seed=5)
        table.entity[...] = 3e38
        path = str(tmp_path / "huge.emb")
        save_semantic_embeddings(path, table, binary=True)
        out = str(tmp_path / "x")
        argv = (["train", synth_dataset["dir"], *micro_flags(out, epochs_stage0=1)]
                if command == "train" else
                ["eval", os.path.join(train_dir, "checkpoint.mesh"), synth_dataset["dir"],
                 "--out", out])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--embeddings", path]) == 4
        where = ("non-finite value in stage 1, epoch 1, timestamp" if command == "train"
                 else "non-finite scores in the test split, timestamp")
        assert re.fullmatch(rf"numeric failure: {where} \d+: overflow encountered in \w+\n",
                            capsys.readouterr().err)
        assert not os.path.exists(os.path.join(out, "checkpoint.mesh"))
        assert not os.path.exists(os.path.join(out, "results.json"))

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["stats", "train"])
    def test_out_at_or_under_a_file_exits_2(self, command, under, synth_dataset, tmp_path,
                                            capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("kept\n")
        out = os.path.join(str(blocker), under) if under else str(blocker)
        assert run([command, synth_dataset["dir"], *micro_flags(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {os.path.join(out, 'config.echo')} (")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["afile"] and blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("module, allocation", [
        ("cli", "synthetic_embeddings"), ("training", "init_model")])
    def test_configuration_beyond_memory_exits_2(self, module, allocation, synth_dataset,
                                                 tmp_path, capsys, monkeypatch):
        """The allocation that a huge --llm-dim or --dim reaches first fails as
        numpy fails it; the real 22 GiB is never asked for."""
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB for an array with shape "
                              "(100000000, 60) and data type float32")

        monkeypatch.setattr(f"meshtkg.{module}.{allocation}", refuse)
        out = str(tmp_path / "x")
        assert run(["train", synth_dataset["dir"], *micro_flags(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the configuration does not fit in memory (Unable to allocate 22.4 GiB for "
            "an array with shape (100000000, 60) and data type float32)\n")
        assert not os.path.exists(os.path.join(out, "checkpoint.mesh"))

    def test_memory_error_in_a_draw_worker_exits_2(self, synth_dataset, tmp_path, capsys,
                                                   monkeypatch):
        """Wide synthetic rows are drawn by one thread per core; an allocation
        failing in the second worker's rows is the one-line exit 2."""
        rekey = rng.rekey
        last = synth_dataset["vocab"].num_entities - 1

        def failing(bitgen, seed, domain, index=0):
            if (domain, index) == (rng.SYNTH_ENTITY, last):
                raise MemoryError("Unable to allocate 32.0 KiB for an array with shape (4096,) "
                                  "and data type float64")
            rekey(bitgen, seed, domain, index)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(rng, "rekey", failing)
        out = str(tmp_path / "x")
        flags = micro_flags(out, llm_dim=encoders.THREADED_WIDTH)
        assert run(["train", synth_dataset["dir"], *flags]) == 2
        assert capsys.readouterr().err == (
            "error: the configuration does not fit in memory (Unable to allocate 32.0 KiB for "
            "an array with shape (4096,) and data type float64)\n")

    def test_removed_event_aware_switch_exits_2(self, synth_dataset, tmp_path, capsys):
        # `--omega 0` is the run without the auxiliary expert loss
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("omega = 0.5\ndisable_event_aware = true\n")
        out = str(tmp_path / "x")
        assert run(["train", synth_dataset["dir"], "--config", str(cfg_file), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unknown config key 'disable_event_aware'" in err
        assert not os.path.exists(out)

    def test_numeric_failure_exits_4(self, synth_dataset, tmp_path, monkeypatch):
        from meshtkg.autodiff import NumericError
        import meshtkg.cli

        def boom(*args, **kwargs):
            raise NumericError("non-finite loss in stage 1, epoch 1, timestamp 0")

        monkeypatch.setattr(meshtkg.cli.training, "train_model", boom)
        assert run(["train", synth_dataset["dir"], *micro_flags(str(tmp_path / "x"))]) == 4

    def test_non_finite_loss_exits_4(self, synth_dataset, tmp_path, capsys, monkeypatch):
        """The training loop's own check: a stage-1 step whose loss is NaN."""
        from meshtkg.autodiff import Tensor

        monkeypatch.setattr(training, "total_loss", lambda *terms: Tensor(np.float32(np.nan)))
        out = str(tmp_path / "x")
        assert run(["train", synth_dataset["dir"], *micro_flags(out, epochs_stage0=1)]) == 4
        assert re.fullmatch(r"numeric failure: non-finite loss in stage 1, epoch 1, "
                            r"timestamp \d+\n", capsys.readouterr().err)
        assert not os.path.exists(os.path.join(out, "checkpoint.mesh"))

    def test_train_verbose_prints_each_epoch(self, synth_dataset, tmp_path, capsys):
        out = str(tmp_path / "v")
        argv = ["train", synth_dataset["dir"], *micro_flags(out, epochs_stage0=2, epochs_stage1=1)]
        assert run([*argv, "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == [
            "stage0 epoch 1", "stage0 epoch 2", "stage1 epoch 1"]
        assert re.fullmatch(r"stage1 epoch 1: loss \S+ valid MRR \S+", lines[2])
        assert lines[3].startswith("checkpoint written to") and len(lines) == 4


class TestSweep:
    def test_omega_sweep_writes_summary(self, synth_dataset, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        argv = ["sweep", synth_dataset["dir"], *micro_flags(out, epochs_stage0=2, epochs_stage1=1),
                "--omega-list", "0.5,1.0"]
        assert run(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        settings = results(out)
        assert list(settings) == ["omega_0.5", "omega_1"]
        for row, (tag, evaluated) in zip(rows, settings.items(), strict=True):
            assert list(evaluated) == [*BUCKETS, "gates"]
            assert row == "\t".join([tag, *(f"{100 * evaluated['all'][metric]:.2f}"
                                            for metric in ("mrr", "hits3", "hits10"))])
        assert os.path.isdir(os.path.join(out, "omega_1"))

    def test_mn_sweep(self, synth_dataset, tmp_path):
        out = str(tmp_path / "mn")
        argv = ["sweep", synth_dataset["dir"], *micro_flags(out, epochs_stage0=1, epochs_stage1=1),
                "--mn-grid", "1x1,2x1"]
        assert run(argv) == 0
        assert list(results(out)) == ["m1n1", "m2n1"]

    def test_omegas_alike_at_six_digits_are_two_settings(self, synth_dataset, tmp_path):
        out = str(tmp_path / "close")
        argv = ["sweep", synth_dataset["dir"], *micro_flags(out, epochs_stage0=1, epochs_stage1=1),
                "--omega-list", "0.1234567,0.1234568"]
        assert run(argv) == 0
        assert list(results(out)) == ["omega_0.1234567", "omega_0.1234568"]
        for tag in results(out):
            with open(os.path.join(out, tag, "config.echo"), encoding="utf-8") as fh:
                assert f"omega = {tag[len('omega_'):]}\n" in fh.read()

    @pytest.mark.parametrize("axis, message", [
        (["--mn-grid", "1x1,0x1"], "sweep setting m0n1: "),
        (["--omega-list=0.5,-1"], "sweep setting omega_-1: "),
        (["--mn-grid", "1x1,1X1"], "sweep repeats the setting m1n1"),
        (["--omega-list", "1,1.0"], "sweep repeats the setting omega_1"),
        (["--omega-list", "0,-0"], "sweep repeats the setting omega_0\n"),
        (["--mn-grid", "1x1,2by1"], "expected MxN (like 2x1), got '2by1'"),
        (["--omega-list", "0.5,high"], "bad --omega-list value: '0.5,high'"),
    ], ids=["mn_out_of_range", "omega_out_of_range", "mn_repeated", "omega_repeated",
            "omega_signed_zero", "mn_malformed", "omega_malformed"])
    def test_bad_setting_rejected_before_any_run(self, synth_dataset, tmp_path, capsys, axis,
                                                 message):
        out = str(tmp_path / "badset")
        assert run(["sweep", synth_dataset["dir"], *micro_flags(out), *axis]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("axis", ["--omega-list", "--mn-grid"])
    def test_empty_sweep_exits_2(self, synth_dataset, tmp_path, capsys, axis):
        out = str(tmp_path / "empty")
        assert run(["sweep", synth_dataset["dir"], "--out", out, axis, ","]) == 2
        assert capsys.readouterr().err == "error: sweep needs at least one setting\n"
        assert not os.path.exists(out)

    def test_sweep_needs_exactly_one_axis(self, synth_dataset, tmp_path):
        out = str(tmp_path / "bad")
        assert run(["sweep", synth_dataset["dir"], "--out", out]) == 2
        assert run(["sweep", synth_dataset["dir"], "--out", out,
                    "--omega-list", "1.0", "--mn-grid", "1x1"]) == 2


# flags whose values RunConfig rejects when built; each once escaped as a
# traceback (exit 1), a numeric failure (exit 4) or a silent run (exit 0)
BAD_CONFIG_VALUES = {
    "even kernel width": ["train", "--kernel-width", "4"],
    "max-timestamps 1": ["prepare", "--max-timestamps", "1"],
    "max-timestamps 2": ["prepare", "--max-timestamps", "2"],
    "nan omega": ["train", "--omega", "nan"],
    "infinite omega": ["train", "--omega", "inf"],
    "nan learning rate": ["train", "--learning-rate", "nan"],
    "infinite learning rate": ["train", "--learning-rate", "inf"],
    "both paths disabled": ["train", "--disable-semantic", "--disable-structural"],
    "seed beyond 64 bits": ["train", "--seed", str(2**64 + 1)],   # Philox would read 1
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_values_exit_2(case, synth_dataset, tmp_path, capsys):
    command, *flags = BAD_CONFIG_VALUES[case]
    out = str(tmp_path / "out")
    assert run([command, synth_dataset["dir"], *micro_flags(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def checkpoint(train_dir):
    return os.path.join(train_dir, "checkpoint.mesh")


def test_eval_without_a_dataset_exits_2(checkpoint, tmp_path, capsys):
    with open(checkpoint, "rb") as fh:
        raw = fh.read()
    path = str(tmp_path / "nodata.mesh")
    with open(path, "wb") as fh:
        fh.write(_set_config("dataset", "")(raw))
    out = str(tmp_path / "out")
    assert run(["eval", path, "--out", out]) == 2
    assert capsys.readouterr().err == ("error: no dataset given and none recorded in the "
                                       "checkpoint\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_eval_without_out_exits_2_and_leaves_the_run_alone(command, synth_dataset, train_dir,
                                                            checkpoint, capsys):
    """Without --out, eval and analyze would write into the training run's
    directory and rewrite its config.echo with their own flags."""
    before = {name: read(os.path.join(train_dir, name)) for name in os.listdir(train_dir)
              if name != "checkpoint.mesh"}
    assert run([command, checkpoint, synth_dataset["dir"], "--disable-prediction-expert"]) == 2
    assert capsys.readouterr().err == f"error: {command} needs --out, the directory for its results\n"
    assert {name: read(os.path.join(train_dir, name)) for name in os.listdir(train_dir)
            if name != "checkpoint.mesh"} == before


def test_mesh_out_does_not_stand_in_for_eval_out(synth_dataset, train_dir, checkpoint,
                                                  capsys, monkeypatch):
    """A MESH_OUT exported for a training run names that run's directory."""
    monkeypatch.setenv("MESH_OUT", train_dir)
    before = sorted(os.listdir(train_dir))
    assert run(["eval", checkpoint, synth_dataset["dir"]]) == 2
    assert capsys.readouterr().err == "error: eval needs --out, the directory for its results\n"
    assert sorted(os.listdir(train_dir)) == before


def test_cli_import_leaves_scipy_stats_unloaded():
    """The gate-weight test takes its Student-t tail from scipy.special;
    scipy.stats would double the start-up time and memory of every command."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tkg.__file__))}
    code = "import sys, meshtkg.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"


def test_eval_without_out_exits_2_before_reading_the_checkpoint(tmp_path, capsys):
    assert run(["eval", str(tmp_path / "none.mesh")]) == 2
    assert capsys.readouterr().err == "error: eval needs --out, the directory for its results\n"


# each output file, under --out, and the command that writes it
OUTPUT_FILES = {
    "stats results.json": (["stats"], "results.json"),
    "naive results.json": (["naive"], "results.json"),
    "eval results.json": (["eval"], "results.json"),
    "analyze results.json": (["analyze"], "results.json"),
    "sweep results.json": (["sweep", "--omega-list", "1"], "results.json"),
    "train training.log": (["train"], "training.log"),
    "train checkpoint.mesh": (["train"], "checkpoint.mesh"),
    "emit-prompts prompts.tsv": (["emit-prompts", "--domain", "d", "--datatype", "t"],
                                 "prompts.tsv"),
    "prepare dataset/train.txt": (["prepare"], os.path.join("dataset", "train.txt")),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_FILES))
def test_unwritable_output_file_exits_2(case, synth_dataset, checkpoint, tmp_path, capsys):
    """A directory where an output file goes is named in one line, and no
    `<path>.tmp` is left; the checkpoint is saved before the training log."""
    (command, *extra), name = OUTPUT_FILES[case]
    out = str(tmp_path / "out")
    path = os.path.join(out, name)
    os.makedirs(path)
    if command in ("eval", "analyze"):
        argv = [command, checkpoint, synth_dataset["dir"], "--out", out]
    else:
        argv = [command, synth_dataset["dir"],
                *micro_flags(out, epochs_stage0=1, epochs_stage1=1), *extra]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: cannot write {re.escape(path)} \(.+\)\n", captured.err)
    if command in ("stats", "naive", "eval", "analyze"):
        assert captured.out == ""  # results.json is written before the table is printed
    assert os.path.isdir(path) and not os.path.exists(path + ".tmp")
    if name == "training.log":
        training.load_checkpoint(os.path.join(out, "checkpoint.mesh"))


@pytest.mark.parametrize("command", ["stats", "eval"])
def test_empty_out_exits_2_and_writes_nothing(command, synth_dataset, checkpoint, tmp_path,
                                              capsys, monkeypatch):
    """An empty --out would put the output files in the working directory."""
    monkeypatch.chdir(tmp_path)
    inputs = [checkpoint, synth_dataset["dir"]] if command == "eval" else [synth_dataset["dir"]]
    assert run([command, *inputs, "--out", ""]) == 2
    assert capsys.readouterr().err == "error: config field out must not be empty\n"
    assert os.listdir(tmp_path) == []


def test_eval_on_a_dataset_of_other_sizes_exits_2(synth_dataset, checkpoint, tmp_path, capsys):
    ds = str(tmp_path / "ds")
    shutil.copytree(synth_dataset["dir"], ds)
    with open(os.path.join(ds, "entity2id.txt"), "a", encoding="utf-8") as fh:
        fh.write("extra\t30\n")
    assert run(["eval", checkpoint, ds, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: checkpoint was trained for |E|=30, |R|=4; "
                                       "dataset has |E|=31, |R|=4\n")


def test_eval_with_both_paths_disabled_exits_2(synth_dataset, checkpoint, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run(["eval", checkpoint, synth_dataset["dir"], "--out", out,
                "--disable-semantic", "--disable-structural"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not os.path.exists(out)


# header of a bad embedding file for the 30 + 4 ids of the synthetic set,
# and the message it draws
EMBEDDING_FAULTS = {
    "bad header": ("tkg-emb x 34 4\n", "bad header"),
    "header integer int() reads": ("tkg-emb 1 3_4 4\n", "bad header 'tkg-emb 1 3_4 4'"),
    # 30 entity rows of 10**16 float32 values (1.2 EiB) are beyond any memory
    "sizes beyond memory": ("tkg-emb 1 34 10000000000000000\n", "body holds only 0 bytes"),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("fault", sorted(EMBEDDING_FAULTS))
def test_bad_embedding_file_exits_3(fault, command, synth_dataset, checkpoint, tmp_path, capsys):
    header, message = EMBEDDING_FAULTS[fault]
    path = tmp_path / "bad.emb"
    path.write_text(header)
    out = str(tmp_path / "out")
    argv = (["train", synth_dataset["dir"], *micro_flags(out)] if command == "train"
            else ["eval", checkpoint, synth_dataset["dir"], "--out", out])
    assert run([*argv, "--embeddings", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err and err.count("\n") == 1
    assert "bad.emb" in err


def test_embedding_value_beyond_float32_exits_3(synth_dataset, tmp_path, capsys):
    path = str(tmp_path / "wide.emb")
    save_semantic_embeddings(path, synthetic_embeddings(synth_dataset["vocab"], 4, seed=5))
    lines = read(path).splitlines(keepends=True)
    lines[3] = "E\t2\t1 1e39 1 1\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", synth_dataset["dir"], *micro_flags(out), "--embeddings", path]) == 3
    assert capsys.readouterr().err == (f"data error: {path}:4: embedding value beyond the "
                                       f"float32 range\n")


@pytest.mark.parametrize("row_id", ["0_2", "\u0662"])
def test_embedding_id_not_in_ascii_digits_exits_3(row_id, synth_dataset, tmp_path, capsys):
    """An id that int() reads as 2 is refused at its line, not filled into row 2."""
    path = str(tmp_path / "wide.emb")
    save_semantic_embeddings(path, synthetic_embeddings(synth_dataset["vocab"], 4, seed=5))
    lines = read(path).splitlines(keepends=True)
    lines[3] = lines[3].replace("E\t2\t", f"E\t{row_id}\t", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    out = str(tmp_path / "out")
    assert run(["train", synth_dataset["dir"], *micro_flags(out), "--embeddings", path]) == 3
    assert capsys.readouterr().err == (f"data error: {path}:4: id is not an integer: "
                                       f"{row_id!r}\n")


@pytest.mark.parametrize("command", ["stats", "naive"])
def test_vocabulary_beyond_packed_keys_exits_3(command, synth_dataset, tmp_path, capsys,
                                                monkeypatch):
    # 4-bit id fields hold 16 of the set's 30 entities
    monkeypatch.setattr(tkg, "ID_BITS", 4)
    assert run([command, synth_dataset["dir"], "--out", str(tmp_path / "out")]) == 3
    path = os.path.join(synth_dataset["dir"], "entity2id.txt")
    assert capsys.readouterr().err == (f"data error: {path}: 30 entity ids, above the limit "
                                       f"of 16\n")


def test_missing_checkpoint_exits_3(synth_dataset, tmp_path, capsys):
    path = str(tmp_path / "missing.mesh")
    with pytest.raises(tkg.DatasetError):
        training.load_checkpoint(path)
    assert run(["eval", path, synth_dataset["dir"], "--out", str(tmp_path / "ev")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "missing.mesh" in err and err.count("\n") == 1


# each input file: a dataset file, or what the flag or argument names
INPUT_FILES = ["entity2id.txt", "relation2id.txt", "train.txt", "valid.txt", "test.txt",
               "--embeddings", "checkpoint", "--config"]


@pytest.mark.parametrize("name", INPUT_FILES)
def test_unreadable_input_file_exits_in_one_line_naming_it(name, synth_dataset, checkpoint,
                                                           tmp_path, capsys):
    """A directory planted where an input file goes cannot be read, as a
    `chmod 000` file cannot by any user but root: exit 3 (2 for a config
    file, which is configuration) with one line naming it."""
    ds = str(tmp_path / "ds")
    shutil.copytree(synth_dataset["dir"], ds)
    out = str(tmp_path / "out")
    path = os.path.join(ds, name) if name.endswith(".txt") else str(tmp_path / name.strip("-"))
    argv = {"--embeddings": ["eval", checkpoint, ds, "--out", out, "--embeddings", path],
            "checkpoint": ["eval", path, ds, "--out", out],
            "--config": ["stats", ds, "--out", out, "--config", path]
            }.get(name, ["stats", ds, "--out", out])
    if os.path.exists(path):
        os.remove(path)
    os.makedirs(path)
    prefix = "error" if name == "--config" else "data error"
    assert run(argv) == (2 if name == "--config" else 3)
    assert re.fullmatch(rf"{prefix}: cannot read {re.escape(path)} \(.+\)\n",
                        capsys.readouterr().err)


def test_fact_file_without_read_permission_exits_3(synth_dataset, tmp_path, capsys,
                                                   monkeypatch):
    """The `PermissionError` a `chmod 000` fact file raises for any user but root."""
    path = os.path.join(synth_dataset["dir"], "train.txt")

    def guarded_open(file, *args, **kwargs):
        if file == path:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(tkg, "open", guarded_open, raising=False)
    assert run(["stats", synth_dataset["dir"], "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: cannot read {path} (Permission denied)\n"


# each command, and the split that is emptied under it
EMPTY_SPLIT_FAULTS = {
    "eval": ("test", lambda ds, ckpt, out: ["eval", ckpt, ds, "--out", out]),
    "eval --split valid": ("valid", lambda ds, ckpt, out: ["eval", ckpt, ds, "--out", out,
                                                           "--split", "valid"]),
    "naive": ("test", lambda ds, ckpt, out: ["naive", ds, "--out", out]),
    "naive --split valid": ("valid", lambda ds, ckpt, out: ["naive", ds, "--out", out,
                                                            "--split", "valid"]),
    "train": ("valid", lambda ds, ckpt, out: ["train", ds, *micro_flags(out)]),
    "train, no train facts": ("train", lambda ds, ckpt, out: ["train", ds, *micro_flags(out)]),
}


@pytest.mark.parametrize("case", sorted(EMPTY_SPLIT_FAULTS))
def test_empty_split_exits_3(case, synth_dataset, checkpoint, tmp_path, capsys):
    split, argv = EMPTY_SPLIT_FAULTS[case]
    ds = str(tmp_path / "ds")
    shutil.copytree(synth_dataset["dir"], ds)
    open(os.path.join(ds, f"{split}.txt"), "w").close()
    code = run(argv(ds, checkpoint, str(tmp_path / "out")))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("epochs", [("0", "2"), ("2", "0"), ("2", "2")],
                         ids=["stage1_only", "stage0_only", "both"])
def test_training_split_emptied_by_drop_history_exits_3(epochs, tiny_dataset_dir, tmp_path,
                                                        capsys):
    """`--drop-history 1` leaves no training fact: any epoch asked for is
    refused in one line before a checkpoint or a log is written, rather
    than written untrained with a loss of 0 from a run that took no step."""
    out = str(tmp_path / "out")
    code = run(["train", tiny_dataset_dir, "--out", out, "--drop-history", "1",
                "--epochs-stage0", epochs[0], "--epochs-stage1", epochs[1]])
    assert code == 3
    assert capsys.readouterr().err == ("data error: the train split has no facts; "
                                       "a training epoch would take no step\n")
    assert not os.path.exists(os.path.join(out, "checkpoint.mesh"))
    assert not os.path.exists(os.path.join(out, "training.log"))


def _edit_header(edit):
    """A fault that rewrites the header (and possibly the blob) of a good checkpoint."""
    def fault(raw):
        line, blob = raw.split(b"\n", 1)
        header = json.loads(line)
        blob = edit(header, blob)
        return json.dumps(header).encode() + b"\n" + blob
    return fault


def _set(key, value):
    def edit(header, blob):
        header[key] = value
        return blob
    return _edit_header(edit)


def _set_spec(key, value):
    def edit(header, blob):
        header["spec"][key] = value
        return blob
    return _edit_header(edit)


def _drop_spec_key(header, blob):
    del header["spec"]["dim"]
    return blob


def _set_config(key, value):
    def edit(header, blob):
        header["config"][key] = value
        return blob
    return _edit_header(edit)


def _drop_config_key(header, blob):
    del header["config"]["synthetic_seed"]
    return blob


def _first_param_bytes(header, blob):
    return blob[:4 * math.prod(header["params"][0]["shape"])]


def _omit_param(header, blob):
    first = _first_param_bytes(header, blob)
    del header["params"][0]
    return blob[len(first):]


def _repeat_param(header, blob):
    first = _first_param_bytes(header, blob)
    header["params"].append(header["params"][0])
    return blob + first


def _swap_kernels(header, blob):
    """Exchange the manifest entries of the two decoders' same-shape kernels;
    the blob and its checksum stay as written."""
    names = [entry["name"] for entry in header["params"]]
    i, j = names.index("decoder_g.kernels"), names.index("decoder_l.kernels")
    params = header["params"]
    assert params[i]["shape"] == params[j]["shape"]
    params[i], params[j] = params[j], params[i]
    return blob


def _nan_parameter(header, blob):
    """A NaN as the first stored value, with the checksum written to match."""
    blob = np.array(np.nan, "<f4").tobytes() + blob[4:]
    header["sha256"] = hashlib.sha256(blob).hexdigest()
    return blob


def _drop_checksum(header, blob):
    del header["sha256"]
    return blob


def _flip_blob_bit(raw):
    line, blob = raw.split(b"\n", 1)
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x10
    return line + b"\n" + bytes(flipped)


CHECKPOINT_FAULTS = {
    "truncated header": lambda raw: raw[:40],
    "non-utf8 header": lambda raw: b"\xff\xfe" + raw,
    "wrong magic": _set("format", "npz"),
    "wrong version": _set("version", 1),
    "version 2, one gate tensor per expert": _set("version", 2),
    "missing spec key": _edit_header(_drop_spec_key),
    "spec dtype outside DTYPES": _set_spec("dtype", "float16"),
    "spec gate input outside CHOICES": _set_spec("gate_input", "both"),
    "spec window below zero": _set_spec("window", -1),
    "spec window other than the config's": _set_spec("window", 9),
    "spec dropout beyond 1": _set_spec("dropout", 7.0),
    "version 3, no payload checksum": _set("version", 3),
    "missing checksum": _edit_header(_drop_checksum),
    # 2**50 entities are beyond any memory; the manifest still fits the blob
    "spec sizes beyond memory": _set_spec("num_entities", 2**50),
    "negative spec size": _set_spec("num_entities", -5),
    # refused before the spec's 10**6-row entity table is allocated
    "spec larger than the manifest": _set_spec("num_entities", 10**6),
    "short blob": lambda raw: raw[:-4],
    "flipped blob bit": _flip_blob_bit,
    "over-long blob": lambda raw: raw + bytes(4),
    "omitted parameter": _edit_header(_omit_param),
    "repeated parameter": _edit_header(_repeat_param),
    "two same-shape parameters swapped in the manifest": _edit_header(_swap_kernels),
    "non-finite parameter with a matching checksum": _edit_header(_nan_parameter),
    "stored config value out of range": _set_config("dropout", 1.5),
    "stored config value of the wrong type": _set_config("dim", "32"),
    "stored config with an unknown key": _set_config("dimension", 32),
    "stored config missing a key": _edit_header(_drop_config_key),
    "stored config not an object": _set("config", ["desk"]),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_bad_checkpoint_exits_3(fault, synth_dataset, train_dir, tmp_path, capsys):
    with open(os.path.join(train_dir, "checkpoint.mesh"), "rb") as fh:
        raw = fh.read()
    path = str(tmp_path / "bad.mesh")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_FAULTS[fault](raw))
    with pytest.raises(tkg.DatasetError):
        training.load_checkpoint(path)
    code = run(["eval", path, synth_dataset["dir"], "--out", str(tmp_path / "ev")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "bad.mesh" in err and err.count("\n") == 1


@pytest.mark.parametrize("fault", [None, "spec larger than the manifest"])
def test_load_checkpoint_memory_is_bounded_by_the_file(fault, train_dir, tmp_path):
    """Loading allocates about the file twice over (its bytes, then the
    parameters), whatever sizes the spec claims: the spec is checked
    against the manifest before any parameter is allocated."""
    with open(os.path.join(train_dir, "checkpoint.mesh"), "rb") as fh:
        raw = fh.read()
    path = str(tmp_path / "model.mesh")
    with open(path, "wb") as fh:
        fh.write(raw if fault is None else CHECKPOINT_FAULTS[fault](raw))
    tracemalloc.start()
    try:
        try:
            training.load_checkpoint(path)
        except tkg.DatasetError:
            assert fault is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * os.path.getsize(path), (peak, os.path.getsize(path))


def rewrite_facts(directory, splits, change):
    """Rewrite each `s<TAB>r<TAB>o<TAB>t` line of the `splits` fact files of
    `directory` in place as the four ids `change(s, r, o, t)` gives."""
    for split in splits:
        path = os.path.join(directory, f"{split}.txt")
        facts = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2).tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines("\t".join(map(str, change(*fact))) + "\n" for fact in facts)


def written(cwd, commands, monkeypatch, capsys):
    """The stdout of each CLI command of `commands`, run in the new
    directory `cwd`, and the bytes of every file they write there, by
    relative path."""
    os.makedirs(cwd)
    monkeypatch.chdir(cwd)
    out = {}
    for argv in commands:
        assert run(argv) == 0
        out[tuple(argv)] = capsys.readouterr().out
    for root, _, names in os.walk("."):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                out[os.path.join(root, name)] = fh.read()
    return out


def test_training_never_reads_the_test_split(synth_dataset, tmp_path, monkeypatch, capsys):
    """`train` loads all three splits, but redrawing the subject and object
    of every test fact leaves every byte it writes as it was: training.log,
    config.echo and the checkpoint, header and parameters."""
    ds = str(tmp_path / "ds")
    shutil.copytree(synth_dataset["dir"], ds)
    commands = [["train", ds, *micro_flags("train")]]
    before = written(tmp_path / "a", commands, monkeypatch, capsys)
    test_file = read(os.path.join(ds, "test.txt"))
    gen = np.random.default_rng(19)
    rewrite_facts(ds, ["test"], lambda s, r, o, t: (gen.integers(30), r, gen.integers(30), t))
    assert read(os.path.join(ds, "test.txt")) != test_file
    assert written(tmp_path / "b", commands, monkeypatch, capsys) == before


def test_gaps_in_time_are_invisible(synth_dataset, tmp_path, monkeypatch, capsys):
    """Timestamps act only through their dense rank: mapping every raw
    timestamp t to 2t + 7 in all three fact files leaves every byte that
    stats, naive, train and eval print and write as it was."""
    ds = str(tmp_path / "ds")
    shutil.copytree(synth_dataset["dir"], ds)
    commands = [["stats", ds, "--out", "stats"], ["naive", ds, "--out", "naive"],
                ["train", ds, *micro_flags("train")],
                ["eval", os.path.join("train", "checkpoint.mesh"), ds, "--out", "eval"]]
    before = written(tmp_path / "a", commands, monkeypatch, capsys)
    train_file = read(os.path.join(ds, "train.txt"))
    rewrite_facts(ds, ["train", "valid", "test"], lambda s, r, o, t: (s, r, o, 2 * t + 7))
    assert read(os.path.join(ds, "train.txt")) != train_file
    assert written(tmp_path / "b", commands, monkeypatch, capsys) == before
