"""Command-line entry point.

Subcommands are the keys of `COMMANDS`. Exit codes: 0 success, 2
configuration error, 3 data error, 4 numeric failure. Configuration
layering (profile < config file < MESH_* environment < flags) lives in
`config`; every command writes the fully resolved configuration to
`<out>/config.echo`. A command that reports results writes its result
records to `<out>/results.json`, which `json.load` reads back, then prints
its tables on stdout, all in one layout (`text_table`); `sweep` prints each
setting's row once that setting's run is saved. Every output file goes
through `tkg.write_file`, whose WriteError is the one-line exit 2, and every
input file through `tkg.read_file`, whose DatasetError is the one-line exit
3 (2 for a `--config` file).

Each RunConfig field but the positional dataset is one flag. `eval` and
`analyze` are one command that differs only in what it prints, and `train`
and `sweep` share one training run (`_train_run`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, astuple, fields, replace

from . import config as cfg
from . import evaluation as ev
from . import history, tkg, training
from .autodiff import NumericError
from .encoders import emit_prompts, load_semantic_embeddings, synthetic_embeddings
from .model import AblationConfig
from .tkg import DatasetError


class CliError(Exception):
    """Configuration-level failure (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line on stderr, without the usage block."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


# eval and analyze take the switches of the forward pass only, from the
# environment and the flags; --out is a flag alone, since a MESH_OUT set for
# a training run names that run's own directory
EVAL_KEYS = ("dataset", "embeddings", *(f.name for f in fields(AblationConfig)))
EVAL_FLAGS = ("out", *EVAL_KEYS[1:])


def _add_config_flags(parser: argparse.ArgumentParser, names=None) -> None:
    """One flag per RunConfig field (every one but `dataset`, or `names`),
    of the field's type and, for an enumerated field, its value set."""
    for f in fields(cfg.RunConfig):
        if f.name == "dataset" or (names is not None and f.name not in names):
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, action="store_const", const=True)
        else:
            parser.add_argument(flag, type={"int": int, "float": float}.get(f.type),
                                choices=cfg.CHOICES.get(f.name))


def _resolve(args) -> cfg.RunConfig:
    """The run configuration: profile, --config file, environment, then
    every config flag given (the positional dataset among them)."""
    flag_values = {
        name: getattr(args, name)
        for name in cfg.RunConfig.__dataclass_fields__
        if getattr(args, name, None) is not None
    }
    try:
        return cfg.resolve(flag_values, config_file=getattr(args, "config", None))
    except (ValueError, DatasetError) as exc:  # a config file is configuration
        raise CliError(str(exc))


def _write_echo(config: cfg.RunConfig) -> None:
    tkg.write_file(os.path.join(config.out, "config.echo"), [config.echo()])


def _load_data(config: cfg.RunConfig):
    vocab, train, valid, test = tkg.load_dataset(config.dataset)
    if config.max_timestamps:
        vocab, train, valid, test = tkg.truncate_and_resplit(
            vocab, train, valid, test, config.max_timestamps
        )
    if config.drop_history > 0.0:
        train = tkg.drop_history_fraction(train, config.drop_history, config.seed)
    return vocab, train, valid, test


def _semantic_table(config: cfg.RunConfig, vocab):
    """The semantic rows and the configuration whose `llm_dim` records their
    width, which sizes the adapters whatever width was asked for."""
    if config.embeddings:
        sem = load_semantic_embeddings(config.embeddings, vocab)
    else:
        sem = synthetic_embeddings(vocab, config.llm_dim, config.synthetic_seed)
    return replace(config, llm_dim=sem.dim), sem


def write_results(out: str, records) -> None:
    """`<out>/results.json`: the result dataclasses in `records` as JSON
    objects of their fields (an empty bucket's metrics are null, an infinite
    t statistic is `Infinity`)."""
    tkg.write_file(os.path.join(out, "results.json"),
                   [json.dumps(records, indent=1, default=asdict) + "\n"])


def _eval_records(result: ev.EvalResult) -> dict:
    return {**dict(result.named_reports()), "gates": result.gate_stats}


def text_table(rows, note: str = "") -> str:
    """The one layout of the stdout tables: each column left-aligned to its
    widest cell, columns two blanks apart, trailing blanks cut; a row may
    end before the last column. A note follows in parentheses on its own
    line."""
    widths = [max(map(len, column)) for column in itertools.zip_longest(*rows, fillvalue="")]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    return "".join(line + "\n" for line in lines + ([f"({note})"] if note else []))


def _fixed(value, digits: int, scale: float = 1.0) -> str:
    return "n/a" if value is None else f"{scale * value:.{digits}f}"


def _metrics_table(named_reports) -> str:
    rows = [["bucket", "queries", "MRR", "H@1", "H@3", "H@10"]]
    for name, m in named_reports:
        rows.append([name, str(m.count),
                     *(_fixed(v, 2, 100.0) for v in (m.mrr, m.hits1, m.hits3, m.hits10))])
    empty = [name for name, m in named_reports if not m.count]
    return text_table(rows, f"empty bucket: {', '.join(empty)}" if empty else "")


# ---------------------------------------------------------------------------
# subcommands

def cmd_prepare(args) -> int:
    config = _resolve(args)
    _write_echo(config)
    vocab, train, valid, test = _load_data(config)
    out_dir = os.path.join(config.out, "dataset")
    tkg.write_dataset(out_dir, vocab, train, valid, test)
    print(f"normalized dataset written to {out_dir} "
          f"({train.num_facts}/{valid.num_facts}/{test.num_facts} facts, "
          f"{vocab.num_timestamps} timestamps)")
    return 0


def cmd_stats(args) -> int:
    config = _resolve(args)
    _write_echo(config)
    vocab, train, valid, test = _load_data(config)
    report = history.dataset_stats(vocab, train, valid, test)
    # StatsReport's fields in order: seven counts, then the historical rate
    labels = ("|E|", "|R|", "train", "valid", "test", "|T|", "|F_his|")
    rows = [[label, str(count)] for label, count in zip(labels, astuple(report))]
    rate = _fixed(report.historical_rate, 1, 100.0) + "%"
    write_results(config.out, report)
    print(text_table([*rows, ["Rate_his", rate]]), end="")
    return 0


def cmd_naive(args) -> int:
    config = _resolve(args)
    _write_echo(config)
    vocab, train, valid, test = _load_data(config)
    result = ev.evaluate_naive(vocab, train, valid, test, split=args.split)
    write_results(config.out, dict(result.named_reports()))
    print(_metrics_table(result.named_reports()), end="")
    return 0


def cmd_emit_prompts(args) -> int:
    for flag, value in (("--domain", args.domain), ("--datatype", args.datatype)):
        # each prompt is one `kind<TAB>id<TAB>prompt` line of UTF-8
        if any(c in "\t\n\r" or "\ud800" <= c <= "\udfff" for c in value):
            raise CliError(f"{flag} must hold no tab, no line break and no character "
                           f"UTF-8 cannot encode, got {value!r}")
    config = _resolve(args)
    _write_echo(config)
    vocab, _, _, _ = _load_data(config)
    path = os.path.join(config.out, "prompts.tsv")
    count = emit_prompts(vocab, args.domain, args.datatype, path)
    print(f"{count} prompts written to {path}")
    return 0


def _train_run(config: cfg.RunConfig, verbose=None):
    """Train one run into `config.out`: the config echo, `checkpoint.mesh`
    and `training.log`. Returns the result, the data splits and the
    semantic table."""
    data = _load_data(config)
    config, sem = _semantic_table(config, data[0])
    _write_echo(config)
    result = training.train_model(config, *data[:3], sem, verbose=verbose)
    training.save_checkpoint(os.path.join(config.out, "checkpoint.mesh"),
                             result.model, config, result.frozen_names, config.seed)
    tkg.write_file(os.path.join(config.out, "training.log"),
                   [line + "\n" for line in result.log_lines])
    return result, data, sem


def cmd_train(args) -> int:
    config = _resolve(args)
    result, _, _ = _train_run(config, verbose=(print if args.verbose else None))
    best = "n/a" if result.best_valid_mrr is None else f"{result.best_valid_mrr:.6f}"
    print(f"checkpoint written to {os.path.join(config.out, 'checkpoint.mesh')} "
          f"(best valid MRR {best})")
    return 0


def cmd_eval(args) -> int:
    """`eval` prints the metrics, `analyze` the gate statistics; both write
    the same results. Both write to `--out` only, never to the directory
    recorded in the checkpoint, which holds the training run's own
    `config.echo`. The `EVAL_KEYS` of the environment override the
    checkpoint's configuration, and the flags override both."""
    if args.out is None:
        raise CliError(f"{args.command} needs --out, the directory for its results")
    model, header = training.load_checkpoint(args.checkpoint)
    flags = {key: getattr(args, key, None) for key in ("dataset", *EVAL_FLAGS)}
    try:
        layers = cfg.env_overrides(names=EVAL_KEYS)
        layers.update({key: value for key, value in flags.items() if value is not None})
        config = replace(header["config"], **layers)
    except ValueError as exc:
        raise CliError(str(exc))
    if not config.dataset:
        raise CliError("no dataset given and none recorded in the checkpoint")
    vocab, train, valid, test = _load_data(config)
    spec = model.spec
    if vocab.num_entities != spec.num_entities or vocab.num_relations != spec.num_relations:
        raise CliError(
            f"checkpoint was trained for |E|={spec.num_entities}, |R|={spec.num_relations}; "
            f"dataset has |E|={vocab.num_entities}, |R|={vocab.num_relations}"
        )
    config, sem = _semantic_table(config, vocab)
    if sem.dim != spec.llm_dim:
        raise DatasetError(f"{sem.source}: embedding width {sem.dim} does not match the "
                           f"checkpoint's llm_dim {spec.llm_dim}")
    _write_echo(config)
    result = ev.evaluate(model, vocab, train, valid, test, sem,
                         ablation=AblationConfig.from_config(config), split=args.split)
    write_results(config.out, _eval_records(result))
    if args.command == "eval":
        print(_metrics_table(result.named_reports()), end="")
    else:
        g = result.gate_stats
        print(text_table([
            ["alpha_1", "Historical", "Non-Historical"],
            ["Mean", _fixed(g.mean_his, 4), _fixed(g.mean_nhis, 4)],
            ["Std", _fixed(g.std_his, 4), _fixed(g.std_nhis, 4)],
            ["n", str(g.n_his), str(g.n_nhis)],
            ["p-value", _fixed(g.p_value, 6)],
        ], g.note), end="")
    return 0


def cmd_sweep(args) -> int:
    config = _resolve(args)
    if bool(args.omega_list) == bool(args.mn_grid):
        raise CliError("sweep needs exactly one of --omega-list or --mn-grid")
    runs = {}
    for item in filter(None, (args.omega_list or args.mn_grid).split(",")):
        try:
            if args.omega_list:
                omega = float(item) or 0.0  # -0 is the setting 0
                short = f"{omega:g}"  # the tag, unless it reads back as another value
                tag = f"omega_{short if float(short) == omega else repr(omega)}"
                changes = {"omega": omega}
            else:
                m, n = map(int, item.lower().split("x"))
                tag, changes = f"m{m}n{n}", {"num_historical": m, "num_nonhistorical": n}
        except ValueError:
            raise CliError(f"bad --omega-list value: {args.omega_list!r}" if args.omega_list
                           else f"expected MxN (like 2x1), got {item!r}")
        if tag in runs:
            raise CliError(f"sweep repeats the setting {tag}")
        try:
            runs[tag] = replace(config, out=os.path.join(config.out, tag), **changes)
        except ValueError as exc:
            raise CliError(f"sweep setting {tag}: {exc}")
    if not runs:
        raise CliError("sweep needs at least one setting")
    _write_echo(config)
    records = {}
    for tag, run_cfg in runs.items():
        result, data, sem = _train_run(run_cfg)
        eval_result = ev.evaluate(result.model, *data, sem,
                                  ablation=AblationConfig.from_config(run_cfg))
        report = eval_result.overall
        print(f"{tag}\t{100 * report.mrr:.2f}\t{100 * report.hits3:.2f}\t{100 * report.hits10:.2f}")
        records[tag] = _eval_records(eval_result)
    write_results(config.out, records)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meshtkg",
        description="Temporal knowledge graph reasoning: dual-view encoding, "
                    "event-aware expert gating, time-aware evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("dataset", help="dataset directory")
        p.add_argument("--config", help="flat key = value configuration file")
        _add_config_flags(p)

    common(sub.add_parser("prepare", help="validate and normalize a dataset directory"))
    common(sub.add_parser("stats", help="dataset statistics incl. historical share"))
    p = sub.add_parser("naive", help="frequency-ranking baseline")
    common(p)
    p.add_argument("--split", choices=tkg.SPLITS[1:], default="test")
    p = sub.add_parser("emit-prompts", help="write entity/relation prompts")
    common(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--datatype", required=True)
    p = sub.add_parser("train", help="two-stage training run")
    common(p)
    p.add_argument("--verbose", action="store_true")
    for name in ("eval", "analyze"):
        p = sub.add_parser(name, help=f"{name} a trained checkpoint")
        p.add_argument("checkpoint")
        p.add_argument("dataset", nargs="?")
        p.add_argument("--split", choices=tkg.SPLITS[1:], default="test")
        _add_config_flags(p, EVAL_FLAGS)
    p = sub.add_parser("sweep", help="omega or (M,N) hyperparameter sweep")
    common(p)
    p.add_argument("--omega-list", help="comma-separated omega values")
    p.add_argument("--mn-grid", help="comma-separated MxN settings (like 1x1,2x1)")
    return parser


COMMANDS = {
    "prepare": cmd_prepare,
    "stats": cmd_stats,
    "naive": cmd_naive,
    "emit-prompts": cmd_emit_prompts,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_eval,
    "sweep": cmd_sweep,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (CliError, tkg.WriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: the configuration does not fit in memory ({exc})", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
