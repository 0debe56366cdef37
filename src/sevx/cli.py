"""Operator surface: make-data, train, ablate, extract, score, metrics,
analyze, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 runtime numeric failure,
3 missing or corrupt artifact (including a checkpoint whose metadata or
tensors do not decode to a model). SEVERIF_SEED overrides the config seed. Every
command but gradcheck freezes its resolved config under <out>/configs/ for
the audit trail.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis as analysis_mod
from . import tensor as tensor_mod
from .checkpoint import (ContainerError, metadata_to_text, replaced_atomically, write_container,
                         write_rows)
from .config import ConfigError, RunConfig, parse_config_text
from .gradcheck import run_suite
from .metrics import metrics_report, read_trials, score_set_from_files
from .pipeline import (CHECKPOINT_NAME, METRICS_NAME, MissingArtifactError, SCORES_NAME,
                       TRIALS_NAME, corpus_dir, evaluate_checkpoint, extract_embeddings,
                       load_checkpoint, load_corpus, run_ablation, run_training, write_corpus)
from .se import POOLINGS
from .tensor import NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_MISSING = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_run_config(args) -> RunConfig:
    overrides: dict[str, str] = {}
    if args.config:
        if not os.path.exists(args.config):
            raise MissingArtifactError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as f:
            overrides = parse_config_text(f.read())
    if getattr(args, "out", None):
        overrides["out"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    env_seed = os.environ.get("SEVERIF_SEED")
    if env_seed:
        overrides["seed"] = env_seed
    return RunConfig(overrides)


def freeze_config(config: RunConfig, command: str) -> None:
    with replaced_atomically(
            os.path.join(config.out_dir, "configs", f"{command}.resolved.cfg")) as f:
        f.write(config.render())


def _print(msg: str) -> None:
    print(msg, flush=True)


def _checkpoint_path(args, config: RunConfig) -> str:
    return args.checkpoint or os.path.join(config.out_dir, "train", CHECKPOINT_NAME)


# ---- subcommands ------------------------------------------------------------


def cmd_make_data(args, config: RunConfig) -> int:
    cdir = write_corpus(config)
    n = config["data.num_speakers"] * config["data.utts_per_speaker"]
    _print(f"wrote corpus: {n} utterances, {config['data.num_speakers']} speakers -> {cdir}")
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    utts = load_corpus(corpus_dir(config))
    run_dir = os.path.join(config.out_dir, "train")
    result = run_training(config, utts, run_dir, log_fn=_print)
    _print(f"checkpoint -> {result.checkpoint_path}")
    return EXIT_OK


def cmd_ablate(args, config: RunConfig) -> int:
    results = run_ablation(config, args.grid, log_fn=_print)
    _print(f"ablation results -> {results}")
    return EXIT_OK


def cmd_extract(args, config: RunConfig) -> int:
    ckpt = _checkpoint_path(args, config)
    model, _head, _meta = load_checkpoint(ckpt)
    utts = load_corpus(corpus_dir(config))
    emb = extract_embeddings(model, utts)
    path = os.path.join(config.out_dir, "embeddings", "embeddings.sevx")
    write_container(path, metadata_to_text({"embeddings.checkpoint": ckpt}),
                    sorted(emb.items()))
    _print(f"wrote {len(emb)} embeddings -> {path}")
    return EXIT_OK


def cmd_score(args, config: RunConfig) -> int:
    ckpt = _checkpoint_path(args, config)
    trials_path = args.trials or os.path.join(corpus_dir(config), TRIALS_NAME)
    if not os.path.exists(trials_path):
        raise MissingArtifactError(f"trial list not found: {trials_path}")
    trials = read_trials(trials_path)
    utts = load_corpus(corpus_dir(config))
    scores_path = os.path.join(config.out_dir, "scores", SCORES_NAME)
    report = evaluate_checkpoint(ckpt, utts, trials, config.dcf_params(),
                                 scores_path=scores_path)
    _print(f"scores -> {scores_path} (eer={report['eer_percent']}%)")
    return EXIT_OK


def cmd_metrics(args, config: RunConfig) -> int:
    scores_path = args.scores or os.path.join(config.out_dir, "scores", SCORES_NAME)
    trials_path = args.trials or os.path.join(corpus_dir(config), TRIALS_NAME)
    for path in (scores_path, trials_path):
        if not os.path.exists(path):
            raise MissingArtifactError(f"missing input: {path}")
    scoreset = score_set_from_files(trials_path, scores_path)
    report = metrics_report(scoreset, config.dcf_params())
    write_rows(os.path.join(config.out_dir, "metrics", METRICS_NAME), report.items())
    for k, v in report.items():
        _print(f"{k}\t{v}")
    return EXIT_OK


def cmd_analyze(args, config: RunConfig) -> int:
    model, _head, _meta = load_checkpoint(_checkpoint_path(args, config))
    utts = load_corpus(corpus_dir(config))
    records = analysis_mod.capture_excitations(
        model, ((u.utterance_id, u.speaker_id, u.features) for u in utts))
    profiles, dispersion = analysis_mod.across_speaker_profile(records)
    out_dir = os.path.join(config.out_dir, "analysis")
    report = analysis_mod.render_report(profiles, dispersion)
    with replaced_atomically(os.path.join(out_dir, "report.txt")) as f:
        f.write(report)
    with replaced_atomically(os.path.join(out_dir, "analysis.tsv")) as f:
        f.write(analysis_mod.profiles_to_tsv(profiles))
    _print(report.rstrip("\n"))
    _print(f"analysis -> {out_dir}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    results = run_suite(seeds=tuple(range(args.seeds)))
    failures = 0
    for r in results:
        _print(r.line())
        failures += 0 if r.passed else 1
    _print(f"gradcheck: {len(results) - failures}/{len(results)} passed")
    if failures:
        raise NumericError(f"{failures} gradient check(s) failed")
    return EXIT_OK


# ---- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="sevx", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sequential", action="store_true",
                        help="bit-exact single-thread mode")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="config file of dotted key = value lines")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--seed", type=int, help="override seed")
        p.set_defaults(fn=fn)
        return p

    add("make-data", cmd_make_data, help="generate the synthetic corpus + trial list")
    add("train", cmd_train, help="train a model on the corpus")
    p = add("ablate", cmd_ablate, help="sweep an SE configuration grid")
    p.add_argument("--grid", required=True,
                   help=f"e.g. 'stages=1|1,2|1,2,3|1,2,3,4' or 'pooling={'|'.join(POOLINGS)}'")
    p = add("extract", cmd_extract, help="extract embeddings for the corpus")
    p.add_argument("--checkpoint")
    p = add("score", cmd_score, help="score the trial list with a checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--trials")
    p = add("metrics", cmd_metrics, help="EER / minDCF from score + trial files")
    p.add_argument("--scores")
    p.add_argument("--trials")
    p = add("analyze", cmd_analyze,
            help="excitation-distribution analysis of the last SE unit of each stage")
    p.add_argument("--checkpoint")
    # no abbreviations here: --seed must not silently mean --seeds
    p = sub.add_parser("gradcheck", allow_abbrev=False, help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds, >= 1")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    was_sequential = tensor_mod.is_sequential()
    try:
        args = parser.parse_args(argv)
        if args.sequential and not tensor_mod.set_sequential(True):
            print("warning: --sequential found neither threadpoolctl nor numpy's OpenBLAS to pin; "
                  "set OPENBLAS_NUM_THREADS=1 before starting for bit-exact reruns",
                  file=sys.stderr)
        if args.fn is cmd_gradcheck:
            return cmd_gradcheck(args)
        config = load_run_config(args)
        freeze_config(config, args.command)
        return args.fn(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ContainerError as exc:
        print(f"corrupt artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        tensor_mod.set_sequential(was_sequential)


def entry() -> None:
    sys.exit(main())
