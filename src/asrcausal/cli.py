"""Command-line pipeline: composable subcommands over persisted
artifacts, with deterministic outputs.

Exit codes: 0 success, 1 data error (a structured error record goes to
stderr), 2 usage error.  Stages with an ``--out`` leave a stamp next to
it (``.<name>.stamp``) holding the package version, their options and
the files they wrote, and skip recomputation when the stamp holds the
current version and options, every file it lists exists and no input is
newer than those files (override with ``--force``); outputs are written
through a temporary file and renamed into place (``ingest.replacing``),
a dataset and its sidecar by ``causal.write_dataset``.  Every stage runs
serially, in input order.

Each subcommand imports the modules it runs, ``ingest`` included, after
its freshness check.  So ``--help`` and an up-to-date skip load only
this module, ``errors`` and the standard-library modules they import at
the top (argparse, json, pathlib and the like): no NumPy, and none of
``ingest``'s dataclasses.  Stage functions are called as module
attributes (``causal_mod.fit_cpts``, ``ingest.write_report``), so
wrappers installed on the modules see every call.

The ``asrcausal`` console script and ``python -m asrcausal.cli`` run
``console``: ``main``, then a flush of stdout and stderr, then
``os._exit`` with the exit code, which skips the interpreter's teardown
of every module and object.  That is safe because every output is
written and renamed into place before ``main`` returns, and the package
registers no atexit handler, thread or logger.  A flush that fails is
an ``E_IO`` record and exit 1; an unexpected exception still ends the
usual way, with a traceback.  ``main`` itself returns its exit code, so
callers of it keep a normal teardown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, TextIO

from . import __version__
from .errors import IoError, SchemaError, TooFewValuesError, ToolkitError

if TYPE_CHECKING:
    from . import causal as causal_mod
    from . import ingest, synthetic

_BUILTIN_GRAPHS = ("paper-default", "fig3e")
_BUILTIN_SCMS = ("paper-shaped", "copy-chain")

# Node -> record field for the nine-variable analysis layout.
_CATEGORICAL_SOURCES = {"Age": "grade", "Gender": "gender"}
_BINNED_SOURCES = {"SNR": "snr_db", "VocabDiff": "vocab_difficulty",
                   "NoWords": "word_count", "GoP": "gop"}
_DEFAULT_METHODS = {"SNR": "quantile", "VocabDiff": "kde",
                    "NoWords": "quantile", "GoP": "sigma"}
# Error node -> score count; its rate is binned by quantile unless --bin
# names another method
_ERROR_RATES = {"SubsErr": "substitutions", "DelErr": "deletions",
                "InsErr": "insertions"}


class _Once(argparse.Action):
    """Reject a flag given more than once (mutually exclusive sources)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, f"_{self.dest}_seen", False):
            parser.error(f"{option_string} given more than once")
        setattr(namespace, f"_{self.dest}_seen", True)
        setattr(namespace, self.dest, values)


def _positive_int(text: str) -> int:
    """argparse type: an integer above 0."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer above 0")
    return value


def _alpha(text: str) -> float:
    """argparse type: a finite number >= 0 (0 is no smoothing)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number >= 0")
    return value


def parse_args(argv) -> argparse.Namespace:
    """Validated run configuration; unknown flags exit 2 via argparse."""
    parser = argparse.ArgumentParser(
        prog="asrcausal",
        description="ASR error decomposition and causal-strength analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_force(p):
        p.add_argument("--force", action="store_true",
                       help="recompute even when the output is fresh")

    p = sub.add_parser("synth", help="generate a dataset from an SCM spec")
    p.add_argument("--spec", required=True,
                   help="builtin name (paper-shaped, copy-chain) or file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--truths", default=None,
                   help="also write enumerated per-edge ACE/CMI ground truth")
    add_force(p)

    p = sub.add_parser("align", help="score hypotheses per record and model")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--models", default=None,
                   help="comma-separated; default: all models on the records")
    add_force(p)

    p = sub.add_parser("covariates",
                       help="fill gop, vocab_difficulty, snr_db, word_count")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--freq-table", action="append", default=[],
                   help="word,count CSV; repeatable, pooled by summation")
    p.add_argument("--posteriors", default=None)
    p.add_argument("--segments", default=None)
    p.add_argument("--inventory", default=None)
    p.add_argument("--floor-posteriors", action="store_true",
                   help="clamp zero posteriors at 1e-10 instead of failing")
    p.add_argument("--audio-dir", default=None)
    p.add_argument("--sample-rate", type=_positive_int, default=None,
                   help="required for headerless .raw PCM")
    add_force(p)

    p = sub.add_parser("discretize",
                       help="fit/apply binning and assemble a dataset")
    p.add_argument("--records", required=True)
    p.add_argument("--scores", default=None)
    p.add_argument("--model", default=None,
                   help="model whose scores become the error columns")
    p.add_argument("--out", required=True)
    p.add_argument("--schemes-out", default=None)
    p.add_argument("--schemes-in", default=None,
                   help="re-apply persisted schemes instead of fitting")
    p.add_argument("--bin", action="append", default=[],
                   metavar="VAR=METHOD",
                   help="override method (sigma, kde, quantile) per node")
    add_force(p)

    p = sub.add_parser("oracle", help="per-utterance best-model selection")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    add_force(p)

    p = sub.add_parser("correlate", help="model-pair WER correlation matrix")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--by-grade", action="store_true",
                   help="one matrix per grade next to --out")
    add_force(p)

    p = sub.add_parser("fit", help="fit conditional probability tables")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--graph", action=_Once, default="paper-default")
    p.add_argument("--alpha", type=_alpha, default=1.0)
    p.add_argument("--out", required=True)
    add_force(p)

    p = sub.add_parser("ace", help="average causal effect of one edge")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--graph", action=_Once, default="paper-default")
    p.add_argument("--treatment", required=True)
    p.add_argument("--effect", required=True)
    p.add_argument("--lo", default=None)
    p.add_argument("--hi", default=None)
    p.add_argument("--on-empty", choices=("error", "skip"), default="error")
    p.add_argument("--out", default=None)

    p = sub.add_parser("cmi", help="conditional mutual information")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--graph", action=_Once, default=None,
                   help="condition on the effect's other parents")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default=None, help="comma-separated; overrides --graph")
    p.add_argument("--alpha", type=_alpha, default=1.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="per-edge ACE/CMI report")
    p.add_argument("--in", dest="inp", action="append", required=True,
                   metavar="[NAME=]DATASET",
                   help="repeatable; NAME defaults to the file stem")
    p.add_argument("--graph", action=_Once, default="paper-default")
    p.add_argument("--alpha", type=_alpha, default=1.0)
    p.add_argument("--on-empty", choices=("error", "skip"), default="error")
    p.add_argument("--records", default=None,
                   help="add per-grade error tables to the report")
    p.add_argument("--scores", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-dir", default=None)
    add_force(p)

    return parser.parse_args(argv)


def _hidden(path: str, suffix: str) -> Path:
    """The hidden file ``.<name>.<suffix>`` next to ``path``."""
    target = Path(path)
    return target.with_name(f".{target.name}.{suffix}")


def _config_key(config) -> dict:
    """The options that can change a stage's output bytes, in canonical
    JSON form: all of them except ``--force``."""
    return json.loads(json.dumps(
        {k: v for k, v in vars(config).items()
         if k != "force" and not k.startswith("_")},
        sort_keys=True))


def _is_fresh(config, inputs) -> bool:
    """True when the stamp next to ``--out`` holds the current package
    version and options, every output it lists exists, and no input is
    newer than the oldest of them.  Input contents are not hashed.  A
    stamp that cannot be read (nested too deeply included) is not fresh."""
    if config.force:
        return False
    stamp = _hidden(config.out, "stamp")
    try:
        doc = json.loads(stamp.read_text())
        if (doc["version"] != __version__
                or doc["config"] != _config_key(config)):
            return False
        oldest = min(os.path.getmtime(p) for p in [stamp, *doc["outputs"]])
        return all(os.path.getmtime(p) <= oldest for p in inputs if p)
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return False


@contextmanager
def _reading(path: str) -> Iterator[TextIO]:
    """``path`` opened as text.  A file that cannot be opened or read is
    IoError, and bytes that do not decode, read in the body, SchemaError,
    each naming the file, as a dataset's are."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot decode {path}: {exc.reason}") from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None


def _read_text(path: str) -> str:
    with _reading(path) as fh:
        return fh.read()


def _write_text(path: str, pieces: Iterable[str]) -> str:
    """Write the str ``pieces`` one after another, so the text is never
    held whole.  Returns ``path``."""
    from . import ingest

    with ingest.replacing(path) as fh:
        fh.writelines(pieces)
    return path


def _read_records(path: str):
    from . import ingest

    with _reading(path) as fh:
        return ingest.parse_utterances(fh)


def _graph_inputs(value: str) -> list[str]:
    """Freshness inputs of a ``--graph`` value: the file, unless builtin."""
    return [] if value in _BUILTIN_GRAPHS else [value]


def _dir_inputs(path: str | None) -> list[str]:
    """Freshness inputs of a directory: itself, so adding or removing a
    file counts, and each file in it.  A directory given that is missing
    or not a directory is IoError naming it."""
    if not path:
        return []
    try:
        with os.scandir(path) as entries:
            return [path, *(e.path for e in entries if e.is_file())]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None


def _load_graph(value: str) -> ingest.CausalGraph:
    from . import ingest

    if value in _BUILTIN_GRAPHS:
        return ingest.CausalGraph.builtin(value)
    return ingest.CausalGraph.from_document(ingest.load_json(_read_text(value)))


def _load_scm(value: str, n, seed) -> synthetic.ScmSpec:
    from . import synthetic

    spec = (synthetic.builtin_scm_spec(value) if value in _BUILTIN_SCMS
            else synthetic.parse_scm_spec(_read_text(value)))
    if n is not None:
        spec.n = n
    if seed is not None:
        spec.seed = seed
    return spec


# --- subcommands ---------------------------------------------------------------

def _cmd_synth(config) -> list[str]:
    from . import causal as causal_mod
    from . import ingest, synthetic

    spec = _load_scm(config.spec, config.n, config.seed)
    written = causal_mod.write_dataset(config.out, synthetic.generate(spec))
    if config.truths:
        written.append(_write_text(config.truths, [ingest.write_report(
            {"edges": synthetic.true_edges(spec)})]))
    return written


def _cmd_align(config) -> list[str]:
    from . import alignment

    records = _read_records(config.inp)
    if config.models:
        models = [m for m in config.models.split(",") if m]
    else:
        models = sorted({m for r in records for m in r.hypotheses})
    return [_write_text(config.out,
                        [alignment.score_table(records, models).to_jsonl()])]


def _gop_scores(config) -> dict[str, float]:
    """Utterance id -> GoP from the posterior, segment and inventory
    files; the posterior arrays are dropped on return."""
    from . import covariates, ingest

    if not (config.posteriors or config.segments or config.inventory):
        return {}
    if not (config.posteriors and config.segments and config.inventory):
        raise SchemaError("gop needs --posteriors, --segments and "
                          "--inventory together")
    inventory = ingest.load_json(_read_text(config.inventory))
    with _reading(config.posteriors) as fh:
        frames = covariates.parse_posterior_frames(fh, inventory)
    with _reading(config.segments) as fh:
        segments = covariates.parse_segments(fh, inventory)
    return {utt_id: covariates.gop_utterance(
                segs, frames.get(utt_id, covariates.NO_FRAMES),
                floor=config.floor_posteriors).utterance
            for utt_id, segs in segments.items()}


def _cmd_covariates(config) -> list[str]:
    from . import alignment, covariates, ingest

    records = _read_records(config.inp)

    freq = None
    if config.freq_table:
        tables = [ingest.parse_frequency_table(_read_text(p))
                  for p in config.freq_table]
        freq = ingest.merge_frequency_tables(tables)

    gop_scores = _gop_scores(config)

    def enrich(record):
        if record.word_count is None:
            record.word_count = covariates.word_count(record.reference)
        if record.vocab_difficulty is None and freq is not None:
            tokens = alignment.normalize_text(record.reference)
            if tokens:
                record.vocab_difficulty = covariates.sentence_difficulty(
                    tokens, freq)
        if record.gop is None and record.id in gop_scores:
            record.gop = gop_scores[record.id]
        if record.snr_db is None and config.audio_dir:
            for ext in (".wav", ".raw"):
                path = os.path.join(config.audio_dir, record.id + ext)
                if os.path.exists(path):
                    samples, rate = covariates.read_audio(
                        path, config.sample_rate)
                    record.snr_db = covariates.estimate_snr(samples, rate)
                    break
        return record

    enriched = [enrich(record) for record in records]
    return [_write_text(config.out, ingest.utterance_lines(enriched))]


def _parse_bin_overrides(pairs) -> dict[str, str]:
    methods = dict(_DEFAULT_METHODS)
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"--bin expects VAR=METHOD, got {pair!r}")
        var, method = pair.split("=", 1)
        if var not in _BINNED_SOURCES and var not in _ERROR_RATES:
            raise SchemaError(f"--bin: {var!r} is not a binned node, one of "
                              f"{[*_BINNED_SOURCES, *_ERROR_RATES]}")
        if method not in ("sigma", "kde", "quantile"):
            raise SchemaError(f"unknown binning method {method!r}")
        methods[var] = method
    return methods


def _fit_or_reuse(variable, values, method, persisted):
    if persisted is not None and variable in persisted:
        return persisted[variable]
    from . import discretize

    if method == "sigma":
        return discretize.fit_sigma_bins(values, variable)
    if method == "kde":
        return discretize.fit_kde_bins(values, 3, variable)
    return discretize.fit_quantile_bins(values, 3, variable)


def _cmd_discretize(config) -> list[str]:
    import numpy as np

    from . import alignment
    from . import causal as causal_mod
    from . import discretize, ingest

    methods = _parse_bin_overrides(config.bin)
    records = _read_records(config.records)
    persisted = None
    if config.schemes_in:
        persisted = discretize.parse_schemes(_read_text(config.schemes_in))

    if config.scores and not config.model:
        raise SchemaError("--scores requires --model")

    for record in records:
        for node, field in {**_CATEGORICAL_SOURCES,
                            **_BINNED_SOURCES}.items():
            if getattr(record, field) is None:
                raise SchemaError(f"record lacks {field!r} needed for {node}",
                                  record_id=record.id)
    results = None
    if config.scores:
        with _reading(config.scores) as fh:
            table = alignment.ScoreTable.read(fh, records, (config.model,))
        results = [row[config.model] for row in table.rows]

    graph_categories = ingest.CausalGraph.builtin("paper-default").categories
    # node -> graph codes; ingest admits only the graph's grades and genders
    columns = {node: np.array([graph_categories[node].index(getattr(r, field))
                               for r in records], dtype=np.intp)
               for node, field in _CATEGORICAL_SOURCES.items()}
    schemes = []

    def bin_column(node, values, method):
        scheme = _fit_or_reuse(node, values, method, persisted)
        cats = graph_categories[node]
        # the scheme's codes index the graph's categories, so its labels
        # must be among them and in their order
        if [c for c in cats if c in scheme.labels] != list(scheme.labels):
            raise SchemaError(f"{node}: scheme labels {list(scheme.labels)} "
                              f"are not, in order, among the graph's "
                              f"categories {list(cats)}")
        schemes.append(scheme)
        graph_codes = np.array([cats.index(label) for label in scheme.labels])
        columns[node] = graph_codes.take(
            discretize.apply_bins_array(scheme, values))

    for node, field in _BINNED_SOURCES.items():
        bin_column(node, [float(getattr(r, field)) for r in records],
                   methods[node])

    continuous = {}
    if results is not None:
        for node, key in _ERROR_RATES.items():
            values = [100.0 * getattr(r, key) / r.ref_len for r in results]
            bin_column(node, values, methods.get(node, "quantile"))
            continuous[node] = values

    codes = np.column_stack(list(columns.values()))
    written = causal_mod.write_dataset(config.out, causal_mod.DiscreteDataset(
        list(columns), graph_categories, codes, continuous))
    if config.schemes_out:
        written.append(_write_text(config.schemes_out,
                                   [discretize.write_schemes(schemes)]))
    return written


def _cmd_oracle(config) -> list[str]:
    from . import alignment, ingest

    table = alignment.score_table(_read_records(config.inp))
    # first, so a mixed model set fails as such, not as a missing model
    choice = table.oracle_select()
    models = sorted(table.rows[0]) if table.rows else []
    aggregates = {m: table.aggregate(m)[0].to_dict() for m in models}
    if table.rows:
        aggregates["oracle"] = table.oracle_aggregate().to_dict()
    report = {"choice": choice, "aggregates": aggregates}
    return [_write_text(config.out, [ingest.write_report(report)])]


def _correlation_csv(models, matrix) -> str:
    from . import ingest

    return ingest.emit_plot_data(
        {"correlation": {"models": models, "matrix": matrix}})["correlation.csv"]


def _cmd_correlate(config) -> list[str]:
    from . import alignment, ingest

    records = _read_records(config.inp)
    if not config.by_grade:
        return [_write_text(config.out, [_correlation_csv(
            *alignment.score_table(records).correlation())])]
    graded = alignment.score_table(r for r in records if r.grade is not None)
    # every grade's matrix before any file, so a failing grade writes none
    csvs = {}
    for grade in sorted({r.grade for r in graded.records},
                        key=ingest.GRADES.index):
        try:
            csvs[grade] = _correlation_csv(*graded.where(
                lambda r, g=grade: r.grade == g).correlation())
        except TooFewValuesError as exc:
            raise TooFewValuesError(f"grade {grade}: {exc}") from None
    out = Path(config.out)
    return [_write_text(str(out.with_name(f"{out.stem}_{g}{out.suffix}")),
                        [text]) for g, text in csvs.items()]


def _cmd_fit(config) -> list[str]:
    from . import causal as causal_mod
    from . import ingest

    graph = _load_graph(config.graph)
    # no name holds the dataset, so its arrays are freed before the
    # report text is built
    cpts = causal_mod.fit_cpts(graph, causal_mod.load_dataset(config.inp),
                               config.alpha)
    doc = {}
    for node, table in cpts.items():
        rows = table.counts.reshape(-1, len(table.categories))
        # nonzero parent configurations only; a root node always has its row
        keep = rows.any(axis=-1) | (not table.parents)
        configs = compress(map("|".join, table.parent_configs()),
                           keep.tolist())
        doc[node] = {
            "parents": list(table.parents),
            "alpha": table.alpha,
            "counts": dict(zip(configs, rows[keep].tolist())),
        }
    return [_write_text(config.out, [ingest.write_report(doc)])]


def _emit(config, payload: dict) -> int:
    from . import ingest

    text = ingest.write_report(payload)
    if config.out:
        _write_text(config.out, [text])
    else:
        try:
            sys.stdout.write(text)
        except OSError as exc:  # unbuffered, the write itself fails
            raise IoError(f"cannot write standard output: {exc}") from None
    return 0


def _cmd_ace(config) -> int:
    from . import causal as causal_mod

    graph = _load_graph(config.graph)
    data = causal_mod.load_dataset(config.inp)
    value = causal_mod.ace(graph, data, config.treatment, config.effect,
                           config.lo, config.hi, on_empty=config.on_empty)
    return _emit(config, {
        "treatment": config.treatment,
        "effect": config.effect,
        "lo": config.lo or graph.categories[config.treatment][0],
        "hi": config.hi or graph.categories[config.treatment][-1],
        "ace": value,
        "ace_normalized": causal_mod.ace_per_level(graph, config.treatment,
                                                   value),
    })


def _cmd_cmi(config) -> int:
    from . import causal as causal_mod

    data = causal_mod.load_dataset(config.inp)
    if config.z is not None:
        z = [v for v in config.z.split(",") if v]
    elif config.graph is not None:
        graph = _load_graph(config.graph)
        z = [p for p in graph.parents(config.y) if p != config.x]
    else:
        z = []
    value = causal_mod.conditional_mutual_information(
        data, config.x, config.y, z, alpha=config.alpha)
    return _emit(config, {"x": config.x, "y": config.y, "z": z,
                          "alpha": config.alpha, "cmi": value})


def _named_datasets(config) -> list[tuple[str, str]]:
    """``report --in [NAME=]DATASET`` values as (name, path) pairs; a name
    given twice, even by two file stems, is SchemaError."""
    named = {}
    for entry in config.inp:
        if "=" in entry:
            name, path = entry.split("=", 1)
        else:
            name, path = Path(entry).stem, entry
        if name in named:
            raise SchemaError(f"report --in: dataset name {name!r} given "
                              f"twice")
        named[name] = path
    return list(named.items())


def _cmd_report(config) -> list[str]:
    if config.scores and not config.records:
        raise SchemaError("--scores requires --records")
    from . import causal as causal_mod
    from . import ingest

    graph = _load_graph(config.graph)
    report: dict = {"graph": config.graph, "models": {}}
    for name, path in _named_datasets(config):
        data = causal_mod.load_dataset(path)
        edges = causal_mod.edge_report(graph, data, config.alpha,
                                       on_empty=config.on_empty)
        report["models"][name] = {
            "edges": edges,
            "by_effect": causal_mod.group_by_effect(edges),
        }
    if config.records:
        from . import alignment

        records = _read_records(config.records)
        if config.scores:
            with _reading(config.scores) as fh:
                table = alignment.ScoreTable.read(fh, records)
        else:
            table = alignment.score_table(records)
        graded = table.where(lambda r: r.grade is not None)
        models = sorted({m for r in records for m in r.hypotheses})
        report["grade_errors"] = {
            model: [a.to_dict()
                    for a in graded.aggregate(model, key=lambda r: r.grade)]
            for model in models}
        if len(records) >= 2:
            corr_models, matrix = table.correlation()
            report["correlation"] = {"models": corr_models, "matrix": matrix}
    written = [_write_text(config.out, [ingest.write_report(report)])]
    if config.plot_dir:
        for name, text in ingest.emit_plot_data(report).items():
            written.append(_write_text(os.path.join(config.plot_dir, name),
                                       [text]))
    return written


# command -> (function, freshness inputs of a configuration).  A command
# with inputs is a stage: it returns the files it wrote, for its stamp.
# The others (no inputs here) return an exit code and always run.
_COMMANDS = {
    "synth": (_cmd_synth,
              lambda c: [] if c.spec in _BUILTIN_SCMS else [c.spec]),
    "align": (_cmd_align, lambda c: [c.inp]),
    "covariates": (_cmd_covariates,
                   lambda c: [c.inp, *c.freq_table, c.posteriors,
                              c.segments, c.inventory,
                              *_dir_inputs(c.audio_dir)]),
    "discretize": (_cmd_discretize,
                   lambda c: [c.records, c.scores, c.schemes_in]),
    "oracle": (_cmd_oracle, lambda c: [c.inp]),
    "correlate": (_cmd_correlate, lambda c: [c.inp]),
    "fit": (_cmd_fit, lambda c: [c.inp, *_graph_inputs(c.graph)]),
    "ace": (_cmd_ace, None),
    "cmi": (_cmd_cmi, None),
    "report": (_cmd_report,
               lambda c: [p for _, p in _named_datasets(c)]
               + [c.records, c.scores, *_graph_inputs(c.graph)]),
}


def _run_stage(config, command, inputs) -> int:
    """Skip a fresh stage; otherwise run it and stamp what it wrote."""
    if _is_fresh(config, inputs):
        print(f"{config.command}: {config.out} is fresh, skipping",
              file=sys.stderr)
        return 0
    stamp = _hidden(config.out, "stamp")
    stamp.unlink(missing_ok=True)
    doc = {"version": __version__, "config": _config_key(config),
           "outputs": command(config)}
    _write_text(str(stamp), [json.dumps(doc, sort_keys=True) + "\n"])
    return 0


def _print_error(exc: ToolkitError) -> int:
    """Print ``exc``'s error record on stderr; returns exit code 1."""
    diagnostic = {"error": exc.code, "message": str(exc)}
    if exc.record_id is not None:
        diagnostic["record"] = exc.record_id
    print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
    return 1


def run(config: argparse.Namespace) -> int:
    """Execute a parsed configuration; maps data errors to exit 1."""
    command, inputs = _COMMANDS[config.command]
    try:
        if inputs is None:
            return command(config)
        return _run_stage(config, command, inputs(config))
    except ToolkitError as exc:
        return _print_error(exc)
    except OSError as exc:
        return _print_error(IoError(str(exc)))


def main(argv=None) -> int:
    return run(parse_args(argv if argv is not None else sys.argv[1:]))


def console() -> NoReturn:
    """Run ``main`` as a process: flush stdout and stderr, then end with
    ``os._exit`` and ``main``'s exit code, or argparse's (2 for a usage
    error, 0 for ``--help``), skipping the interpreter's teardown.  A
    flush that fails is an ``E_IO`` record on stderr and exit 1.  Any
    other exception, and a SystemExit without an int code, propagates."""
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        try:
            if sys.stdout is not None:  # None when started with fd 1 closed
                sys.stdout.flush()
        except OSError as exc:
            code = _print_error(
                IoError(f"cannot write standard output: {exc}"))
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        code = 1  # stderr cannot take the record either
    os._exit(code)


if __name__ == "__main__":
    console()
