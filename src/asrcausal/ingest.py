"""Parsing, validation, and serialization of all external artifacts.

Formats (all diff-able, hand-editable text):

* utterance records: one JSON object per line, fields
  ``id, speaker_id, reference, hypotheses, grade, gender, snr_db, gop,
  word_count, vocab_difficulty`` (absent optional fields are omitted or
  null; absent is distinct from zero);
* frequency tables: CSV with header ``word,count``;
* graph specs: JSON with ``nodes`` (list of {name, kind, categories})
  and ``edges`` (list of [from, to]), read by
  ``CausalGraph.from_document`` and written as
  ``write_report(graph.to_document())``.  ``CausalGraph``, the one
  graph type, lives here, so loading a graph loads no NumPy;
* reports: canonical JSON, keys sorted, reals quantized to 6 decimals.

Declared labels, a graph node's or a dataset variable's categories and
a phone's states in an inventory, are read by one rule, ``read_labels``.

``write_report`` is ``json.dumps(..., sort_keys=True, indent=1)`` of the
quantized tree (``_quantized``), with any NumPy array in it made its
``tolist()``; this module loads no NumPy.  A dataset file, whose
arrays are too large for that, is written by ``causal.write_dataset``
in the same bytes, next to its reader.  Every file the package writes
goes through ``replacing``: a temporary file renamed over it once whole.

Every malformed input raises a typed error naming the offending line or
field; no partially constructed value ever escapes.  Input JSON is
decoded by ``load_json``, so text ``json`` cannot read is SchemaError.
Line-delimited inputs (utterance records, score tables, frame
posteriors, segments) are read by ``read_jsonl``, so a line that is not
a JSON object is SchemaError naming the line; frame posteriors take it
for any chunk of lines that fails a check.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .errors import (
    CycleError,
    DuplicateIdError,
    EmptyInputError,
    IoError,
    SchemaError,
    SelfLoopError,
    UnknownNodeError,
)

GRADES = ("K", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10")
GENDERS = ("boy", "girl")

RECORD_FIELDS = ("id", "speaker_id", "reference", "hypotheses", "grade",
                 "gender", "snr_db", "gop", "word_count", "vocab_difficulty")


@dataclass
class UtteranceRecord:
    """One utterance with its hypotheses and (possibly absent) covariates."""

    id: str
    speaker_id: str
    reference: str
    hypotheses: dict[str, str]
    grade: str | None = None
    gender: str | None = None
    snr_db: float | None = None
    gop: float | None = None
    word_count: int | None = None
    vocab_difficulty: float | None = None

    def validate(self, line: int | None = None) -> "UtteranceRecord":
        def bad(msg):
            raise SchemaError(msg, line=line)

        if not isinstance(self.id, str) or not self.id:
            bad("field 'id' must be a non-empty string")
        if not isinstance(self.speaker_id, str):
            bad("field 'speaker_id' must be a string")
        if not isinstance(self.reference, str):
            bad("field 'reference' must be a string")
        if not isinstance(self.hypotheses, dict) or not self.hypotheses:
            bad("field 'hypotheses' must be a non-empty object")
        for name, text in self.hypotheses.items():
            if not name:
                bad("hypothesis model names must be non-empty")
            if not isinstance(text, str):
                bad(f"hypothesis for model {name!r} must be a string")
        if self.grade is not None and self.grade not in GRADES:
            bad(f"field 'grade' must be one of {GRADES}")
        if self.gender is not None and self.gender not in GENDERS:
            bad(f"field 'gender' must be one of {GENDERS}")
        for name in ("snr_db", "gop", "vocab_difficulty"):
            value = getattr(self, name)
            if value is not None and not is_finite_number(value):
                bad(f"field {name!r} must be a finite number, not {value!r}")
        if self.gop is not None and self.gop > 0:
            bad("field 'gop' must be <= 0")
        if self.vocab_difficulty is not None and self.vocab_difficulty < 0:
            bad("field 'vocab_difficulty' must be >= 0")
        if self.word_count is not None and (
                isinstance(self.word_count, bool)
                or not isinstance(self.word_count, int)
                or not 0 <= self.word_count <= sys.float_info.max):
            bad("field 'word_count' must be a non-negative integer within "
                "the float range")
        return self

    def to_dict(self) -> dict:
        out = {"id": self.id, "speaker_id": self.speaker_id,
               "reference": self.reference, "hypotheses": self.hypotheses}
        for name in ("grade", "gender", "snr_db", "gop", "word_count",
                     "vocab_difficulty"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict, line: int | None = None) -> "UtteranceRecord":
        if not isinstance(raw, dict):
            raise SchemaError("record must be a JSON object", line=line)
        unknown = set(raw) - set(RECORD_FIELDS)
        if unknown:
            raise SchemaError(f"unknown fields {sorted(unknown)}", line=line)
        for required in ("id", "speaker_id", "reference", "hypotheses"):
            if raw.get(required) is None:
                raise SchemaError(f"missing field {required!r}", line=line)
        grade = raw.get("grade")
        if isinstance(grade, int):
            grade = str(grade)
        return cls(
            id=raw["id"], speaker_id=raw["speaker_id"],
            reference=raw["reference"], hypotheses=raw["hypotheses"],
            grade=grade, gender=raw.get("gender"),
            snr_db=_maybe_float(raw.get("snr_db")),
            gop=_maybe_float(raw.get("gop")),
            word_count=raw.get("word_count"),
            vocab_difficulty=_maybe_float(raw.get("vocab_difficulty")),
        ).validate(line)


def is_number(value) -> bool:
    """True for a JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a JSON number that converts to a finite float: not NaN,
    not ±inf, and not an int beyond the float range.  Comparisons of ints
    with floats are exact, so this never overflows."""
    return is_number(value) and abs(value) <= sys.float_info.max


def _maybe_float(value):
    return float(value) if is_finite_number(value) else value


def load_json(text: str, *, line: int | None = None):
    """``json.loads(text)``; text it cannot read is SchemaError naming
    ``line`` (for a text that is one line of a file).  Besides invalid
    JSON, that is nesting too deep for the parser and an integer longer
    than Python's digit limit (``sys.get_int_max_str_digits()``), two
    errors ``json`` does not wrap.  In a text of many lines the long
    integer is named by its line within ``text``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line=line) from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply", line=line) from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        found = re.search(r"\d{%d}" % (limit + 1), text)
        if line is None and found:
            line = text.count("\n", 0, found.start()) + 1
        raise SchemaError(f"an integer has more than {limit} digits",
                          line=line) from None


def read_jsonl(stream: Iterable[str], first: int = 1
               ) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a
    line-delimited JSON stream, numbered from ``first``.  Invalid JSON,
    or a line that is not a JSON object, raises SchemaError naming the
    line."""
    for line_no, line in enumerate(stream, start=first):
        line = line.strip()
        if not line:
            continue
        obj = load_json(line, line=line_no)
        if not isinstance(obj, dict):
            raise SchemaError("line must be a JSON object", line=line_no)
        yield line_no, obj


def parse_utterances(stream: Iterable[str]) -> list[UtteranceRecord]:
    """Parse line-delimited records, preserving order; ids must be unique."""
    records = []
    seen: set[str] = set()
    for line_no, raw in read_jsonl(stream):
        record = UtteranceRecord.from_dict(raw, line=line_no)
        if record.id in seen:
            raise DuplicateIdError(f"line {line_no}: duplicate id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def utterance_lines(records: Iterable[UtteranceRecord]) -> Iterator[str]:
    """Each record as one JSON object on its own line (exact round-trip),
    one line at a time."""
    return (json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records)


@dataclass(frozen=True)
class FrequencyTable:
    """Pooled word counts used for rarity scoring."""

    counts: dict[str, int]
    total_tokens: int
    vocab_size: int

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "FrequencyTable":
        return cls(dict(counts), sum(counts.values()), len(counts))


def parse_frequency_table(text: str) -> FrequencyTable:
    """Parse ``word,count`` CSV; duplicate words pool by count summation."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EmptyInputError("frequency table has no rows")
    start = 1 if lines[0].strip().lower() == "word,count" else 0
    if len(lines) == start:
        raise EmptyInputError("frequency table has no rows")
    counts: dict[str, int] = {}
    for line_no, line in enumerate(lines[start:], start=start + 1):
        parts = line.rsplit(",", 1)
        if len(parts) != 2 or not parts[0].strip():
            raise SchemaError("expected 'word,count'", line=line_no)
        word = parts[0].strip()
        try:
            count = int(parts[1].strip())
        except ValueError:
            raise SchemaError("count must be an integer", line=line_no) from None
        if count < 0:
            raise SchemaError("count must be non-negative", line=line_no)
        counts[word] = counts.get(word, 0) + count
    return FrequencyTable.from_counts(counts)


def merge_frequency_tables(tables: Sequence[FrequencyTable]) -> FrequencyTable:
    """Pool several corpora by summing counts (order independent)."""
    if not tables:
        raise EmptyInputError("no frequency tables to merge")
    counts: dict[str, int] = {}
    for table in tables:
        for word, count in table.counts.items():
            counts[word] = counts.get(word, 0) + count
    return FrequencyTable.from_counts(counts)


NODE_KINDS = ("exogenous", "endogenous")
THREE_LEVELS = ("Low", "Average", "High")

# Factor nodes in rule order; each points at the three error nodes.
_ERROR_NODES = ("SubsErr", "DelErr", "InsErr")
_RULE_FACTORS = ("Age", "Gender", "VocabDiff", "GoP", "SNR", "NoWords")


def read_labels(pairs: Iterable[tuple], owner: str,
                nouns=("category", "categories")) -> dict[str, tuple]:
    """Declared ``(name, labels)`` pairs as name -> labels, in order.  A
    name is a string, given once; labels are a non-empty list or tuple of
    distinct strings or integers (not bools), an integer read as its
    decimal text, so ``[1, "1"]`` repeats one.  Else SchemaError naming
    the ``owner`` (node, variable, phone), worded with its ``nouns``."""
    one, many = nouns
    read: dict[str, tuple[str, ...]] = {}
    for name, labels in pairs:
        if not isinstance(name, str):
            raise SchemaError(f"{owner} name {name!r} is not a string")
        if name in read:
            raise SchemaError(f"{owner} {name!r} listed twice")
        if not (isinstance(labels, (list, tuple)) and all(
                isinstance(x, str) or type(x) is int for x in labels)):
            raise SchemaError(f"{owner} {name!r}: {many} must be a list of "
                              f"strings or integers")
        if not labels:
            raise SchemaError(f"{owner} {name!r}: needs >= 1 {one}")
        read[name] = tuple(map(str, labels))
        if len(set(read[name])) != len(labels):
            raise SchemaError(f"{owner} {name!r}: duplicate {many}")
    return read


class CausalGraph:
    """Declared DAG of ``(name, kind, categories)`` nodes and ``(from,
    to)`` edges, checked once, in order: names and categories
    (``read_labels``), kinds, each edge, acyclicity.  Parents and children
    follow node declaration order, so CPT parent configurations do not
    depend on edge order; ``topo_order`` is Kahn's, name tie-break."""

    def __init__(self, nodes: Iterable[tuple[str, str, Sequence[str]]],
                 edges: Iterable[tuple[str, str]]):
        nodes = list(nodes)
        self.categories = read_labels(
            ((name, cats) for name, _, cats in nodes), "node")
        self.nodes: list[str] = list(self.categories)
        self.kinds = {name: kind for name, kind, _ in nodes}
        for name, kind in self.kinds.items():
            if kind not in NODE_KINDS:
                raise SchemaError(
                    f"node {name!r}: kind must be one of {NODE_KINDS}")
        self.edges: list[tuple[str, str]] = []
        self._parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in edges:
            if src not in self._parents or dst not in self._parents:
                raise UnknownNodeError(f"edge {src}->{dst} names unknown node")
            if src == dst:
                raise SelfLoopError(f"self-loop on {src}")
            if src in self._parents[dst]:
                raise SchemaError(f"duplicate edge {src}->{dst}")
            self.edges.append((src, dst))
            self._parents[dst].append(src)
            self._children[src].append(dst)
        declared = {name: i for i, name in enumerate(self.nodes)}
        for node in self.nodes:
            self._parents[node].sort(key=declared.__getitem__)
            self._children[node].sort(key=declared.__getitem__)
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        ready = sorted(n for n in self.nodes if indeg[n] == 0)
        self.topo_order: list[str] = []
        while ready:
            node = ready.pop(0)
            self.topo_order.append(node)
            for child in self._children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
            ready.sort()
        if len(self.topo_order) != len(self.nodes):
            stuck = sorted(n for n in self.nodes if indeg[n] > 0)
            raise CycleError(f"graph has a cycle through {stuck}")

    @classmethod
    def builtin(cls, name: str) -> "CausalGraph":
        """Built-in DAGs over the nine analysis variables.

        ``paper-default``: six factors each point at the three error nodes
        (18 edges) plus Age->GoP and VocabDiff->GoP, 20 edges total.
        ``fig3e``: same minus the three VocabDiff->error edges (17), for the
        variant whose error conditionals exclude vocabulary difficulty.
        """
        edges = [(factor, err) for factor in _RULE_FACTORS
                 for err in _ERROR_NODES]
        edges += [("Age", "GoP"), ("VocabDiff", "GoP")]
        if name == "fig3e":
            edges = [e for e in edges if e[0] != "VocabDiff" or e[1] == "GoP"]
        elif name != "paper-default":
            raise UnknownNodeError(f"no builtin graph named {name!r}")
        return cls([
            ("Age", "exogenous", GRADES),
            ("Gender", "exogenous", GENDERS),
            ("SNR", "exogenous", THREE_LEVELS),
            ("VocabDiff", "exogenous", THREE_LEVELS),
            ("NoWords", "exogenous", THREE_LEVELS),
            ("GoP", "endogenous", THREE_LEVELS),
            ("SubsErr", "endogenous", THREE_LEVELS),
            ("DelErr", "endogenous", THREE_LEVELS),
            ("InsErr", "endogenous", THREE_LEVELS),
        ], edges)

    @classmethod
    def from_document(cls, raw) -> "CausalGraph":
        """Read a graph document: a ``--graph`` file's JSON, or an SCM
        spec's ``graph``.  A malformed document, node or edge is
        SchemaError naming it."""
        if not (isinstance(raw, dict) and isinstance(raw.get("nodes"), list)
                and isinstance(raw.get("edges"), list)):
            raise SchemaError("graph spec needs 'nodes' and 'edges' lists")
        nodes = []
        for i, entry in enumerate(raw["nodes"]):
            if not (isinstance(entry, dict)
                    and {"name", "kind", "categories"} <= set(entry)):
                raise SchemaError(f"node {i}: needs name, kind, categories")
            nodes.append((entry["name"], entry["kind"], entry["categories"]))
        for entry in raw["edges"]:
            if not (isinstance(entry, list)
                    and list(map(type, entry)) == [str, str]):
                raise SchemaError(
                    f"edge {entry!r} must be a pair of node names")
        return cls(nodes, map(tuple, raw["edges"]))

    def to_document(self) -> dict:
        """The document ``from_document`` reads."""
        return {
            "nodes": [{"name": n, "kind": self.kinds[n],
                       "categories": list(self.categories[n])}
                      for n in self.nodes],
            "edges": [list(e) for e in self.edges],
        }

    def parents(self, node: str) -> list[str]:
        return self._neighbours(self._parents, node)

    def children(self, node: str) -> list[str]:
        return self._neighbours(self._children, node)

    @staticmethod
    def _neighbours(table: dict[str, list[str]], node: str) -> list[str]:
        if node not in table:
            raise UnknownNodeError(f"node {node!r} is not in the graph")
        return list(table[node])

    def state_space(self) -> int:
        return math.prod(len(cats) for cats in self.categories.values())


# --- deterministic report serialization -------------------------------------

_PLACES = 6  # decimals kept for every real in a report
# Below this magnitude x * 10**_PLACES is finite, so no round overflows.
_ROUND_SAFE = 1e300


def _quantize(value):
    """Round a real to fixed precision; NaN becomes None, ±inf passes.

    A value that rounds to zero becomes 0.0 (never -0.0).  ``round`` is
    called on the value itself, so a float subclass such as
    ``np.float64`` rounds with its own ``__round__``.  That one scales by
    10**6 first and overflows to ±inf near the float maximum; there the
    value itself is kept, as Python's ``round`` keeps it.  Anything that
    is not a float is returned unchanged.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return value
        if abs(value) < _ROUND_SAFE:
            q = round(value, _PLACES)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                q = round(value, _PLACES)
            if math.isinf(q):
                return value
        return 0.0 if q == 0 else q
    return value


def _quantized(value):
    """``value`` as ``write_report`` hands it to ``json.dumps``: every
    dict key ``str(key)``, every tuple a list, every NumPy array (told by
    its ``dtype``; a NumPy scalar has ``ndim`` 0 and is a scalar here)
    its ``tolist()``, and every float ``_quantize``-d."""
    if isinstance(value, dict):
        return {str(k): _quantized(v) for k, v in value.items()}
    if hasattr(value, "dtype") and value.ndim:
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_quantized(v) for v in value]
    return _quantize(value)


def write_report(report) -> str:
    """Deterministic serialization of an analysis result tree:
    ``json.dumps(_quantized(report), sort_keys=True, indent=1) + "\\n"``.
    A value ``json.dumps`` rejects (a NumPy integer scalar, a set, an
    integer past Python's digit limit) raises ``IoError``."""
    try:
        return json.dumps(_quantized(report), sort_keys=True, indent=1) + "\n"
    except (TypeError, ValueError) as exc:
        raise IoError(f"report not serializable: {exc}") from None


# --- atomic file writes ------------------------------------------------------

@contextmanager
def replacing(path: str, mode: str = "w") -> Iterator[IO]:
    """A temporary file next to ``path``, open in ``mode``, renamed over
    ``path`` when the block ends: an interrupted or failed write leaves
    the previous output (or none), never a truncated one that looks
    fresh."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, mode) as fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


# --- delimited plot-data emission --------------------------------------------

def emit_plot_data(report: dict) -> dict[str, str]:
    """Render the plot-ready sections of a report as delimited tables.

    Returns a mapping of file name to CSV text.  Sections handled:
    ``correlation`` (models + matrix), ``grade_errors`` (per-model,
    per-grade aggregates in canonical K..10 order), and ``models``
    (per-model edge records with ACE and CMI annotations).
    """
    out: dict[str, str] = {}
    corr = report.get("correlation")
    if corr is not None:
        models = corr.get("models", [])
        header = "model" + ("," + ",".join(models) if models else "")
        lines = [header]
        for name, row in zip(models, corr.get("matrix", [])):
            cells = ["" if v is None or (isinstance(v, float) and math.isnan(v))
                     else f"{v:.6f}" for v in row]
            lines.append(name + "," + ",".join(cells))
        out["correlation.csv"] = "\n".join(lines) + "\n"
    grade_errors = report.get("grade_errors")
    if grade_errors is not None:
        for model in sorted(grade_errors):
            by_grade = {str(g["key"]): g for g in grade_errors[model]}
            lines = ["grade,wer,subs_rate,del_rate,ins_rate"]
            for grade in GRADES:
                g = by_grade.get(grade)
                if g is None:
                    continue
                lines.append(f"{grade},{g['wer']:.6f},{g['subs_rate']:.6f},"
                             f"{g['del_rate']:.6f},{g['ins_rate']:.6f}")
            out[f"grade_errors_{model}.csv"] = "\n".join(lines) + "\n"
    models = report.get("models")
    if models is not None:
        lines = ["model,cause," + ",".join(_ERROR_NODES)]
        for model in sorted(models):
            edges = models[model].get("edges", [])
            ace = {(e["cause"], e["effect"]): e.get("ace") for e in edges}
            for cause in dict.fromkeys(e["cause"] for e in edges):
                values = (ace.get((cause, err)) for err in _ERROR_NODES)
                lines.append(f"{model},{cause}," + ",".join(
                    "" if v is None else f"{v:.6f}" for v in values))
        out["ace_table.csv"] = "\n".join(lines) + "\n"
        for model in sorted(models):
            lines = ["cause,effect,ace,ace_normalized,cmi"]
            for e in models[model].get("edges", []):
                values = (e.get(k) for k in ("ace", "ace_normalized", "cmi"))
                lines.append(",".join([e["cause"], e["effect"], *(
                    "" if v is None else f"{v:.6f}" for v in values)]))
            out[f"edge_annotations_{model}.csv"] = "\n".join(lines) + "\n"
    return out
