"""Parsing, validation, and serialization of all external artifacts.

Formats (all diff-able, hand-editable text):

* utterance records: one JSON object per line, fields
  ``id, speaker_id, reference, hypotheses, grade, gender, snr_db, gop,
  word_count, vocab_difficulty`` (absent optional fields are omitted or
  null; absent is distinct from zero);
* frequency tables: CSV with header ``word,count``;
* graph specs: JSON with ``nodes`` (list of {name, kind, categories})
  and ``edges`` (list of [from, to]);
* reports: canonical JSON, keys sorted, reals quantized to 6 decimals.

``write_report`` writes a report in one pass with a private encoder that
quantizes as it emits.  Its bytes are those of ``json.dumps(...,
sort_keys=True, indent=1)`` on the quantized tree, so readers, golden
files and digests do not depend on which encoder wrote them, and it
raises ``IoError`` for exactly the values ``json.dumps`` rejects.

Every malformed input raises a typed error naming the offending line or
field; no partially constructed value ever escapes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable, Iterator, Sequence

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
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, float))):
                bad(f"field {name!r} must be a number")
        if self.gop is not None and self.gop > 0:
            bad("field 'gop' must be <= 0")
        if self.vocab_difficulty is not None and self.vocab_difficulty < 0:
            bad("field 'vocab_difficulty' must be >= 0")
        if self.word_count is not None and (
                isinstance(self.word_count, bool)
                or not isinstance(self.word_count, int)
                or self.word_count < 0):
            bad("field 'word_count' must be a non-negative integer")
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


def _maybe_float(value):
    if value is None or isinstance(value, bool):
        return value
    return float(value) if isinstance(value, (int, float)) else value


def parse_utterances(stream: Iterable[str]) -> list[UtteranceRecord]:
    """Parse line-delimited records, preserving order; ids must be unique."""
    records = []
    seen: set[str] = set()
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}", line=line_no) from None
        record = UtteranceRecord.from_dict(raw, line=line_no)
        if record.id in seen:
            raise DuplicateIdError(f"line {line_no}: duplicate id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def write_utterances(records: Iterable[UtteranceRecord]) -> str:
    """Serialize records one JSON object per line (exact round-trip)."""
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n"
                   for r in records)


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


def write_frequency_table(table: FrequencyTable) -> str:
    rows = "".join(f"{w},{c}\n" for w, c in sorted(table.counts.items()))
    return "word,count\n" + rows


NODE_KINDS = ("exogenous", "endogenous")


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kind: str
    categories: tuple[str, ...]


@dataclass(frozen=True)
class GraphSpec:
    """Declared DAG: named, kinded nodes with ordered category sets."""

    nodes: tuple[NodeSpec, ...]
    edges: tuple[tuple[str, str], ...]

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]

    def validate(self) -> "GraphSpec":
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate node names in graph spec")
        for node in self.nodes:
            if node.kind not in NODE_KINDS:
                raise SchemaError(
                    f"node {node.name!r}: kind must be one of {NODE_KINDS}")
            if not node.categories:
                raise SchemaError(f"node {node.name!r}: needs >= 1 category")
            if len(set(node.categories)) != len(node.categories):
                raise SchemaError(f"node {node.name!r}: duplicate categories")
        known = set(names)
        seen = set()
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise UnknownNodeError(f"edge {src}->{dst} names unknown node")
            if src == dst:
                raise SelfLoopError(f"self-loop on {src}")
            if (src, dst) in seen:
                raise SchemaError(f"duplicate edge {src}->{dst}")
            seen.add((src, dst))
        topological_order(names, self.edges)
        return self


def topological_order(names: Sequence[str],
                      edges: Iterable[tuple[str, str]]) -> list[str]:
    """Kahn's algorithm with node-name tie-break (deterministic).

    Raises CycleError when the edge relation is not acyclic.
    """
    indeg = {n: 0 for n in names}
    children: dict[str, list[str]] = {n: [] for n in names}
    for src, dst in edges:
        indeg[dst] += 1
        children[src].append(dst)
    ready = sorted(n for n in names if indeg[n] == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        fresh = []
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                fresh.append(child)
        ready = sorted(ready + fresh)
    if len(order) != len(names):
        stuck = sorted(n for n in names if indeg[n] > 0)
        raise CycleError(f"graph has a cycle through {stuck}")
    return order


THREE_LEVELS = ("Low", "Average", "High")

# Factor nodes in rule order; each points at the three error nodes.
_ERROR_NODES = ("SubsErr", "DelErr", "InsErr")
_RULE_FACTORS = ("Age", "Gender", "VocabDiff", "GoP", "SNR", "NoWords")


def builtin_graph_spec(name: str) -> GraphSpec:
    """Built-in DAGs over the nine analysis variables.

    ``paper-default``: six factors each point at the three error nodes
    (18 edges) plus Age->GoP and VocabDiff->GoP, 20 edges total.
    ``fig3e``: same minus the three VocabDiff->error edges (17), for the
    variant whose error conditionals exclude vocabulary difficulty.
    """
    nodes = (
        NodeSpec("Age", "exogenous", GRADES),
        NodeSpec("Gender", "exogenous", GENDERS),
        NodeSpec("SNR", "exogenous", THREE_LEVELS),
        NodeSpec("VocabDiff", "exogenous", THREE_LEVELS),
        NodeSpec("NoWords", "exogenous", THREE_LEVELS),
        NodeSpec("GoP", "endogenous", THREE_LEVELS),
        NodeSpec("SubsErr", "endogenous", THREE_LEVELS),
        NodeSpec("DelErr", "endogenous", THREE_LEVELS),
        NodeSpec("InsErr", "endogenous", THREE_LEVELS),
    )
    edges = [(factor, err) for factor in _RULE_FACTORS for err in _ERROR_NODES]
    edges += [("Age", "GoP"), ("VocabDiff", "GoP")]
    if name == "paper-default":
        pass
    elif name == "fig3e":
        edges = [e for e in edges if e[0] != "VocabDiff" or e[1] == "GoP"]
    else:
        raise UnknownNodeError(f"no builtin graph named {name!r}")
    return GraphSpec(nodes, tuple(edges)).validate()


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse and validate a graph spec document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict) or "nodes" not in raw or "edges" not in raw:
        raise SchemaError("graph spec needs 'nodes' and 'edges'")
    nodes = []
    for entry in raw["nodes"]:
        if not isinstance(entry, dict) or not {"name", "kind", "categories"} <= set(entry):
            raise SchemaError("each node needs name, kind, categories")
        nodes.append(NodeSpec(entry["name"], entry["kind"],
                              tuple(str(c) for c in entry["categories"])))
    edges = []
    for entry in raw["edges"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SchemaError("each edge must be a [from, to] pair")
        edges.append((entry[0], entry[1]))
    return GraphSpec(tuple(nodes), tuple(edges)).validate()


def write_graph_spec(spec: GraphSpec) -> str:
    doc = {
        "nodes": [{"name": n.name, "kind": n.kind,
                   "categories": list(n.categories)} for n in spec.nodes],
        "edges": [list(e) for e in spec.edges],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# --- deterministic report serialization -------------------------------------

_PLACES = 6  # decimals kept for every real in a report


def _quantize(value):
    """Round a real to fixed precision; NaN becomes None, ±inf passes.

    A value that rounds to zero becomes 0.0 (never -0.0).  ``round`` is
    called on the value itself, so a float subclass such as
    ``np.float64`` rounds with its own ``__round__``.  Anything that is
    not a float is returned unchanged.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return value
        q = round(value, _PLACES)
        return 0.0 if q == 0 else q
    return value


def _scalar(value) -> str:
    """JSON text of a non-container value, by ``json.dumps``' rules."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def _encode(value, ind: str) -> str:
    """Canonical JSON text of ``value``, whose line is indented by ``ind``.

    ``ind`` is a newline plus one space per nesting level.  Lists of
    exact ints, of finite exact floats and of equal-length rows of exact
    ints are each formatted by one join; any other value recurses.
    """
    if isinstance(value, float):
        return _scalar(_quantize(value))
    if isinstance(value, dict):
        named = {str(k): v for k, v in value.items()}
        if not named:
            return "{}"
        inner = ind + " "
        return "{" + inner + ("," + inner).join(
            [_encode_str(k) + ": " + _encode(named[k], inner)
             for k in sorted(named)]) + ind + "}"
    if not isinstance(value, (list, tuple)):
        return _scalar(value)
    if not value:
        return "[]"
    inner = ind + " "
    sep = "," + inner
    kinds = set(map(type, value))
    if kinds == {int}:
        body = sep.join(map(int.__repr__, value))
    elif kinds == {float} and math.isfinite(sum(value)):
        # A finite sum means every item is finite: one non-finite item
        # makes the sum inf or NaN.
        texts = list(map(float.__repr__, map(round, value, repeat(_PLACES))))
        if "-0.0" in texts:
            texts = ["0.0" if t == "-0.0" else t for t in texts]
        body = sep.join(texts)
    elif (kinds == {list} and len(set(map(len, value))) == 1
          and set(map(type, chain.from_iterable(value))) == {int}):
        cell = inner + " "
        template = ("[" + cell + ("," + cell).join(["%d"] * len(value[0]))
                    + inner + "]")
        body = sep.join(map(template.__mod__, map(tuple, value)))
    else:
        body = sep.join([_encode(v, inner) for v in value])
    return "[" + inner + body + ind + "]"


def write_report(report, fmt: str = "structured") -> str:
    """Deterministic serialization of an analysis result tree.

    ``structured``: canonical JSON, keys in sorted order, reals quantized
    to 6 decimals (round-trips exactly for pre-quantized values).  The
    text is byte-identical to ``json.dumps(q, sort_keys=True, indent=1)
    + "\\n"``, where ``q`` is ``report`` with every dict key made
    ``str(key)``, every tuple a list and every float ``_quantize``-d; a
    value that expression rejects raises ``IoError``.  It is written in
    one pass that quantizes as it emits, with no quantized copy and no
    per-token chunks; lists of exact ints, of finite exact floats and of
    equal-length int rows are each formatted by one join.
    ``delimited``: flat ``path,value`` CSV (export only).
    """
    if fmt == "structured":
        try:
            return _encode(report, "\n") + "\n"
        except (TypeError, ValueError) as exc:
            raise IoError(f"report not serializable: {exc}") from None
    if fmt == "delimited":
        rows = ["path,value"]
        for path, value in _flatten(report):
            rows.append(f"{path},{value}")
        return "\n".join(rows) + "\n"
    raise IoError(f"unknown report format {fmt!r}")


def _flatten(obj, prefix: str = "") -> Iterator[tuple[str, object]]:
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for idx, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}{idx}.")
    else:
        value = _quantize(obj)
        yield prefix.rstrip("."), "" if value is None else value


def parse_report(text: str):
    """Parse a structured report back into its result tree."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}") from None


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
            causes = []
            for e in edges:
                if e["cause"] not in causes:
                    causes.append(e["cause"])
            for cause in causes:
                cells = []
                for err in _ERROR_NODES:
                    v = ace.get((cause, err))
                    cells.append("" if v is None else f"{v:.6f}")
                lines.append(f"{model},{cause}," + ",".join(cells))
        out["ace_table.csv"] = "\n".join(lines) + "\n"
        for model in sorted(models):
            lines = ["cause,effect,ace,ace_normalized,cmi"]
            for e in models[model].get("edges", []):
                cells = [e["cause"], e["effect"]]
                for k in ("ace", "ace_normalized", "cmi"):
                    v = e.get(k)
                    cells.append("" if v is None else f"{v:.6f}")
                lines.append(",".join(cells))
            out[f"edge_annotations_{model}.csv"] = "\n".join(lines) + "\n"
    return out
