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

``report_pieces`` yields a report's text in pieces from one private
encoder that quantizes as it emits; ``write_report`` joins them.  A
NumPy array in a report (found by its ``dtype``) is written as its
``tolist()`` would be, one slice at a time.  A 1-D float slice and a 2-D
one of integer codes in ``[0, 1000)`` (a dataset's columns and code rows)
are formatted by NumPy into a byte matrix; every list item, and every item
of any other array slice, is written one at a time.  NumPy is imported
only once an array has reached the encoder, so reading and skipping
load none.  The bytes are those of ``json.dumps(..., sort_keys=True,
indent=1)`` on the quantized tree, so readers, golden files and digests
do not depend on which encoder wrote them, and ``IoError`` is raised
for exactly the values ``json.dumps`` rejects.

Every malformed input raises a typed error naming the offending line or
field; no partially constructed value ever escapes.  Input JSON is
decoded by ``load_json``, so text ``json`` cannot read is SchemaError.
Line-delimited inputs (utterance records, score tables, frame
posteriors, segments) are read by ``read_jsonl``, so a line that is not
a JSON object is SchemaError naming the line; frame posteriors take it
for any chunk of lines that fails a check.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field
from itertools import chain
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


class CausalGraph:
    """Declared DAG of ``(name, kind, categories)`` nodes and ``(from,
    to)`` edges, checked once, in order: unique names, each node's kind
    and categories, each edge, acyclicity.  Parents and children follow
    node declaration order, so CPT parent configurations do not depend on
    edge order; ``topo_order`` is Kahn's with node-name tie-break."""

    def __init__(self, nodes: Iterable[tuple[str, str, Sequence[str]]],
                 edges: Iterable[tuple[str, str]]):
        nodes = [(name, kind, tuple(cats)) for name, kind, cats in nodes]
        self.nodes: list[str] = [name for name, _, _ in nodes]
        if len(set(self.nodes)) != len(self.nodes):
            raise SchemaError("duplicate node names in graph spec")
        for name, kind, cats in nodes:
            if kind not in NODE_KINDS:
                raise SchemaError(
                    f"node {name!r}: kind must be one of {NODE_KINDS}")
            if not cats:
                raise SchemaError(f"node {name!r}: needs >= 1 category")
            if len(set(cats)) != len(cats):
                raise SchemaError(f"node {name!r}: duplicate categories")
        self.kinds = {name: kind for name, kind, _ in nodes}
        self.categories: dict[str, tuple[str, ...]] = {
            name: cats for name, _, cats in nodes}
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
            # a category is a string or an integer (not a bool), read as its
            # decimal text
            if not (isinstance(entry["name"], str)
                    and isinstance(entry["categories"], list)
                    and all(isinstance(c, str) or type(c) is int
                            for c in entry["categories"])):
                raise SchemaError(f"node {i} ({entry['name']!r}): needs a "
                                  f"string name and a list of string or "
                                  f"integer categories")
            nodes.append((entry["name"], entry["kind"],
                          map(str, entry["categories"])))
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


# _float_array_body writes ±0.0 and a finite float whose magnitude is in
# [_FIXED_LO, _FIXED_HI) from the digits of |x| * 10**_PLACES rounded to
# an integer: at most 15 (9 + _PLACES) of them, in the range repr writes
# in fixed notation.
_FIXED_LO = 1e-4
_FIXED_HI = 1e9
_CHUNK = 4096  # list items written per piece


# --- array slices ---------------------------------------------------------------
#
# An array slice is written from a (width, n) uint8 matrix: one column
# per item holding its bytes, with a zero byte wherever the text has no
# character, so one ``bytes.translate(None, b"\0")`` of the transposed
# matrix gives the text.  The (width, n) layout keeps each row, filled by
# one NumPy operation, contiguous.  NumPy is imported here only once an
# array has reached the encoder, so it is loaded already.

@functools.cache
def _digit_groups():
    """(3, 1000) uint8 table: column ``v`` holds the ASCII digits of
    ``"%03d" % v``."""
    import numpy as np

    v = np.arange(1000)
    return (np.stack([v // 100, v // 10 % 10, v % 10]) + 48).astype(np.uint8)


@functools.cache
def _code_groups():
    """``_digit_groups`` with the leading zeros of each ``v`` as zero
    bytes: the text of ``"%d" % v``, right-aligned in three bytes."""
    table = _digit_groups().copy()
    table[0, :100] = 0
    table[1, :10] = 0
    return table


# Rows of a float item: sign, the 18 digits of k = round(|x| * 10**6) (12
# of the integer part, 6 of the fraction) with the point between, then
# the separator.  The groups of three digits start at these rows, least
# significant first.
_SIGN, _POINT, _FLOAT_ROWS = 0, 13, 20
_GROUP_ROWS = (17, 14, 10, 7, 4, 1)
_SPLICE = "\1"  # stands for an item written one at a time


def _fixed_point(x):
    """``(k, fast)`` for a float64 array ``x``: ``k``, as float64, is
    ``rint(|x| * 10**6)`` and ``fast`` marks the items whose text is the
    digits of ``k`` (elsewhere ``k`` means nothing).

    ``0.0`` and ``-0.0`` are both ``k = 0``, written ``0.0`` as
    ``_quantize`` makes them.  For finite ``1e-4 <= |x| < 1e9``,
    ``round(x, 6)`` is the double nearest ``d = ±k / 10**6``, ``k``
    being the exact ``|x| * 10**6`` rounded half to even.  ``d`` has at
    most 15 significant digits (``k <= 10**15``), and no two such
    decimals read back as one double, so ``repr`` writes ``d``, in fixed
    notation in this band: the digits of ``k``, the point six from the
    right, less leading integer and trailing fraction zeros (keeping
    ``0.`` and ``.0``).  ``y = |x| * 1e6`` is off the exact product by
    at most half of ``spacing(y)``, so where ``| |y - k| - 0.5 | >
    spacing(y)`` no ``.5`` boundary lies between them and ``k =
    rint(y)``.  The other items (a near-tie, out of the band, NaN, ±inf)
    are written as ``_scalar(_quantize(x))``.
    """
    import numpy as np

    a = np.abs(x)
    band = ((a >= _FIXED_LO) & (a < _FIXED_HI)) | (a == 0.0)
    a[~band] = 1.0  # keeps NaN and inf out of the arithmetic below
    y = a * 1e6
    k = np.rint(y)
    return k, band & (np.abs(np.abs(y - k) - 0.5) > np.spacing(y))


def float_read_back(values):
    """The float64 array that reading the text ``_float_array_body``
    writes for the finite 1-D float array ``values`` gives back: ``±k /
    10**6`` where ``_fixed_point`` finds the item fast (``k / 1e6`` is
    that double, as one IEEE division rounds correctly), else
    ``_quantize(x)``, whose ``repr`` reads back as itself."""
    import numpy as np

    x = values.astype(np.float64)
    k, fast = _fixed_point(x)
    k /= 1e6
    # x < 0, not the sign bit: -0.0 is written "0.0"
    np.negative(k, out=k, where=x < 0.0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        k[slow] = [_quantize(v) for v in x[slow].tolist()]
    return k


def _float_array_body(values, sep: str) -> str:
    """The items of a 1-D float array slice, ``sep``-joined, as
    ``_items`` writes its ``tolist()``, whatever the items: a fast item
    (``_fixed_point``) from the digits of its ``k``, formatted by NumPy,
    and every other item by ``_scalar(_quantize(x))``, spliced in by
    index.
    """
    import numpy as np

    x = values.astype(np.float64)  # exact, as tolist() widens
    k, fast = _fixed_point(x)
    k = k.astype(np.int64)

    sep_bytes = sep.encode()
    m = np.empty((_FLOAT_ROWS + len(sep_bytes), len(x)), np.uint8)
    # x < 0, not the sign bit: -0.0 is written "0.0"
    np.multiply(x < 0.0, ord("-"), out=m[_SIGN], casting="unsafe")
    table = _digit_groups()
    rest = k
    for row in _GROUP_ROWS:
        rest, group = np.divmod(rest, 1000)
        table.take(group, axis=1, out=m[row:row + 3], mode="clip")
    m[_POINT] = ord(".")
    # leading integer zeros, then trailing fraction zeros; the units
    # digit and the first fraction digit stay
    _zero_runs(m, range(_SIGN + 1, _POINT - 1))
    _zero_runs(m, range(_FLOAT_ROWS - 1, _POINT + 1, -1))
    m[_FLOAT_ROWS:] = np.frombuffer(sep_bytes, np.uint8)[:, None]
    m[_FLOAT_ROWS:, -1] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        m[:_FLOAT_ROWS, slow] = 0
        m[_SIGN, slow] = ord(_SPLICE)
    text = m.T.tobytes().translate(None, b"\0").decode("ascii")
    if not slow.size:
        return text
    parts = text.split(_SPLICE)
    slow_texts = [_scalar(_quantize(v)) for v in x[slow].tolist()]
    return "".join(chain.from_iterable(zip(parts, slow_texts))) + parts[-1]


def _zero_runs(m, rows) -> None:
    """Zero, in each column of ``m``, the run of ``"0"`` bytes that
    starts at the first of ``rows`` and goes on through them in order."""
    run = m[rows[0]] == ord("0")
    for row in rows:
        run &= m[row] == ord("0")
        m[row][run] = 0


def _int_array_rows_body(rows, ind: str) -> str:
    """The rows of a 2-D integer array slice with at least one column and
    every code in ``[0, 1000)``, ``","``-separated, each on a line
    indented by ``ind``, as ``_items`` writes its ``tolist()``; each
    code's text is taken from ``_code_groups``."""
    import numpy as np

    cols = rows.shape[1]
    cell = (ind + " ").encode()
    # one row: "[", per code its cell, three digit bytes and "," (none
    # after the last), then ind + "]" and, but after the last row, "," + ind
    code = cell + b"\0\0\0,"
    template = (b"[" + code * (cols - 1) + code[:-1] + b"\0"
                + ind.encode() + b"]," + ind.encode())
    m = np.empty((len(template), len(rows)), np.uint8)
    m[:] = np.frombuffer(template, np.uint8)[:, None]
    m[-len(ind) - 1:, -1] = 0
    # (byte of a code's text, column, row)
    codes = (m[1:1 + cols * len(code)].reshape(cols, len(code), len(rows))
             .swapaxes(0, 1))
    at = len(cell)
    codes[at:at + 3] = _code_groups().take(rows.T, axis=1)
    return m.T.tobytes().translate(None, b"\0").decode("ascii")


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


# Values written by _scalar, joined to the piece before them rather than
# given a generator of their own.
_LEAVES = (str, int, float, type(None))


def _encode(value, ind: str) -> Iterator[str]:
    """Canonical JSON text of ``value``, in pieces, whose line is
    indented by ``ind``.

    ``ind`` is a newline plus one space per nesting level.  A list, tuple
    or NumPy array (told by its ``dtype``; a NumPy scalar has ``ndim`` 0
    and is a scalar here) is written one ``_CHUNK`` slice at a time by
    ``_items``.
    """
    if isinstance(value, dict):
        named = {str(k): v for k, v in value.items()}
        if not named:
            yield "{}"
            return
        inner = ind + " "
        lead = "{" + inner
        for key in sorted(named):
            item = named[key]
            head = lead + _encode_str(key) + ": "
            if isinstance(item, _LEAVES):
                yield head + _scalar(_quantize(item))
            else:
                yield head
                yield from _encode(item, inner)
            lead = "," + inner
        yield ind + "}"
    elif (isinstance(value, (list, tuple))
          or hasattr(value, "dtype") and value.ndim):
        if not len(value):
            yield "[]"
            return
        inner = ind + " "
        lead = "[" + inner
        for i in range(0, len(value), _CHUNK):
            yield lead
            yield from _items(value[i:i + _CHUNK], inner)
            lead = "," + inner
        yield ind + "]"
    else:
        yield _scalar(_quantize(value))


def _items(chunk, ind: str) -> Iterator[str]:
    """The items of one list slice, ``","``-separated, each on a line
    indented by ``ind``.

    A 1-D float array slice is formatted by ``_float_array_body`` and a
    2-D integer one with codes in ``[0, 1000)`` by
    ``_int_array_rows_body``.  Any other array slice is made its
    ``tolist()``, and every list item is written one at a time: a scalar
    by ``_scalar(_quantize(item))``, a container by ``_encode``.
    """
    sep = "," + ind
    if hasattr(chunk, "dtype"):
        kind = chunk.dtype.kind
        if chunk.ndim == 1 and kind == "f" and chunk.dtype.itemsize <= 8:
            yield _float_array_body(chunk, sep)
            return
        if (chunk.ndim == 2 and kind in "iu" and chunk.shape[1]
                and chunk.min() >= 0 and chunk.max() < 1000):
            yield _int_array_rows_body(chunk, ind)
            return
        chunk = chunk.tolist()
    lead = ""
    for item in chunk:
        if isinstance(item, _LEAVES):
            yield lead + _scalar(_quantize(item))
        else:
            yield lead
            yield from _encode(item, ind)
        lead = sep


def array_text(values, ind: str) -> bytes:
    """The bytes of a non-empty list's or array's items, as ``_items``
    writes them in a list whose items are indented by ``ind``: without
    the brackets and the first item's indent."""
    return "".join(_items(values, ind)).encode()


def report_pieces(report) -> Iterator[str]:
    """The text of ``write_report(report)`` as consecutive pieces.

    No piece holds more than one ``_CHUNK`` slice of a list, and an
    array's items are formatted one slice at a time, so writing the
    pieces out one by one holds neither the whole text nor a list copy
    of an array.  A value that ``write_report`` rejects
    raises ``IoError`` when it is reached, after the pieces before it.
    """
    try:
        yield from _encode(report, "\n")
    except (TypeError, ValueError) as exc:
        raise IoError(f"report not serializable: {exc}") from None
    yield "\n"


def write_report(report) -> str:
    """Deterministic serialization of an analysis result tree: the text
    of ``json.dumps(q, sort_keys=True, indent=1) + "\\n"``, where ``q`` is
    ``report`` with every NumPy array (``ndim >= 1``) made its
    ``tolist()``, every dict key ``str(key)``, every tuple a list and
    every float ``_quantize``-d; a value that expression rejects raises
    ``IoError``.  It is the join of ``report_pieces``."""
    return "".join(report_pieces(report))


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
