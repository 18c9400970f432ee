"""Word-level alignment, WER decomposition, oracle hypothesis selection,
and inter-model correlation.

Every score-based output is derived from one ``ScoreTable``: for each
record and model, the S/D/I/N counts of exactly one ``align`` call, with
the record's reference normalized once for all its models.
``score_table`` is the one builder that aligns a record set, and
``ScoreTable.read`` loads the table ``align`` wrote; the table's
methods give the per-group aggregates, the oracle choice and aggregate,
and the inter-model correlation.  A CLI stage builds or loads one table
and reads all of its outputs from it.  The table holds plain Python
ints, so scoring never loads NumPy.

The edit-distance kernel is one pure-Python DP (``_align_counts``); it
needs no NumPy and no compiler, and ``kernel_backend()`` names it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    DuplicateIdError,
    EmptyReferenceError,
    MissingModelError,
    SchemaError,
    TooFewValuesError,
)
from .ingest import read_jsonl


def kernel_backend() -> str:
    """Name of the edit-distance kernel: always 'python'."""
    return "python"


# Lowercase, strip punctuation except intra-word apostrophes, split on
# whitespace.  Scoring normalization is a known source of divergence
# between WER figures from different toolkits, so the rule is fixed here
# and documented in the README.
_PUNCT_RE = re.compile(r"[^a-z0-9\s']+")
_LONE_APOSTROPHE_RE = re.compile(r"(?<![a-z0-9])'|'(?![a-z0-9])")


def normalize_text(raw: str) -> list[str]:
    """Normalize a transcript to the token sequence used for scoring."""
    text = _PUNCT_RE.sub("", raw.lower())
    text = _LONE_APOSTROPHE_RE.sub("", text)
    return text.split()


@dataclass(frozen=True)
class AlignmentResult:
    """S/D/I decomposition of one (reference, hypothesis) alignment."""

    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def total_errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        """Word error rate as a fraction; may exceed 1 via insertions."""
        return self.total_errors / self.ref_len

    def to_dict(self) -> dict:
        return {
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "ref_len": self.ref_len,
            "wer": self.wer,
        }


def _align_counts(ref: Sequence[str],
                  hyp: Sequence[str]) -> tuple[int, int, int]:
    """(substitutions, deletions, insertions) of a minimum-cost alignment
    of `ref` against `hyp`, ties broken by fewer substitutions, then fewer
    deletions.

    Each DP cell packs (total, subs, dels) into one int,
    ``total*B*B + subs*B + dels`` with every count below B, so integer
    order is lexicographic order on the triples and the tie-break is a
    plain minimum.  A common prefix and suffix match at no cost in some
    least alignment, so they are stripped before the DP.
    """
    n, m = len(ref), len(hyp)
    lo = 0
    while lo < n and lo < m and ref[lo] == hyp[lo]:
        lo += 1
    while n > lo and m > lo and ref[n - 1] == hyp[m - 1]:
        n -= 1
        m -= 1
    ref, hyp = ref[lo:n], hyp[lo:m]
    base = len(ref) + len(hyp) + 2
    # packed cost of one edit: each adds 1 to total, and to its own count
    insertion = base * base
    deletion, substitution = insertion + 1, insertion + base
    # prev[j]: packed cost of ref[:i] against hyp[:j]
    prev = list(range(0, (len(hyp) + 1) * insertion, insertion))
    for r in ref:
        left = prev[0] + deletion
        cur = [left]
        append = cur.append
        for h, diag, up in zip(hyp, prev, prev[1:]):
            if r != h:
                diag += substitution
            up += deletion
            if up < diag:
                diag = up
            left += insertion
            if diag < left:
                left = diag
            append(left)
        prev = cur
    total, rest = divmod(prev[-1], insertion)
    subs, dels = divmod(rest, base)
    return subs, dels, total - subs - dels


def align(reference: Sequence[str], hypothesis: Sequence[str]) -> AlignmentResult:
    """Minimum-cost word alignment of two token sequences.

    Ties between equal-cost alignments are broken by preferring fewer
    substitutions, then fewer deletions, so the decomposition is
    deterministic.  Raises EmptyReferenceError when the reference is
    empty (WER is undefined at N=0).
    """
    if len(reference) == 0:
        raise EmptyReferenceError("empty reference: WER undefined")
    return AlignmentResult(*_align_counts(reference, hypothesis),
                           len(reference))


@dataclass(frozen=True)
class ErrorAggregate:
    """Micro-averaged error sums for one group of utterances.

    Rates are recomputed from the summed counts (sum errors / sum words),
    never averaged over utterances, and are reported in percent.
    """

    key: object
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def subs_rate(self) -> float:
        return 100.0 * self.substitutions / self.ref_len

    @property
    def del_rate(self) -> float:
        return 100.0 * self.deletions / self.ref_len

    @property
    def ins_rate(self) -> float:
        return 100.0 * self.insertions / self.ref_len

    @property
    def wer(self) -> float:
        return self.subs_rate + self.del_rate + self.ins_rate

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "ref_len": self.ref_len,
            "subs_rate": self.subs_rate,
            "del_rate": self.del_rate,
            "ins_rate": self.ins_rate,
            "wer": self.wer,
        }


def score_row(record, models: Sequence[str]) -> dict[str, AlignmentResult]:
    """One score-table row: `record` aligned against each of `models`.

    The reference is normalized once for the whole row; each hypothesis
    is normalized and aligned once.  Models are visited in the given
    order, and the first one the record lacks raises MissingModelError;
    an empty reference raises EmptyReferenceError.  Both name the record.
    """
    reference = None
    row = {}
    for model in models:
        if model not in record.hypotheses:
            raise MissingModelError(f"no hypothesis for model {model!r}",
                                    record_id=record.id)
        if reference is None:
            reference = normalize_text(record.reference)
            if not reference:
                raise EmptyReferenceError("empty reference: WER undefined",
                                          record_id=record.id)
        row[model] = align(reference,
                           normalize_text(record.hypotheses[model]))
    return row


_COUNT_KEYS = ("substitutions", "deletions", "insertions", "ref_len")


def _sum_counts(key, results: Sequence[AlignmentResult]) -> ErrorAggregate:
    """The micro-averaged aggregate `key` of `results`: their summed
    S/D/I/N counts."""
    return ErrorAggregate(key, *(sum(getattr(r, count) for r in results)
                                 for count in _COUNT_KEYS))


@dataclass(frozen=True)
class ScoreTable:
    """Per record (in input order), the AlignmentResult of each scored
    model: the S/D/I/N counts of exactly one alignment per pair.

    Every score-based output is read from here.  A derivation that needs
    a model missing from a row raises MissingModelError naming the record.
    """

    records: list
    rows: list[dict[str, AlignmentResult]]

    @classmethod
    def read(cls, stream: Iterable[str], records: Sequence,
             models: Sequence[str] | None = None) -> "ScoreTable":
        """The table ``align`` wrote (``to_jsonl``), read from a text
        stream: one ``{"id", "scores"}`` line per record, where
        ``scores`` maps model to ``{substitutions, deletions, insertions,
        ref_len, ...}``.

        A line that is not such an object is SchemaError naming the line,
        and a repeated id DuplicateIdError, as the stream is read.  Then,
        in record order, every record needs a score for each of `models`
        (default: every model it carries), and each ``ref_len`` must
        equal the length of the record's normalized reference (a mismatch
        means the scores are stale); otherwise SchemaError naming the
        record.
        """
        scores = {}
        for line_no, entry in read_jsonl(stream):
            if not ("scores" in entry and isinstance(entry.get("id"), str)):
                raise SchemaError("score lines need a string 'id' and "
                                  "'scores'", line=line_no)
            if entry["id"] in scores:
                raise DuplicateIdError(
                    f"line {line_no}: duplicate id {entry['id']!r}")
            scores[entry["id"]] = entry["scores"]
        rows = []
        for record in records:
            entry = scores.get(record.id)
            if not isinstance(entry, dict):
                raise SchemaError("scores file has no scores object for "
                                  "this record", record_id=record.id)
            ref_len = len(normalize_text(record.reference))
            if not ref_len:
                raise EmptyReferenceError("empty reference: WER undefined",
                                          record_id=record.id)
            row = {}
            wanted = sorted(record.hypotheses) if models is None else models
            for model in wanted:
                counts = entry.get(model)
                if not isinstance(counts, dict):
                    raise SchemaError(f"scores file has no {model!r} score "
                                      "object", record_id=record.id)
                values = [counts.get(key) for key in _COUNT_KEYS]
                if any(type(v) is not int or v < 0 for v in values):
                    raise SchemaError(
                        f"{model!r} score needs non-negative integer "
                        f"{', '.join(_COUNT_KEYS)}", record_id=record.id)
                if values[3] != ref_len:
                    raise SchemaError(
                        f"stale {model!r} score: ref_len {values[3]}, but "
                        f"the reference has {ref_len} words",
                        record_id=record.id)
                row[model] = AlignmentResult(*values)
            rows.append(row)
        return cls(list(records), rows)

    def to_jsonl(self) -> str:
        """One ``{"id", "scores"}`` JSON line per record, keys sorted."""
        return "".join(
            json.dumps({"id": record.id,
                        "scores": {m: r.to_dict() for m, r in row.items()}},
                       sort_keys=True) + "\n"
            for record, row in zip(self.records, self.rows))

    def where(self, keep: Callable) -> "ScoreTable":
        """The rows of the records for which ``keep(record)`` is true."""
        kept = [i for i, record in enumerate(self.records) if keep(record)]
        return ScoreTable([self.records[i] for i in kept],
                          [self.rows[i] for i in kept])

    def _column(self, model: str):
        """(record, result) of `model` for every row, in record order."""
        for record, row in zip(self.records, self.rows):
            result = row.get(model)
            if result is None:
                raise MissingModelError(f"no hypothesis for model {model!r}",
                                        record_id=record.id)
            yield record, result

    def aggregate(self, model: str,
                  key: Callable = lambda r: "all") -> list[ErrorAggregate]:
        """Micro-averaged aggregates of `model` per group, in sorted key
        order."""
        groups: dict = {}
        for record, result in self._column(model):
            groups.setdefault(key(record), []).append(result)
        return [_sum_counts(k, groups[k]) for k in sorted(groups, key=str)]

    def _oracle(self):
        """Per row, the (model, result) with the least (WER,
        substitutions, model name).  Every row must hold the first row's
        models; otherwise MissingModelError names the record."""
        for record, row in zip(self.records, self.rows):
            if row.keys() != self.rows[0].keys():
                raise MissingModelError(
                    "records do not share a common model set",
                    record_id=record.id)
        return [min(row.items(), key=lambda mr: (mr[1].wer,
                                                 mr[1].substitutions, mr[0]))
                for row in self.rows]

    def oracle_select(self) -> dict[str, str]:
        """Per record id, the model whose hypothesis minimises WER; ties
        go to fewer substitutions, then to the lexicographically smallest
        model name.  Every row must hold the same model set."""
        return {record.id: model for record, (model, _) in
                zip(self.records, self._oracle())}

    def oracle_aggregate(self) -> ErrorAggregate:
        """Micro-averaged aggregate of the per-record oracle choices."""
        return _sum_counts("oracle", [result for _, result in self._oracle()])

    def correlation(self):
        """Pearson correlation of utterance-level WER vectors per model
        pair, as (models, matrix), the models being the first record's,
        sorted.  matrix[i][j] correlates models i and j; the diagonal is
        1, and a model with zero WER variance gives undefined (NaN)
        off-diagonal entries rather than 0."""
        if len(self.records) < 2:
            raise TooFewValuesError(
                "need at least 2 utterances for correlation")
        models = sorted(self.records[0].hypotheses)
        vectors = {m: [r.wer for _, r in self._column(m)] for m in models}
        matrix = [[1.0] * len(models) for _ in models]
        for a in range(len(models)):
            for b in range(a + 1, len(models)):
                r = _pearson(vectors[models[a]], vectors[models[b]])
                matrix[a][b] = matrix[b][a] = r
        return models, matrix


def _pearson(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs) / n)
    sy = math.sqrt(sum((y - my) ** 2 for y in ys) / n)
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
    return cov / (sx * sy)


def score_table(records: Iterable,
                models: Sequence[str] | None = None) -> ScoreTable:
    """Align every record against `models` (default: each record's own
    models, sorted), one row per record."""
    records = list(records)
    return ScoreTable(records, [
        score_row(r, sorted(r.hypotheses) if models is None else models)
        for r in records])
