"""The score table: one alignment per (record, model) pair per stage, and
the bytes of every output derived from it."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from asrcausal import alignment, cli
from asrcausal.errors import (DuplicateIdError, EmptyReferenceError,
                              SchemaError)
from asrcausal.ingest import UtteranceRecord

SRC = Path(__file__).resolve().parents[1] / "src"

MODELS = ("alpha", "beta", "gamma")
GRADES = ("K", "1", "2", "3")
WORDS = ["the", "cat", "sat", "on", "a", "mat", "we", "read", "books",
         "in", "morning", "it's", "fast", "big", "dog", "ran", "home"]


def fixture_records(n=48, seed=3):
    """Seeded records: capitalized, punctuated references; three noisy
    hypotheses each (some upper-cased); every twelfth record ungraded."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        ref = rng.sample(WORDS, rng.randint(2, 8))
        reference = " ".join(ref).capitalize() + rng.choice(["", ".", "!"])
        hypotheses = {}
        for model in MODELS:
            hyp = []
            for word in ref:
                roll = rng.random()
                if roll < 0.12:
                    continue
                hyp.append(rng.choice(WORDS) if roll < 0.27 else word)
                if rng.random() < 0.08:
                    hyp.append(rng.choice(WORDS))
            hypotheses[model] = " ".join(hyp).upper() if i % 5 == 0 \
                else " ".join(hyp)
        rec = {"id": f"r{i:02d}", "speaker_id": f"s{i % 4}",
               "reference": reference, "hypotheses": hypotheses,
               "grade": None if i % 12 == 11 else GRADES[i % 4]}
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


# sha256 of each output, computed with the per-call scoring code that
# aligned every pair up to 3.25 times per stage
PINS = {
    "oracle.json":
        "7459e75d9665ecfbabf1e9de355b067522247d9e170c968b8decd402d7ab6f70",
    "correlation.csv":
        "d45a42b5dd41bfcc351bf84cda5b81a82aa991e75b3e845ccdab05148ac377f8",
    "corr_K.csv":
        "9585d74094578d5f7dedaa6cb3db47341ff4a54957842f21778ce40c00234c73",
    "corr_1.csv":
        "aa478cca9a29cc5660e95a8ed676172dfebcbe0e2a83f813b1bf959ecd9b7c34",
    "corr_2.csv":
        "63c18881db4410a2c6ad8b3a82b3b640b4800e30566173dc716cb739fdaa94f1",
    "corr_3.csv":
        "30ca6cbc7d2c89e84e0c000b9b7f50f74b249438a6ae6ef2f8764d4401b5bc88",
    "scores.jsonl":
        "50907c770bb2b8042517365614ab96de17f2d28d967b2123af77052b6eab415a",
    "report.json":
        "d3597581afdc7cbd3ecb3e1bdf0e09e81e3c548a7bd12db66abcf4b5629148d3",
}

REPORT = ["report", "--in", "fixture=data.json", "--records", "records.jsonl",
          "--on-empty", "skip"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """records.jsonl, the scores ``align`` writes for it, and a small
    synthetic dataset for the causal half of ``report``."""
    base = tmp_path_factory.mktemp("score_table")
    (base / "records.jsonl").write_text(fixture_records())
    cwd = os.getcwd()
    os.chdir(base)
    try:
        assert cli.main(["align", "--in", "records.jsonl",
                         "--out", "scores.jsonl"]) == 0
        assert cli.main(["synth", "--spec", "paper-shaped", "--n", "400",
                         "--seed", "2", "--out", "data.json"]) == 0
    finally:
        os.chdir(cwd)
    return base


@pytest.fixture
def work(inputs, tmp_path, monkeypatch):
    for name in ("records.jsonl", "scores.jsonl", "data.json"):
        (tmp_path / name).write_bytes((inputs / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestPinnedBytes:
    def test_outputs_match_pins(self, work):
        assert cli.main(["oracle", "--in", "records.jsonl",
                         "--out", "oracle.json"]) == 0
        assert cli.main(["correlate", "--in", "records.jsonl",
                         "--out", "correlation.csv"]) == 0
        assert cli.main(["correlate", "--in", "records.jsonl",
                         "--out", "corr.csv", "--by-grade"]) == 0
        assert cli.main([*REPORT, "--out", "report.json"]) == 0
        assert {name: sha256(work / name) for name in PINS} == PINS

    def test_report_with_scores_writes_the_same_bytes(self, work):
        assert cli.main([*REPORT, "--out", "a.json",
                         "--plot-dir", "plots_a"]) == 0
        assert cli.main([*REPORT, "--scores", "scores.jsonl",
                         "--out", "b.json", "--plot-dir", "plots_b"]) == 0
        assert (work / "a.json").read_bytes() == (work / "b.json").read_bytes()
        assert sha256(work / "b.json") == PINS["report.json"]
        plots_a = {p.name: p.read_bytes() for p in (work / "plots_a").iterdir()}
        plots_b = {p.name: p.read_bytes() for p in (work / "plots_b").iterdir()}
        assert plots_a == plots_b
        assert "correlation.csv" in plots_a


@pytest.fixture
def counted(monkeypatch):
    """Record calls to the alignment kernel entry and to normalization,
    with the argument of each normalization call."""
    calls = {"align": [], "normalize": []}
    align, normalize = alignment.align, alignment.normalize_text

    def counting_align(reference, hypothesis):
        calls["align"].append(len(reference))
        return align(reference, hypothesis)

    def counting_normalize(raw):
        calls["normalize"].append(raw)
        return normalize(raw)

    monkeypatch.setattr(alignment, "align", counting_align)
    monkeypatch.setattr(alignment, "normalize_text", counting_normalize)

    return calls


def references(path: Path, graded_only=False) -> list[str]:
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    return [r["reference"] for r in recs
            if not graded_only or r["grade"] is not None]


class TestAlignOncePerPair:
    @pytest.mark.parametrize("argv, graded_only", [
        (["align", "--in", "records.jsonl", "--out", "s.jsonl"], False),
        (["align", "--in", "records.jsonl", "--out", "s.jsonl",
          "--models", "gamma,alpha,beta"], False),
        (["oracle", "--in", "records.jsonl", "--out", "o.json"], False),
        (["correlate", "--in", "records.jsonl", "--out", "c.csv"], False),
        (["correlate", "--in", "records.jsonl", "--out", "c.csv",
          "--by-grade"], True),
        ([*REPORT, "--out", "r.json"], False),
    ])
    def test_one_align_per_pair_one_normalize_per_text(self, work, counted,
                                                       argv, graded_only):
        calls = counted
        assert cli.main(argv) == 0
        refs = references(work / "records.jsonl", graded_only)
        pairs = len(refs) * len(MODELS)
        assert len(calls["align"]) == pairs
        assert len(calls["normalize"]) == len(refs) + pairs
        for ref in refs:
            assert calls["normalize"].count(ref) == 1

    def test_report_with_scores_aligns_nothing(self, work, counted):
        calls = counted
        assert cli.main([*REPORT, "--scores", "scores.jsonl",
                         "--out", "r.json"]) == 0
        assert calls["align"] == []
        # each reference once, for the staleness check
        assert sorted(calls["normalize"]) \
            == sorted(references(work / "records.jsonl"))


def record(uid, reference, hypotheses, **kw):
    return UtteranceRecord(id=uid, speaker_id="spk", reference=reference,
                           hypotheses=hypotheses, **kw)


class TestScoreTable:
    def records(self):
        return [record("a", "the cat sat", {"m": "the cat", "n": "a cat sat"},
                       grade="K"),
                record("b", "We read books.", {"m": "we read books",
                                               "n": "we red books too"}),
                record("c", "big dog", {"m": "", "n": "big dog"}, grade="1")]

    def test_rows_match_per_pair_alignment(self):
        recs = self.records()
        table = alignment.score_table(recs)
        for rec, row in zip(recs, table.rows):
            assert set(row) == set(rec.hypotheses)
            for model, result in row.items():
                assert result == alignment.align(
                    alignment.normalize_text(rec.reference),
                    alignment.normalize_text(rec.hypotheses[model]))

    def test_persisted_table_round_trips(self):
        recs = self.records()
        table = alignment.score_table(recs)
        stream = io.StringIO(table.to_jsonl())
        assert alignment.ScoreTable.read(stream, recs) == table

    def test_derivations_match_per_pair_alignment(self):
        recs = self.records()
        table = alignment.score_table(recs)
        pairs = [{model: alignment.align(
                      alignment.normalize_text(rec.reference),
                      alignment.normalize_text(hyp))
                  for model, hyp in rec.hypotheses.items()} for rec in recs]

        def summed(key, results):
            return alignment.ErrorAggregate(
                key, sum(r.substitutions for r in results),
                sum(r.deletions for r in results),
                sum(r.insertions for r in results),
                sum(r.ref_len for r in results))

        assert table.aggregate("m") == [
            summed("all", [row["m"] for row in pairs])]
        # per record, the model with the least (WER, substitutions, name)
        best = [min(row, key=lambda m: (row[m].wer, row[m].substitutions, m))
                for row in pairs]
        assert best == ["m", "m", "n"]
        assert table.oracle_select() == {
            rec.id: model for rec, model in zip(recs, best)}
        assert table.oracle_aggregate() == summed(
            "oracle", [row[model] for row, model in zip(pairs, best)])
        wers = [[row[m].wer for row in pairs] for m in ("m", "n")]
        means = [sum(w) / len(w) for w in wers]
        cov, var_m, var_n = (
            sum((a - means[i]) * (b - means[j])
                for a, b in zip(wers[i], wers[j]))
            for i, j in ((0, 1), (0, 0), (1, 1)))
        models, matrix = table.correlation()
        assert models == ["m", "n"]
        assert matrix[0][1] == matrix[1][0] == pytest.approx(
            cov / math.sqrt(var_m * var_n), abs=1e-12)
        graded = table.where(lambda r: r.grade is not None)
        assert [r.id for r in graded.records] == ["a", "c"]

    def test_read_rejects_bad_counts(self):
        recs = self.records()[:1]
        good = {"substitutions": 0, "deletions": 1, "insertions": 0,
                "ref_len": 3}
        for bad in ({**good, "deletions": -1}, {**good, "ref_len": 3.0},
                    {**good, "insertions": True}, {"ref_len": 3}, [0, 1]):
            with pytest.raises(SchemaError):
                alignment.ScoreTable.read(io.StringIO(dump(
                    [{"id": "a", "scores": {"m": good, "n": bad}}])), recs)

    def test_read_rejects_empty_reference(self):
        recs = [record("e", "?!", {"m": "a"})]
        zero = {"substitutions": 0, "deletions": 0, "insertions": 1,
                "ref_len": 0}
        with pytest.raises(EmptyReferenceError):
            alignment.ScoreTable.read(io.StringIO(dump(
                [{"id": "e", "scores": {"m": zero}}])), recs)

    @pytest.mark.parametrize("line, error, message", [
        ('{"id": "a", "scores": {}}', DuplicateIdError,
         "line 3: duplicate id 'a'"),
        ('[1]', SchemaError, "line 3: line must be a JSON object"),
        ('{"id": 5, "scores": {}}', SchemaError,
         "line 3: score lines need a string 'id' and 'scores'"),
    ], ids=["duplicate", "not-object", "id-not-string"])
    def test_line_errors_precede_record_errors(self, line, error, message):
        # record "a" has no scores object, but line 3 fails first
        text = dump([{"id": "a", "scores": None}, {"id": "b", "scores": {}}])
        with pytest.raises(error) as err:
            alignment.ScoreTable.read(io.StringIO(text + line + "\n"),
                                      self.records())
        assert str(err.value) == message

    @pytest.mark.parametrize("scores", [None, 5, [1]],
                             ids=["null", "int", "list"])
    def test_read_refuses_a_non_object_scores_entry(self, scores):
        text = dump([{"id": "a", "scores": scores}])
        with pytest.raises(SchemaError) as err:
            alignment.ScoreTable.read(io.StringIO(text), self.records()[:1])
        assert str(err.value) == ("scores file has no scores object for "
                                  "this record (record 'a')")


def run_report(work, scores_text):
    (work / "bad.jsonl").write_text(scores_text)
    return subprocess.run(
        [sys.executable, "-m", "asrcausal.cli", *REPORT, "--scores",
         "bad.jsonl", "--out", "r.json"],
        cwd=work, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)


def score_lines(work):
    return [json.loads(line)
            for line in (work / "scores.jsonl").read_text().splitlines()]


def dump(lines):
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


class TestReportScoresValidation:
    def assert_schema_error(self, proc, record_id):
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        diagnostic = json.loads(proc.stderr)
        assert diagnostic["error"] == "E_SCHEMA"
        assert diagnostic["record"] == record_id

    def test_missing_record(self, work):
        lines = [ln for ln in score_lines(work) if ln["id"] != "r05"]
        self.assert_schema_error(run_report(work, dump(lines)), "r05")

    def test_missing_model(self, work):
        lines = score_lines(work)
        del lines[7]["scores"]["beta"]
        self.assert_schema_error(run_report(work, dump(lines)), "r07")

    def test_stale_ref_len(self, work):
        recs = [json.loads(ln) for ln in
                (work / "records.jsonl").read_text().splitlines()]
        recs[9]["reference"] += " and then some"
        (work / "records.jsonl").write_text(dump(recs))
        proc = run_report(work, dump(score_lines(work)))
        self.assert_schema_error(proc, "r09")
        assert "stale" in json.loads(proc.stderr)["message"]

    @pytest.mark.parametrize("line, code", [
        ('{"id": "r00", "scores": {}}', "E_DUPLICATE_ID"),
        ('"id scores"', "E_SCHEMA"),
        ('{"id": ["r00"], "scores": {}}', "E_SCHEMA"),
    ])
    def test_malformed_or_duplicate_line(self, work, line, code):
        text = (work / "scores.jsonl").read_text() + line + "\n"
        proc = run_report(work, text)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == code

    def test_scores_without_records(self, work, capsys):
        assert cli.main(["report", "--in", "fixture=data.json", "--scores",
                         "scores.jsonl", "--out", "r.json"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "E_SCHEMA"
