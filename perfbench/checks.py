"""Output checks.  Each check recomputes what a stage wrote from its
inputs with code of the benchmark's own (text normalization, a reference
DP, NumPy aggregates) and returns (name, ok, detail) triples.  One triple
is one counted operation."""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from pathlib import Path

import numpy as np

TOL = 1e-6                      # outputs are quantized to six decimals
ERROR_NODES = ("SubsErr", "DelErr", "InsErr")    # columns S, D, I
# Acceptance tolerances of the synthetic validation at n=200k.  They are
# pinned on one fixture seed; over arbitrary seeds the Age->GoP estimate
# (ordinal outcome, about n/11 rows per arm) has a sampling standard
# error near 0.008, so an ACE gap may also reach ACE_SE_MULTIPLE standard
# errors of its own estimate before the check fails.
ACE_TOL_EXOGENOUS = 0.01
ACE_TOL_GOP = 0.02
ACE_SE_MULTIPLE = 5.0
CMI_TOL = 0.02
# Backdoor adjustment sets of the paper-default graph (parents of the
# treatment); every other node is exogenous.
ADJUST = {"GoP": ("Age", "VocabDiff")}
DP_CELLS = 600_000           # budget of the reference-DP sample

_STRIP = re.compile(r"[^a-z0-9\s']")


def normalize(raw: str) -> list[str]:
    """README rule: lowercase, drop punctuation except apostrophes with a
    letter or digit on both sides, split on whitespace."""
    text = _STRIP.sub("", raw.lower())
    kept = [c for i, c in enumerate(text)
            if c != "'" or (0 < i < len(text) - 1 and text[i - 1].isalnum()
                            and text[i + 1].isalnum())]
    return "".join(kept).split()


def reference_dp(ref: list[str], hyp: list[str]) -> tuple[int, int, int]:
    """(S, D, I) of a minimum-edit alignment; among minimum-cost
    alignments the one with fewest substitutions, then fewest deletions.
    Full table with explicit predecessor choice."""
    n, m = len(ref), len(hyp)
    inf = (math.inf, 0, 0)
    table = [[inf] * (m + 1) for _ in range(n + 1)]
    table[0][0] = (0, 0, 0)           # (cost, subs, dels)
    for i in range(n + 1):
        for j in range(m + 1):
            if i == j == 0:
                continue
            options = []
            if i and j:
                c, s, d = table[i - 1][j - 1]
                miss = ref[i - 1] != hyp[j - 1]
                options.append((c + miss, s + miss, d))
            if i:
                c, s, d = table[i - 1][j]
                options.append((c + 1, s, d + 1))
            if j:
                c, s, d = table[i][j - 1]
                options.append((c + 1, s, d))
            table[i][j] = min(options)
    cost, subs, dels = table[n][m]
    return subs, dels, cost - subs - dels


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and math.isnan(a)
    return abs(a - b) <= TOL


def _result(name: str, failures: list[str]) -> tuple[str, bool, str]:
    return name, not failures, "; ".join(failures[:3])


class Scores:
    """Per-(record, model) counts from align's output, in record order."""

    def __init__(self, work: Path, records: list[dict]):
        lines = read_jsonl(work / "scores.jsonl")
        self.ids = [line["id"] for line in lines]
        self.by_id = {line["id"]: line["scores"] for line in lines}
        self.records = records
        self.models = sorted(records[0]["hypotheses"])

    def counts(self, model: str) -> np.ndarray:
        """(n_records, 4) int array of S, D, I, N."""
        return np.array([[self.by_id[r["id"]][model][k] for k in
                          ("substitutions", "deletions", "insertions",
                           "ref_len")] for r in self.records], dtype=np.int64)

    def wer(self, model: str) -> np.ndarray:
        c = self.counts(model)
        return c[:, :3].sum(axis=1) / c[:, 3]


def check_align(work: Path, records: list[dict], seed: int) -> list:
    scores = Scores(work, records)
    bad_ids, counts, identity = [], [], []
    if scores.ids != [r["id"] for r in records]:
        bad_ids.append("score ids differ from record ids")
    pairs = []
    for rec in records:
        ref = normalize(rec["reference"])
        for model, hyp_text in sorted(rec["hypotheses"].items()):
            got = scores.by_id.get(rec["id"], {}).get(model)
            if got is None:
                bad_ids.append(f"{rec['id']}/{model} missing")
                continue
            s, d, i, n = (got["substitutions"], got["deletions"],
                          got["insertions"], got["ref_len"])
            hyp = normalize(hyp_text)
            if min(s, d, i) < 0 or n != len(ref):
                counts.append(f"{rec['id']}/{model}: {got}")
            if i - d != len(hyp) - len(ref) or s + d > len(ref) \
                    or abs(got["wer"] - (s + d + i) / n) > 1e-12:
                identity.append(f"{rec['id']}/{model}: {got}")
            pairs.append((ref, hyp, (s, d, i), f"{rec['id']}/{model}"))
    random.Random(seed).shuffle(pairs)
    dp, cells = [], 0
    for ref, hyp, got, name in pairs:
        if cells > DP_CELLS:
            break
        cells += (len(ref) + 1) * (len(hyp) + 1)
        want = reference_dp(ref, hyp)
        if want != got:
            dp.append(f"{name}: {got} != {want}")
    return [_result("align.ids", bad_ids), _result("align.counts", counts),
            _result("align.identity", identity),
            _result("align.reference_dp", dp)]


def _aggregate_ok(agg: dict, c: np.ndarray) -> bool:
    s, d, i, n = (int(x) for x in c.sum(axis=0))
    if [agg["substitutions"], agg["deletions"], agg["insertions"],
            agg["ref_len"]] != [s, d, i, n]:
        return False
    rates = {"subs_rate": s, "del_rate": d, "ins_rate": i, "wer": s + d + i}
    return all(_close(agg[k], 100.0 * v / n) for k, v in rates.items())


def check_oracle(work: Path, records: list[dict]) -> list:
    scores = Scores(work, records)
    doc = json.loads((work / "oracle.json").read_text())
    counts = {m: scores.counts(m) for m in scores.models}
    agg_fail = [m for m in scores.models
                if not _aggregate_ok(doc["aggregates"][m], counts[m])]
    choice_fail, chosen = [], []
    for k, rec in enumerate(records):
        best = min((int(counts[m][k, :3].sum()) / int(counts[m][k, 3]),
                    int(counts[m][k, 0]), m) for m in scores.models)
        chosen.append(counts[best[2]][k])
        if doc["choice"].get(rec["id"]) != best[2]:
            choice_fail.append(f"{rec['id']}: {doc['choice'].get(rec['id'])}"
                               f" != {best[2]}")
    if not _aggregate_ok(doc["aggregates"]["oracle"], np.array(chosen)):
        agg_fail.append("oracle")
    return [_result("oracle.aggregates", agg_fail),
            _result("oracle.choice", choice_fail)]


def _expected_corr(scores: Scores) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.corrcoef(np.stack([scores.wer(m) for m in scores.models]))
    np.fill_diagonal(matrix, 1.0)
    return matrix


def _matrix_fail(models, matrix, scores: Scores) -> list[str]:
    if list(models) != scores.models:
        return [f"models {models} != {scores.models}"]
    expected = _expected_corr(scores)
    return [f"[{a}][{b}] {matrix[a][b]} != {expected[a][b]:.6f}"
            for a in range(len(models)) for b in range(len(models))
            if not _close(matrix[a][b], float(expected[a][b]))]


def _read_corr_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    models = rows[0][1:]
    matrix = [[float(v) if v else float("nan") for v in row[1:]]
              for row in rows[1:]]
    return models, matrix


def check_correlate(work: Path, records: list[dict]) -> list:
    scores = Scores(work, records)
    models, matrix = _read_corr_csv((work / "correlation.csv").read_text())
    return [_result("correlate.matrix", _matrix_fail(models, matrix, scores))]


def check_covariates(work: Path, records: list[dict]) -> list:
    enriched = read_jsonl(work / "enriched.jsonl")
    fail = []
    if [e["id"] for e in enriched] != [r["id"] for r in records]:
        fail.append("ids differ")
    for rec, out in zip(records, enriched):
        if out.get("word_count") != len(normalize(rec["reference"])):
            fail.append(f"{rec['id']}: word_count {out.get('word_count')}")
        vd, gop, snr = (out.get(k) for k in ("vocab_difficulty", "gop",
                                               "snr_db"))
        if vd is None or not math.isfinite(vd) or vd < 0:
            fail.append(f"{rec['id']}: vocab_difficulty {vd}")
        if gop is None or gop > 0 or snr is None or not -10 <= snr <= 60:
            fail.append(f"{rec['id']}: gop {gop} snr {snr}")
        for key in ("gop", "snr_db"):
            if key in rec and rec[key] != out.get(key):
                fail.append(f"{rec['id']}: precomputed {key} changed")
    return [_result("covariates.values", fail)]


def check_discretize(work: Path, records: list[dict], model: str) -> list:
    scores = Scores(work, records)
    doc = json.loads((work / "dataset.json").read_text())
    c = scores.counts(model)
    fail = []
    if len(doc["rows"]) != len(records):
        fail.append(f"{len(doc['rows'])} rows for {len(records)} records")
    for col, node in enumerate(ERROR_NODES):
        expected = 100.0 * c[:, col] / c[:, 3]
        got = np.asarray(doc["continuous"][node], dtype=np.float64)
        if got.shape != expected.shape or np.max(np.abs(got - expected)) > TOL:
            fail.append(f"{node} differs from 100*count/N")
    return [_result("discretize.error_columns", fail)]


def check_fit(work: Path, n_rows: int) -> list:
    doc = json.loads((work / "cpts.json").read_text())
    fail = [f"{node}: {total}" for node, table in sorted(doc.items())
            if (total := sum(sum(v) for v in table["counts"].values()))
            != n_rows]
    return [_result("fit.counts_sum_to_n", fail)]


def check_report_utterances(work: Path, records: list[dict],
                            model_name: str) -> list:
    scores = Scores(work, records)
    doc = json.loads((work / "report.json").read_text())
    grades = np.array([r["grade"] for r in records])
    expected = sorted(set(grades), key=str)
    grade_fail = []
    for model in scores.models:
        c = scores.counts(model)
        got = doc["grade_errors"].get(model, [])
        if [a["key"] for a in got] != expected:
            grade_fail.append(f"{model}: grades {[a['key'] for a in got]}")
            continue
        for agg in got:
            if not _aggregate_ok(agg, c[grades == agg["key"]]):
                grade_fail.append(f"{model}/{agg['key']}")
        csv_text = (work / "plots" / f"grade_errors_{model}.csv").read_text()
        by_key = {a["key"]: a for a in got}
        for row in csv.DictReader(io.StringIO(csv_text)):
            agg = by_key[row["grade"]]
            if any(not _close(float(row[k]), agg[k])
                   for k in ("wer", "subs_rate", "del_rate", "ins_rate")):
                grade_fail.append(f"{model}/{row['grade']} csv")
    corr = doc["correlation"]
    matrix = [[float("nan") if v is None else v for v in row]
              for row in corr["matrix"]]
    edges = doc["models"][model_name]["edges"]
    edge_fail = [] if len(edges) == 20 else [f"{len(edges)} edges"]
    return [_result("report.grade_tables", grade_fail),
            _result("report.correlation",
                    _matrix_fail(corr["models"], matrix, scores)),
            _result("report.edges", edge_fail)]


def ace_standard_error(data: dict, cause: str, effect: str) -> float:
    """Standard error of the backdoor ACE estimate (last vs first level of
    the cause) from a dataset document, treating stratum weights as
    fixed."""
    names = [v["name"] for v in data["variables"]]
    codes = np.asarray(data["rows"], dtype=np.int64)
    col = {n: codes[:, j] for j, n in enumerate(names)}
    y = np.asarray(data["continuous"][effect], dtype=np.float64) \
        if effect in data["continuous"] else col[effect].astype(np.float64)
    t = col[cause]
    hi = len(data["variables"][names.index(cause)]["categories"]) - 1
    z = np.zeros(len(t), dtype=np.int64)
    for parent in ADJUST.get(cause, ()):
        k = len(data["variables"][names.index(parent)]["categories"])
        z = z * k + col[parent]
    var, weight = [], []
    for stratum in np.unique(z):
        arms = [y[(z == stratum) & (t == level)] for level in (hi, 0)]
        if min(a.size for a in arms) < 2:
            continue
        var.append(sum(a.var(ddof=1) / a.size for a in arms))
        weight.append(np.sum(z == stratum))
    w = np.asarray(weight, dtype=np.float64) / np.sum(weight)
    return float(np.sqrt(np.sum(w ** 2 * np.asarray(var))))


def check_synth_report(work: Path) -> list:
    truths = {(e["cause"], e["effect"]): e for e in
              json.loads((work / "truths.json").read_text())["edges"]}
    edges = json.loads((work / "report.json").read_text())[
        "models"]["fixture"]["edges"]
    data = json.loads((work / "data.json").read_text())
    fail, worst = [], {"ace_exogenous": 0.0, "ace_gop": 0.0, "cmi": 0.0}
    beyond_fixed = []
    if {(e["cause"], e["effect"]) for e in edges} != set(truths):
        fail.append("edge sets differ")
    for e in edges:
        t = truths.get((e["cause"], e["effect"]))
        if t is None:
            continue
        name = f"{e['cause']}->{e['effect']}"
        kind = "ace_gop" if e["cause"] == "GoP" else "ace_exogenous"
        fixed = ACE_TOL_GOP if e["cause"] == "GoP" else ACE_TOL_EXOGENOUS
        gap = abs(e["ace"] - t["ace"])
        worst[kind] = max(worst[kind], gap)
        if gap > fixed:
            se = ace_standard_error(data, e["cause"], e["effect"])
            beyond_fixed.append(f"{name} {gap:.4f} ({gap / se:.1f} se)")
            if gap > ACE_SE_MULTIPLE * se:
                fail.append(f"{name} ace gap {gap:.4f} > {fixed} and "
                            f"{ACE_SE_MULTIPLE} se ({se:.4f})")
        gap = abs(e["cmi"] - t["cmi"])
        worst["cmi"] = max(worst["cmi"], gap)
        if gap > CMI_TOL:
            fail.append(f"{name} cmi gap {gap:.4f} > {CMI_TOL}")
    detail = ", ".join(f"{k}={v:.4f}" for k, v in worst.items())
    if beyond_fixed:
        detail += "; beyond the fixed tolerance: " + ", ".join(beyond_fixed)
    name, ok, why = _result("synth.report_vs_truths", fail)
    return [(name, ok, why or detail)]


def check_workload(workload: str, work: Path, seed: int, n_rows: int,
                   model: str) -> list:
    """Every output check of one workload's forced pass.  A check that
    cannot read its output fails under the name '<group>.readable'."""
    if workload == "synth-validate":
        groups = [("fit", lambda: check_fit(work, n_rows)),
                  ("synth", lambda: check_synth_report(work))]
    else:
        records = read_jsonl(work / "records.jsonl")
        groups = [("align", lambda: check_align(work, records, seed)),
                  ("oracle", lambda: check_oracle(work, records)),
                  ("correlate", lambda: check_correlate(work, records)),
                  ("covariates", lambda: check_covariates(work, records)),
                  ("discretize", lambda: check_discretize(work, records, model)),
                  ("fit", lambda: check_fit(work, len(records))),
                  ("report",
                   lambda: check_report_utterances(work, records, model))]
    out = []
    for group, check in groups:
        try:
            out += check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            out.append((f"{group}.readable", False, repr(exc)))
    return out
