"""Show that every output check catches a corrupted output.

Usage (from the root of a source checkout):

    python3 perfbench/selftest.py

For each workload, at its benchmark size, it runs one pipeline pass,
requires every check to pass on the real outputs, then corrupts one
output at a time in a copy of the work directory and requires the
targeted check to fail.  The re-run check is shown by touching an input
so that a stage no longer skips.  Exits 1 if any check misses its
corruption or fails on clean output.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import run
from checks import check_workload

SEED = 3


def _edit_json(path: Path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def _edit_jsonl(path: Path, fn):
    lines = [json.loads(x) for x in path.read_text().splitlines() if x]
    lines = fn(lines) or lines
    path.write_text("".join(json.dumps(x) + "\n" for x in lines))


def _edit_csv_cell(path: Path, row: int, col: int, delta: float):
    rows = list(csv.reader(io.StringIO(path.read_text())))
    rows[row][col] = f"{float(rows[row][col]) + delta:.6f}"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _first_score(lines, key, delta):
    model = sorted(lines[0]["scores"])[0]
    lines[0]["scores"][model][key] += delta


def _tie_break_swap(lines):
    """S+2, D-1, I-1: same cost, same I-D and WER, wrong tie-break."""
    for line in lines:
        for s in line["scores"].values():
            if s["deletions"] and s["insertions"]:
                s["substitutions"] += 2
                s["deletions"] -= 1
                s["insertions"] -= 1


def _first_cpt_count(doc):
    node = sorted(doc)[0]
    config = sorted(doc[node]["counts"])[0]
    doc[node]["counts"][config][0] += 1


def _other_choice(doc):
    uid = sorted(doc["choice"])[0]
    models = sorted(doc["aggregates"])
    doc["choice"][uid] = next(m for m in models
                              if m not in (doc["choice"][uid], "oracle"))


# (target check, output file, corruption)
UTTERANCE_CORRUPTIONS = [
    ("align.ids", "scores.jsonl", lambda p: _edit_jsonl(p, lambda x: x[:-1])),
    ("align.counts", "scores.jsonl",
     lambda p: _edit_jsonl(p, lambda x: _first_score(x, "ref_len", 1))),
    ("align.identity", "scores.jsonl",
     lambda p: _edit_jsonl(p, lambda x: _first_score(x, "insertions", 1))),
    ("align.reference_dp", "scores.jsonl",
     lambda p: _edit_jsonl(p, _tie_break_swap)),
    ("oracle.aggregates", "oracle.json",
     lambda p: _edit_json(p, lambda d: d["aggregates"]["canary"].update(
         substitutions=d["aggregates"]["canary"]["substitutions"] + 1))),
    ("oracle.choice", "oracle.json", lambda p: _edit_json(p, _other_choice)),
    ("correlate.matrix", "correlation.csv",
     lambda p: _edit_csv_cell(p, 1, 2, 0.01)),
    ("covariates.values", "enriched.jsonl",
     lambda p: _edit_jsonl(p, lambda x: x[0].update(
         word_count=x[0]["word_count"] + 1))),
    ("discretize.error_columns", "dataset.json",
     lambda p: _edit_json(p, lambda d: d["continuous"]["SubsErr"].__setitem__(
         0, d["continuous"]["SubsErr"][0] + 1.0))),
    ("fit.counts_sum_to_n", "cpts.json",
     lambda p: _edit_json(p, _first_cpt_count)),
    ("report.grade_tables", "report.json",
     lambda p: _edit_json(p, lambda d: d["grade_errors"]["whisper"][0].update(
         wer=d["grade_errors"]["whisper"][0]["wer"] + 0.01))),
    ("report.correlation", "report.json",
     lambda p: _edit_json(p, lambda d: d["correlation"]["matrix"][0].__setitem__(
         1, d["correlation"]["matrix"][0][1] + 0.01))),
    ("report.edges", "report.json",
     lambda p: _edit_json(p, lambda d: d["models"]["whisper"]["edges"].pop())),
]

SYNTH_CORRUPTIONS = [
    ("fit.counts_sum_to_n", "cpts.json",
     lambda p: _edit_json(p, _first_cpt_count)),
    ("synth.report_vs_truths", "report.json",
     lambda p: _edit_json(p, lambda d: d["models"]["fixture"]["edges"][0].update(
         ace=d["models"]["fixture"]["edges"][0]["ace"] + 0.05))),
]


def _failed(workload, work, n_rows) -> set[str]:
    return {name for name, ok, _ in
            check_workload(workload, work, SEED, n_rows, run.REPORT_MODEL)
            if not ok}


def selftest(workload: str) -> list[str]:
    problems = []
    bench = run.Run(workload, SEED, 0)
    bench.work = run.ROOT / ".perfbench" / "selftest" / workload
    bench.logs = bench.work / "logs"
    bench.prepare()
    result = bench.run_pass({"plain": lambda name, kind, args: bench.cli(args)})
    if result is None or bench.ledger.failures:
        return [f"{workload}: pass failed: {bench.ledger.failures}"]
    n_rows = run.SYNTH_ROWS if workload == "synth-validate" \
        else bench.spec["records"]
    clean = _failed(workload, bench.work, n_rows)
    if clean:
        problems.append(f"{workload}: clean outputs fail {sorted(clean)}")
    corruptions = {"utt-short": UTTERANCE_CORRUPTIONS,
                   "synth-validate": SYNTH_CORRUPTIONS}[workload]
    copy = bench.work.parent / f"{workload}-corrupt"
    for target, name, corrupt in corruptions:
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(bench.work, copy, ignore=shutil.ignore_patterns(
            "audio", "logs"))
        corrupt(copy / name)
        failed = _failed(workload, copy, n_rows)
        caught = target in failed
        print(f"[{'caught' if caught else 'MISSED'}] {workload}: {target} "
              f"<- corrupted {name} (failing: {', '.join(sorted(failed))})")
        if not caught:
            problems.append(f"{workload}: {target} missed")
    shutil.rmtree(copy, ignore_errors=True)

    # re-run check: a stage must skip and leave its outputs unchanged
    touched = "data.json" if workload == "synth-validate" else "records.jsonl"
    stage, args, outputs = next(st for st in bench.stages[1:]
                                if touched in st[1])
    future = os.stat(bench.work / outputs[0]).st_mtime + 10
    os.utime(bench.work / touched, (future, future))
    proc = bench.spawn(bench.cli(args))
    caught = run.SKIP_MARK not in proc.err
    print(f"[{'caught' if caught else 'MISSED'}] {workload}: "
          f"{stage}.rerun_skips <- touched {touched}, so {stage} ran")
    if not caught:
        problems.append(f"{workload}: {stage}.rerun_skips missed a run")
    before = run._digests(bench.work, outputs)
    (bench.work / outputs[0]).write_bytes(b"corrupted")
    caught = run._digests(bench.work, outputs) != before
    print(f"[{'caught' if caught else 'MISSED'}] {workload}: "
          f"{stage}.rerun_skips <- overwrote {outputs[0]}")
    if not caught:
        problems.append(f"{workload}: {stage}.rerun_skips missed a rewrite")
    return problems


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        problems += selftest(workload)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
