"""Pipeline benchmark for asrcausal.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each stage runs as a fresh ``python -m asrcausal.cli <stage>`` process
against the checkout's ``src`` (through PYTHONPATH), as a user would run
it.  Inputs are written from the seed before timing starts.

With ``--trace 0`` the run repeats whole pipeline passes while the time
budget lasts: a set-up sample (``--help``: interpreter start to parser
ready), then each stage with ``--force`` and at once again without it on
unchanged inputs.  The time left over goes to more set-up samples and
re-runs.  It reports end-to-end metrics,
each a median over the run.
With ``--trace 1`` it makes one pass in which every stage runs untraced
and then under tracer.py, and reports per-layer metrics plus the tracing
overhead.

Every output is checked; the last line of standard output is the JSON
result.  A run record (inputs, environment, invocations, checks and
output digests) is written to ``.perfbench/<workload>/record.json``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402

SYNTH_ROWS = 200_000
REPORT_MODEL = "whisper"
SKIP_MARK = "is fresh, skipping"
ALL_STAGES = ("synth", "align", "covariates", "discretize", "oracle",
              "correlate", "fit", "report")

# Stage order, invocation and parallelism of each workload.  The reasons
# are in perfbench/README.md; BENCHMARK.json carries the one-line form.
WORKLOADS = {
    "utt-short": {"records": 600, "parallel": 1},
    "synth-validate": {"parallel": 1},
}


def stage_argvs(workload: str, seed: int) -> list[tuple[str, list[str], list[str]]]:
    """(stage, CLI arguments without --force, outputs) in run order."""
    if workload == "synth-validate":
        return [
            ("synth", ["synth", "--spec", "paper-shaped", "--n",
                       str(SYNTH_ROWS), "--seed", str(seed), "--out",
                       "data.json", "--truths", "truths.json"],
             ["data.json", "truths.json"]),
            ("fit", ["fit", "--in", "data.json", "--graph", "paper-default",
                     "--out", "cpts.json"], ["cpts.json"]),
            # default --on-empty error: every stratum is populated at n=200k
            ("report", ["report", "--in", "fixture=data.json", "--graph",
                        "paper-default", "--out", "report.json",
                        "--plot-dir", "plots"], ["report.json", "plots"]),
        ]
    return [
        ("align", ["align", "--in", "records.jsonl", "--out", "scores.jsonl"],
         ["scores.jsonl"]),
        ("covariates", ["covariates", "--in", "records.jsonl", "--out",
                        "enriched.jsonl", "--freq-table", "freq_a.csv",
                        "--freq-table", "freq_b.csv", "--posteriors",
                        "posteriors.jsonl", "--segments", "segments.jsonl",
                        "--inventory", "phones.json", "--audio-dir", "audio"],
         ["enriched.jsonl"]),
        ("discretize", ["discretize", "--records", "enriched.jsonl",
                        "--scores", "scores.jsonl", "--model", REPORT_MODEL,
                        "--out", "dataset.json", "--schemes-out",
                        "schemes.json"], ["dataset.json", "schemes.json"]),
        ("oracle", ["oracle", "--in", "records.jsonl", "--out",
                    "oracle.json"], ["oracle.json"]),
        ("correlate", ["correlate", "--in", "records.jsonl", "--out",
                       "correlation.csv"], ["correlation.csv"]),
        ("fit", ["fit", "--in", "dataset.json", "--graph", "paper-default",
                 "--out", "cpts.json"], ["cpts.json"]),
        # --on-empty skip: some [Age, VocabDiff] strata lack GoP=High at
        # this size, which the default turns into E_EMPTY_STRATUM
        ("report", ["report", "--in", f"{REPORT_MODEL}=dataset.json",
                    "--records", "records.jsonl", "--scores", "scores.jsonl",
                    "--out", "report.json", "--plot-dir", "plots",
                    "--on-empty", "skip"], ["report.json", "plots"]),
    ]


class Proc:
    """Wall, CPU and peak RSS of one finished child process."""

    def __init__(self, argv, cwd: Path, env: dict, log: Path):
        start = time.perf_counter()
        with open(log, "wb") as err:
            child = subprocess.Popen(argv, cwd=cwd, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
        self.wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again
        child.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.err = log.read_text(errors="replace")


class Ledger:
    """Attempted and failed operations: stage invocations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[dict] = []

    def op(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _digests(work: Path, names) -> dict[str, str]:
    out = {}
    for name in names:
        path = work / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) \
            if path.is_dir() else [path]
        for f in files:
            out[str(f.relative_to(work))] = hashlib.sha256(
                f.read_bytes()).hexdigest() if f.exists() else "missing"
    return out


def _stage_env(parallel: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "ASRCAUSAL_"))}
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "ASRCAUSAL_PARALLEL": str(parallel),
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    })
    return env


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.spec = WORKLOADS[workload]
        self.nproc = len(os.sched_getaffinity(0))
        self.parallel = self.spec["parallel"]
        self.env = _stage_env(self.parallel)
        self.work = ROOT / ".perfbench" / workload
        self.logs = self.work / "logs"
        self.stages = stage_argvs(workload, seed % 2 ** 32)
        self.outputs = [o for _, _, outs in self.stages for o in outs]
        self.ledger = Ledger()
        self.n_spawn = 0

    def spawn(self, argv) -> Proc:
        self.n_spawn += 1
        return Proc(argv, self.work, self.env,
                    self.logs / f"{self.n_spawn:04d}.err")

    def cli(self, args) -> list[str]:
        return [sys.executable, "-m", "asrcausal.cli", *args]

    def prepare(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.logs.mkdir(parents=True)
        if self.workload == "utt-short":
            gen.write_short(self.work, self.seed, self.spec["records"])
        inputs = {}
        for p in sorted(self.work.rglob("*")):
            if p.is_file() and self.logs not in p.parents:
                inputs[str(p.relative_to(self.work))] = {
                    "bytes": p.stat().st_size,
                    "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
        # warm the bytecode and file caches; record the environment
        probe = self.spawn([sys.executable, "-c", (
            "import json, sys, numpy, scipy, asrcausal.cli\n"
            "from asrcausal import alignment\n"
            "print(json.dumps({'kernel_backend': alignment.kernel_backend(),"
            " 'python': sys.version.split()[0], 'numpy': numpy.__version__,"
            " 'scipy': scipy.__version__}), file=sys.stderr)")])
        self.ledger.op("environment.probe", probe.rc == 0, probe.err[-300:])
        environment = json.loads(probe.err.strip().splitlines()[-1]) \
            if probe.rc == 0 else {}
        environment.update(nproc=self.nproc, ASRCAUSAL_PARALLEL=self.parallel)
        return {"inputs": inputs, "environment": environment}

    def run_pass(self, runners: dict) -> dict | None:
        """Every stage with --force, each followed at once by a re-run
        without --force that must skip and leave the outputs unchanged.
        With several runners (plain and traced), each takes its turn on a
        stage before the next stage starts, so their walls are taken
        moments apart, and all must write the same bytes.  Returns the
        processes per runner, kind and stage, or None when a stage
        failed."""
        runs = {label: {"forced": {}, "rerun": {}} for label in runners}
        for i, (name, args, outputs) in enumerate(self.stages):
            first = None
            for label, runner in runners.items():
                proc = self.spawn(runner(name, "forced", [*args, "--force"]))
                self.ledger.op(f"{name}.exit", proc.rc == 0, proc.err[-300:])
                if proc.rc != 0:
                    for later, _, _ in self.stages[i + 1:]:
                        self.ledger.op(f"{later}.exit", False,
                                       f"{name} failed")
                    return None
                runs[label]["forced"][name] = proc
                written = _digests(self.work, outputs)
                if first is None:
                    first = written
                else:
                    self.ledger.op(f"{name}.same_bytes_{label}",
                                   written == first)
                runs[label]["rerun"][name] = self.rerun(
                    runner(name, "rerun", args), name, outputs, written)
        return {"runs": runs, "digests": _digests(self.work, self.outputs)}

    def rerun(self, argv, name: str, outputs, written: dict) -> Proc:
        """One invocation without --force on unchanged inputs: it must
        skip and leave the outputs as `written`."""
        proc = self.spawn(argv)
        self.ledger.op(f"{name}.rerun_skips",
                       proc.rc == 0 and SKIP_MARK in proc.err
                       and _digests(self.work, outputs) == written,
                       proc.err[-300:])
        return proc

    def check_outputs(self):
        n_rows = SYNTH_ROWS if self.workload == "synth-validate" \
            else self.spec["records"]
        for name, ok, detail in checks.check_workload(
                self.workload, self.work, self.seed, n_rows, REPORT_MODEL):
            self.ledger.op(name, ok, detail)

    # --- tracing off: end-to-end metrics --------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        """Whole passes while the time budget lasts, each opened by one
        set-up sample.  The time left when no further pass fits goes to
        re-run cycles: a set-up sample, then every stage re-run once.
        The speed of a shared machine drifts within seconds, so every
        time is a median over the whole run: `pipeline_s` and `rerun_s`
        add up the median wall of each stage."""
        start = time.perf_counter()
        setup = []
        reruns = {name: [] for name, _, _ in self.stages}

        def sample_setup():
            proc = self.spawn(self.cli(["--help"]))
            self.ledger.op("setup.exit", proc.rc == 0, proc.err[-300:])
            setup.append(proc.wall)

        passes = []
        while True:
            began = time.perf_counter()
            sample_setup()
            result = self.run_pass(
                {"plain": lambda name, kind, args: self.cli(args)})
            if result is None:
                break
            passes.append(result)
            for name, proc in result["runs"]["plain"]["rerun"].items():
                reruns[name].append(proc.wall)
            now = time.perf_counter()
            if now - start + (now - began) > self.seconds:
                break
        written = {name: _digests(self.work, outputs)
                   for name, _, outputs in self.stages}
        cycle = setup[-1] + sum(w[-1] for w in reruns.values()) \
            if passes else math.inf
        while time.perf_counter() - start + cycle <= self.seconds:
            began = time.perf_counter()
            sample_setup()
            for name, args, outputs in self.stages:
                reruns[name].append(self.rerun(
                    self.cli(args), name, outputs, written[name]).wall)
            cycle = time.perf_counter() - began
        if passes:
            self.check_outputs()
            self.ledger.op("determinism.pass_digests",
                           all(p["digests"] == passes[0]["digests"]
                               for p in passes))
        passes_run = [r["runs"]["plain"] for r in passes]
        procs = [p for r in passes_run for kind in ("forced", "rerun")
                 for p in r[kind].values()]
        metrics = {"setup_s": (statistics.median(setup), "s")}
        if passes:
            metrics.update({
                "pipeline_s": (sum(statistics.median(
                    r["forced"][name].wall for r in passes_run)
                    for name, _, _ in self.stages), "s"),
                "rerun_s": (sum(statistics.median(w)
                                for w in reruns.values()), "s"),
                "peak_rss_mb": (max(p.rss_mb for p in procs), "MB"),
            })
        metrics["ok_share"] = (1.0 - len(self.ledger.failures)
                               / self.ledger.attempted, "share")
        record = {
            "setup_walls_s": setup,
            "rerun_walls_s": reruns,
            "passes": [{kind: {n: {"wall_s": p.wall, "cpu_s": p.cpu,
                                   "rss_mb": p.rss_mb}
                               for n, p in r[kind].items()}
                        for kind in ("forced", "rerun")} for r in passes_run],
            "output_digests": passes[0]["digests"] if passes else {},
        }
        return metrics, record

    # --- tracing on: per-layer metrics ----------------------------------

    def per_layer(self) -> tuple[dict, dict]:
        traces = {}

        def traced(name, kind, args):
            out = self.logs / f"trace_{name}_{kind}.json"
            traces[(name, kind)] = out
            return [sys.executable, str(BENCH / "tracer.py"), str(out), *args]

        result = self.run_pass(
            {"plain": lambda name, kind, args: self.cli(args),
             "traced": traced})
        if result is None:
            return {}, {}
        self.check_outputs()
        plain, with_trace = result["runs"]["plain"], result["runs"]["traced"]
        loaded = {key: json.loads(path.read_text())
                  for key, path in traces.items() if path.exists()}
        n_pairs = self.spec.get("records", 0) * len(gen.MODELS)
        metrics = layer_metrics(loaded, n_pairs)
        overhead = 0.0
        for stage in ALL_STAGES:
            p = plain["forced"].get(stage)
            t = with_trace["forced"].get(stage)
            metrics[f"{stage}.wall_s"] = (p.wall if p else 0.0, "s")
            metrics[f"{stage}.cpu_s"] = (p.cpu if p else 0.0, "s")
            metrics[f"{stage}.rss_mb"] = (p.rss_mb if p else 0.0, "MB")
            gap = t.wall - p.wall if p else 0.0
            metrics[f"{stage}.trace_overhead_s"] = (gap, "s")
            overhead += gap
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["cli.rerun_skips"] = (sum(
            SKIP_MARK in p.err for p in with_trace["rerun"].values()), "count")
        absent = sorted({n for doc in loaded.values() for n in doc["absent"]})
        record = {"absent": absent,
                  "trace_functions": {f"{s}/{k}": doc["functions"]
                                      for (s, k), doc in loaded.items()},
                  "output_digests": result["digests"]}
        return metrics, record


# name, function, field, unit: summed over every traced stage process
_FUNCTION_METRICS = [
    ("ingest.parse_utterances.s", "ingest.parse_utterances", "s", "s"),
    ("ingest.parse_utterances.records", "ingest.parse_utterances",
     "records", "count"),
    ("ingest.parse_report.s", "ingest.parse_report", "s", "s"),
    ("ingest.parse_report.bytes", "ingest.parse_report", "bytes", "B"),
    ("ingest.write_report.s", "ingest.write_report", "s", "s"),
    ("ingest.write_report.bytes", "ingest.write_report", "bytes", "B"),
    ("ingest.write_utterances.s", "ingest.write_utterances", "s", "s"),
    ("ingest.emit_plot_data.s", "ingest.emit_plot_data", "s", "s"),
    ("alignment.normalize_text.calls", "alignment.normalize_text", "calls",
     "count"),
    ("alignment.normalize_text.s", "alignment.normalize_text", "s", "s"),
    ("alignment.align.calls", "alignment.align", "calls", "count"),
    ("alignment.align.s", "alignment.align", "s", "s"),
    ("alignment.align.cells", "alignment.align", "cells", "count"),
    ("alignment.score_record.calls", "alignment.score_record", "calls",
     "count"),
    ("alignment.score_record.self_s", "alignment.score_record", "self_s", "s"),
    ("alignment.oracle_select.s", "alignment.oracle_select", "s", "s"),
    ("alignment.oracle_aggregate.s", "alignment.oracle_aggregate", "s", "s"),
    ("alignment.score_dataset.s", "alignment.score_dataset", "s", "s"),
    ("alignment.model_correlation.s", "alignment.model_correlation", "s",
     "s"),
    ("covariates.sentence_difficulty.calls", "covariates.sentence_difficulty",
     "calls", "count"),
    ("covariates.sentence_difficulty.s", "covariates.sentence_difficulty",
     "s", "s"),
    ("covariates.gop_utterance.calls", "covariates.gop_utterance", "calls",
     "count"),
    ("covariates.gop_utterance.s", "covariates.gop_utterance", "s", "s"),
    ("covariates.estimate_snr.calls", "covariates.estimate_snr", "calls",
     "count"),
    ("covariates.estimate_snr.s", "covariates.estimate_snr", "s", "s"),
    ("covariates.word_count.s", "covariates.word_count", "s", "s"),
    ("covariates.parse_posterior_frames.s", "covariates.parse_posterior_frames",
     "s", "s"),
    ("covariates.parse_segments.s", "covariates.parse_segments", "s", "s"),
    ("covariates.read_audio.s", "covariates.read_audio", "s", "s"),
    ("discretize.fit_kde_bins.s", "discretize.fit_kde_bins", "s", "s"),
    ("discretize.fit_sigma_bins.s", "discretize.fit_sigma_bins", "s", "s"),
    ("discretize.fit_quantile_bins.s", "discretize.fit_quantile_bins", "s",
     "s"),
    ("discretize.apply_bins_array.s", "discretize.apply_bins_array", "s", "s"),
    ("discretize.apply_bins_array.values", "discretize.apply_bins_array",
     "values", "count"),
    ("causal.DiscreteDataset.from_rows.s", "causal.DiscreteDataset.from_rows",
     "s", "s"),
    ("causal.DiscreteDataset.from_document.s",
     "causal.DiscreteDataset.from_document", "s", "s"),
    ("causal.DiscreteDataset.to_document.s",
     "causal.DiscreteDataset.to_document", "s", "s"),
    ("causal.fit_cpts.s", "causal.fit_cpts", "s", "s"),
    ("causal.ace.calls", "causal.ace", "calls", "count"),
    ("causal.ace.s", "causal.ace", "s", "s"),
    ("causal.conditional_mutual_information.calls",
     "causal.conditional_mutual_information", "calls", "count"),
    ("causal.conditional_mutual_information.s",
     "causal.conditional_mutual_information", "s", "s"),
    ("causal.edge_report.s", "causal.edge_report", "s", "s"),
    ("synthetic.generate.s", "synthetic.generate", "s", "s"),
    ("synthetic.true_ace.calls", "synthetic.true_ace", "calls", "count"),
    ("synthetic.true_ace.s", "synthetic.true_ace", "s", "s"),
    ("synthetic.true_cmi.calls", "synthetic.true_cmi", "calls", "count"),
    ("synthetic.true_cmi.s", "synthetic.true_cmi", "s", "s"),
]


def _field(functions: dict, fn: str, field: str):
    entry = functions.get(fn)
    if entry is None:
        return 0
    return entry[field] if field in entry else entry["counts"].get(field, 0)


def layer_metrics(loaded: dict, n_pairs: int) -> dict:
    """Per-layer metrics from the tracer documents of one traced pass."""
    total: dict = {}
    for doc in loaded.values():
        for fn, entry in doc["functions"].items():
            agg = total.setdefault(fn, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "counts": {}})
            for key in ("calls", "s", "self_s"):
                agg[key] += entry[key]
            for key, value in entry["counts"].items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
    metrics = {name: (_field(total, fn, field), unit)
               for name, fn, field, unit in _FUNCTION_METRICS}
    align_s = metrics["alignment.align.s"][0]
    metrics["alignment.align.cells_per_s"] = (
        metrics["alignment.align.cells"][0] / align_s if align_s else 0.0,
        "1/s")
    metrics["cli.import_s"] = (statistics.median(
        doc["import_s"] for doc in loaded.values()), "s")
    metrics["cli.self_s"] = (_field(total, "cli.main", "self_s"), "s")
    for key in ("kde_fallbacks", "label_shrinks"):
        metrics[f"discretize.{key}"] = (sum(
            _field(total, fn, key) for fn in
            ("discretize.fit_kde_bins", "discretize.fit_sigma_bins",
             "discretize.fit_quantile_bins")), "count")
    for stage in ("align", "oracle", "correlate", "report"):
        doc = loaded.get((stage, "forced"))
        calls = _field(doc["functions"], "alignment.align", "calls") \
            if doc else 0
        metrics[f"{stage}.align_calls_per_pair"] = (
            calls / n_pairs if n_pairs else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asrcausal" / "cli.py").is_file():
        print(f"no asrcausal sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    setup = run.prepare()
    if args.trace:
        metrics, detail = run.per_layer()
    else:
        metrics, detail = run.end_to_end()
    try:
        why = next(w["why"] for w in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["workloads"]
            if w["name"] == args.workload)
    except (OSError, ValueError, KeyError, StopIteration):
        why = None
    record = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": {"records": run.spec.get("records"),
                  "models": sorted(gen.MODELS),
                  "synth_rows": SYNTH_ROWS},
        "invocations": [["python", "-m", "asrcausal.cli", *a]
                        for _, a, _ in run.stages],
        **setup, **detail,
        "checks": run.ledger.checks,
    }
    (run.work / "record.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in run.ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"record: {run.work / 'record.json'}")
    print(json.dumps({
        "correct": not run.ledger.failures,
        "attempted": run.ledger.attempted,
        "failed": len(run.ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
