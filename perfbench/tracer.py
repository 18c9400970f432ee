"""Traced stage process: wrap the public functions of each asrcausal
module, run one CLI stage in-process, and write per-function aggregates.

Usage: python3 perfbench/tracer.py OUT.json STAGE [ARGS...]

Spans are kept per thread (the align thread pool runs them off the main
thread) and aggregated in memory: calls, total time, self time (total
minus the time of directly nested spans on the same thread) and a few
counts taken from arguments or results.  A name that does not exist in
the code under test is reported as absent, not as an error.  The
aggregates are written once, when the stage returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# module -> attribute paths to wrap; a path may name a method of a class.
TARGETS = {
    "cli": ["main", "_parallel_map"],
    "ingest": ["parse_utterances", "write_utterances", "parse_report",
               "write_report", "emit_plot_data"],
    "alignment": ["normalize_text", "align", "score_record", "score_dataset",
                  "oracle_select", "oracle_aggregate", "model_correlation"],
    "covariates": ["sentence_difficulty", "gop_utterance", "estimate_snr",
                   "word_count", "parse_posterior_frames", "parse_segments",
                   "read_audio"],
    "discretize": ["fit_kde_bins", "fit_sigma_bins", "fit_quantile_bins",
                   "apply_bins_array"],
    "causal": ["DiscreteDataset.from_rows", "DiscreteDataset.from_document",
               "DiscreteDataset.to_document", "fit_cpts", "ace",
               "conditional_mutual_information", "edge_report"],
    "synthetic": ["generate", "true_ace", "true_cmi"],
}

_FITS = {"discretize.fit_kde_bins", "discretize.fit_sigma_bins",
         "discretize.fit_quantile_bins"}


def _counts(name, args, kwargs, result, parent):
    """Work counts taken at the span boundary: name -> {count: value}."""
    if name == "alignment.align":
        return {"cells": len(args[0]) * len(args[1])}
    if name == "ingest.parse_utterances":
        return {"records": len(result)}
    if name == "ingest.parse_report":
        return {"bytes": len(args[0])}
    if name == "ingest.write_report":
        return {"bytes": len(result)}
    if name == "discretize.apply_bins_array":
        return {"values": len(args[1])}
    if name in _FITS and parent not in _FITS:
        # a scheme handed back to the CLI; nested fallbacks count once
        requested = 3 if name == "discretize.fit_sigma_bins" else \
            (args[1] if len(args) > 1 else kwargs.get("bins", 3))
        return {"kde_fallbacks": int(name == "discretize.fit_kde_bins"
                                     and result.method != "kde"),
                "label_shrinks": int(len(result.labels) < requested)}
    return None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        # one {name: [calls, total, self, counts]} per thread, merged at
        # the end
        self._tables = []
        self.absent = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            self._tables.append(state[1])
        return state

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._state()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]         # name, time of nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = [0, 0.0, 0.0, {}]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            extra = _counts(name, args, kwargs, result, parent)
            if extra:
                for key, value in extra.items():
                    entry[3][key] = entry[3].get(key, 0) + value
            return result
        return traced

    def install(self, package: str):
        for module_name, attrs in TARGETS.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent += [f"{module_name}.{a}" for a in attrs]
                continue
            for attr in attrs:
                name = f"{module_name}.{attr}"
                *owner_path, leaf = attr.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part, None)
                raw = getattr(owner, "__dict__", {}).get(leaf)
                if raw is None:
                    self.absent.append(name)
                elif isinstance(raw, classmethod):
                    setattr(owner, leaf,
                            classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, leaf, self.wrap(name, raw))

    def merged(self) -> dict:
        out = {}
        for table in list(self._tables):
            for name, (calls, total, self_s, counts) in table.items():
                agg = out.setdefault(name, {"calls": 0, "s": 0.0,
                                            "self_s": 0.0, "counts": {}})
                agg["calls"] += calls
                agg["s"] += total
                agg["self_s"] += self_s
                for key, value in counts.items():
                    agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out


def main(argv) -> int:
    out_path, stage_argv = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("asrcausal.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install("asrcausal")
    rc = 1
    try:
        rc = cli.main(stage_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"rc": rc, "import_s": import_s,
                       "functions": tracer.merged(),
                       "absent": tracer.absent}, fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
