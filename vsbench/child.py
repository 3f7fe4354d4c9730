#!/usr/bin/env python3
"""Run one verseshift CLI command in this process and record its peak RSS.

Usage: python3 child.py RESULT_JSON TRACE COMMAND [ARGS...]

The peak RSS is this process's own ``VmHWM``. The ``ru_maxrss`` a parent
reads with ``wait4`` is not used, because exec carries the launching
process's high-water mark into it. With TRACE 1, a span is also kept
around every public module call. Each wrapper replaces the attribute its
caller resolves at call time (for example ``trainer.sgd_step``, looked up
by ``trainer.train``, or ``analysis.rowwise_cosine``, the name
``analysis`` imported from ``linalg``), so the program itself is
unchanged. Spans (name, start, end, parent) and counts stay in memory and
are written to RESULT_JSON with the peak RSS when the command returns.
``trainer.train`` also runs under tracemalloc to record the peak traced
memory of training.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc

from verseshift import analysis, cli, corpus, svgplot, trainer, tropes


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def call(self, label: str, fn, args=(), kwargs=None):
        idx = len(self.spans)
        self.spans.append([label, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr: str, label: str, count=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.call(label, fn, args, kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(tracer: Tracer) -> None:
    add = tracer.add
    for name in ("ingest", "train", "selfsim", "changepoints", "totalsim", "tropes"):
        tracer.wrap(cli, f"cmd_{name}", f"cli.{name}")

    tracer.wrap(corpus, "ingest", "corpus.ingest", lambda a, k, r: add("corpus.stanzas", len(r.stanzas)))
    tracer.wrap(
        corpus, "normalize", "corpus.normalize",
        lambda a, k, r: add("corpus.tokens", sum(len(s.tokens) for s in r)),
    )
    tracer.wrap(corpus, "dedup_first_line", "corpus.dedup_first_line")
    tracer.wrap(corpus, "assign_slots", "corpus.assign_slots")
    tracer.wrap(
        corpus, "build_vocab", "corpus.build_vocab",
        lambda a, k, r: (add("corpus.vocab_words", len(r)), add("corpus.slot_tokens", int(r.slot_total_tokens.sum()))),
    )
    tracer.wrap(
        corpus, "save_normalized", "corpus.save_normalized",
        lambda a, k, r: add("corpus.cache_bytes", _file_size(a[1])),
    )
    tracer.wrap(corpus, "load_normalized", "corpus.load_normalized")

    tracer.wrap(
        trainer, "sgd_step", "trainer.sgd_step",
        lambda a, k, r: (add("trainer.sgd_step_calls", 1), add("trainer.pairs", int(a[4].words.size))),
    )
    tracer.wrap(
        trainer, "save_model", "trainer.save_model",
        lambda a, k, r: tracer.peak("trainer.model_bytes", _file_size(a[1])),
    )
    tracer.wrap(
        trainer, "load_model", "trainer.load_model",
        lambda a, k, r: tracer.peak("trainer.model_bytes", _file_size(a[0])),
    )
    train = trainer.train

    def traced_train(*args, **kwargs):
        tracemalloc.start()
        try:
            return train(*args, **kwargs)
        finally:
            add("trainer.peak_traced_bytes", tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    trainer.train = lambda *a, **k: tracer.call("trainer.train", traced_train, a, k)

    for name in ("pairwise_self_similarity", "detect_change_points", "total_self_similarity",
                 "frequency_bands", "linearity_fit"):
        tracer.wrap(analysis, name, f"analysis.{name}")
    tracer.wrap(analysis, "rowwise_cosine", "linalg.rowwise_cosine")
    tracer.wrap(
        tropes, "build_trajectories", "tropes.build_trajectories",
        lambda a, k, r: add("tropes.trajectories", len(r)),
    )
    tracer.wrap(tropes, "trajectory_pca", "tropes.trajectory_pca")
    tracer.wrap(tropes, "orient_components", "tropes.orient_components")
    tracer.wrap(tropes, "pca", "linalg.pca")
    tracer.wrap(svgplot, "render_box_plot", "svgplot.render")
    tracer.wrap(svgplot, "render_line_plot", "svgplot.render")


def peak_rss_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer()
    if trace:
        install(tracer)
    try:
        return tracer.call("cli.main", cli.main, (argv,))
    finally:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_kib": peak_rss_kib(), "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
