"""Command-line front end: ingest, train, and the semantic-change reports.

Every subcommand reads an optional JSON config (--config) whose values are
overridden by explicit flags. Outputs are deterministic for identical
inputs and seeds. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import analysis, corpus, svgplot, synthgen, trainer, tropes

log = logging.getLogger("verseshift")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


def _cfg_get(cfg: dict, dotted: str):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _opt(args: argparse.Namespace, cfg: dict, attr: str, dotted: str, default=None):
    value = getattr(args, attr, None)
    if value is None:
        value = _cfg_get(cfg, dotted)
    return default if value is None else value


def _load_config(args: argparse.Namespace) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _out_dir(args: argparse.Namespace, cfg: dict) -> Path:
    out = Path(_opt(args, cfg, "out", "out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _slot_table(args: argparse.Namespace, cfg: dict) -> corpus.TimeSlotTable:
    mode = _opt(args, cfg, "slots", "slots.mode", "fixed")
    if mode not in ("fixed", "sliding"):
        raise UsageError("--slots must be 'fixed' or 'sliding'")
    start = int(_opt(args, cfg, "start", "slots.start", 1575))
    end = int(_opt(args, cfg, "end", "slots.end", 1925))
    window = int(_opt(args, cfg, "window", "slots.window", 50))
    if mode == "fixed":
        step = window
    else:
        step = int(_opt(args, cfg, "step", "slots.step", 25))
    merge_first = bool(_opt(args, cfg, "merge_first", "slots.merge_first", False))
    return corpus.build_slots(start, end, window, step, merge_first=merge_first)


def _cache_path(args: argparse.Namespace, cfg: dict, out: Path) -> Path:
    return Path(_opt(args, cfg, "cache", "cache", out / "normalized.jsonl"))


def _model_path(args: argparse.Namespace, cfg: dict, out: Path) -> Path:
    return Path(_opt(args, cfg, "model", "model", out / "model.bin"))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _summary_row(prefix: list, s: analysis.DistributionSummary) -> list:
    return prefix + [
        s.n,
        f"{s.median:.6f}",
        f"{s.q1:.6f}",
        f"{s.q3:.6f}",
        f"{s.whisker_lo:.6f}",
        f"{s.whisker_hi:.6f}",
        f"{s.mean:.6f}",
    ]


def _load_stopwords(args: argparse.Namespace, cfg: dict) -> frozenset[str]:
    path = _opt(args, cfg, "stopwords", "stopwords")
    if path is None:
        return frozenset()
    return corpus.load_stopwords(path)


# ---------------------------------------------------------------- commands


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    spec_path = _opt(args, cfg, "spec", "spec")
    if spec_path is None:
        raise UsageError("synth needs --spec pointing to a generator spec JSON")
    spec = synthgen.load_spec(spec_path)
    if args.seed is not None:
        spec.seed = args.seed
    out_path = _opt(args, cfg, "out", "out")
    if out_path is None:
        raise UsageError("synth needs --out for the corpus file")
    n = synthgen.generate_jsonl(spec, out_path)
    print(f"wrote {n} stanzas to {out_path}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    corpus_path = _opt(args, cfg, "corpus", "corpus")
    if corpus_path is None:
        raise UsageError("ingest needs --corpus")
    out = _out_dir(args, cfg)
    table = _slot_table(args, cfg)

    lemma_path = _opt(args, cfg, "lemma_map", "lemma_map")
    lemma_map = corpus.load_lemma_map(lemma_path) if lemma_path else {}

    result = corpus.ingest(corpus_path, strict=bool(args.strict))
    if not result.stanzas:
        log.warning("corpus %s yielded no stanzas", corpus_path)
    total_lines = sum(len(s.lines) for s in result.stanzas)
    poems = len({s.poem_id for s in result.stanzas})
    authors = len({s.author for s in result.stanzas})

    normalized = corpus.normalize(result.stanzas, lemma_map)
    total_tokens = sum(len(s.tokens) for s in normalized)
    deduped = corpus.dedup_first_line(normalized)
    duplicates_removed = len(normalized) - len(deduped)
    assignment = corpus.assign_slots(deduped, table)

    cache = _cache_path(args, cfg, out)
    corpus.save_normalized(deduped, cache)

    stats = {
        "stanzas": len(result.stanzas),
        "poems": poems,
        "authors": authors,
        "lines": total_lines,
        "tokens": total_tokens,
        "dropped_missing_year": result.dropped_missing_year,
        "dropped_invalid_year": result.dropped_invalid_year,
        "dropped_malformed": result.dropped_malformed,
        "dropped_empty_after_normalize": len(result.stanzas) - len(normalized),
        "duplicates_removed": duplicates_removed,
        "out_of_slot_range": assignment.dropped,
        "slot_histogram": [
            {"label": slot.label, "start": slot.start, "end": slot.end, "stanzas": len(docs)}
            for slot, docs in zip(table, assignment.per_slot)
        ],
    }
    (out / "ingest_stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")

    print(f"stanzas  {stats['stanzas']}")
    print(f"poems    {stats['poems']}")
    print(f"authors  {stats['authors']}")
    print(f"lines    {stats['lines']}")
    print(f"tokens   {stats['tokens']}")
    print(f"dropped  {result.dropped} (missing year {result.dropped_missing_year}, "
          f"invalid year {result.dropped_invalid_year}, malformed {result.dropped_malformed})")
    print(f"duplicates removed  {duplicates_removed}")
    print("stanzas per slot:")
    for entry in stats["slot_histogram"]:
        print(f"  {entry['label']:>12}  {entry['stanzas']}")
    if assignment.dropped:
        print(f"  (outside all slots: {assignment.dropped})")
    print(f"normalized cache: {cache}")
    return 0


def _train_flag(f: dataclasses.Field) -> str:
    return f.metadata["flag"] or f.name


def _train_config(args: argparse.Namespace, cfg: dict) -> trainer.TrainConfig:
    return trainer.TrainConfig(**{
        f.name: type(f.default)(_opt(args, cfg, _train_flag(f), f"train.{f.name}", f.default))
        for f in dataclasses.fields(trainer.TrainConfig)
    })


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        config = _train_config(args, cfg)
    except ValueError as exc:  # out-of-range training settings are usage errors
        raise UsageError(str(exc)) from exc
    out = _out_dir(args, cfg)
    table = _slot_table(args, cfg)
    cache = _cache_path(args, cfg, out)
    stanzas = corpus.load_normalized(cache)
    assignment = corpus.assign_slots(stanzas, table)
    min_count = int(_opt(args, cfg, "min_count", "train.min_count", 5))
    vocab = corpus.build_vocab(assignment, min_count=min_count)
    docs_by_slot = [[s.tokens for s in docs] for docs in assignment.per_slot]
    model = trainer.train(docs_by_slot, vocab, table, config)
    model_path = _model_path(args, cfg, out)
    trainer.save_model(model, model_path)
    print(f"trained {len(vocab)} words x {config.dim} dims over {len(table)} slots")
    for i, loss in enumerate(model.epoch_losses, start=1):
        print(f"epoch {i} mean loss {loss:.6f}")
    print(f"model: {model_path}")
    return 0


PAIRWISE_HEADER = ["slot_start", "slot_end", "n", "median", "q1", "q3", "p5", "p95", "mean"]
TOTAL_HEADER = ["distance_years", "band", "n", "median", "q1", "q3", "p5", "p95", "mean"]


def _pairwise_series(args: argparse.Namespace, cfg: dict, model: trainer.JointEmbeddingModel):
    top_n = int(_opt(args, cfg, "top_n", "analysis.top_n", 3000))
    top_n = min(top_n, len(model.vocab))
    scope = _opt(args, cfg, "frequency_scope", "analysis.frequency_scope", "global")
    return analysis.pairwise_self_similarity(model, top_n=top_n, frequency_scope=scope)


def cmd_selfsim(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    model = trainer.load_model(_model_path(args, cfg, out))
    series = _pairwise_series(args, cfg, model)
    rows = [
        _summary_row([a.start, b.start], s)
        for (a, b), s in zip(series.pairs, series.summaries)
    ]
    _write_csv(out / "selfsim.csv", PAIRWISE_HEADER, rows)
    svg = svgplot.render_box_plot(
        "Self-similarity of frequent words across adjacent time slots",
        [str(b.start) for _, b in series.pairs],
        series.summaries,
        "start year of the later slot",
        "cosine similarity",
    )
    (out / "selfsim.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {out / 'selfsim.csv'} and {out / 'selfsim.svg'}")
    return 0


def cmd_changepoints(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    model = trainer.load_model(_model_path(args, cfg, out))
    series = _pairwise_series(args, cfg, model)
    k = int(_opt(args, cfg, "k", "analysis.k", 5))
    points = analysis.detect_change_points(series, k)
    rows = [[rank, year, f"{depth:.6f}"] for rank, (year, depth) in enumerate(points, start=1)]
    _write_csv(out / "changepoints.csv", ["rank", "year", "depth"], rows)
    if points:
        for rank, (year, depth) in enumerate(points, start=1):
            print(f"change point {rank}: year {year} depth {depth:.4f}")
    else:
        print("no change points detected")
    return 0


def cmd_totalsim(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    model = trainer.load_model(_model_path(args, cfg, out))
    stopwords = _load_stopwords(args, cfg)
    min_per_slot = int(_opt(args, cfg, "min_per_slot", "analysis.min_per_slot", 50))
    total = analysis.total_self_similarity(model, min_per_slot=min_per_slot, stopwords=stopwords)
    bands = analysis.frequency_bands(total)
    rows = []
    for i, dist in enumerate(total.distances):
        rows.append(_summary_row([dist, "all"], total.summaries[i]))
    for band in ("low", "high"):
        for i, dist in enumerate(bands.distances):
            rows.append(_summary_row([dist, band], bands.summaries[band][i]))
    _write_csv(out / "totalsim.csv", TOTAL_HEADER, rows)
    svg = svgplot.render_box_plot(
        "Self-similarity by year distance between time slots",
        [str(d) for d in total.distances],
        total.summaries,
        "distance in years",
        "cosine similarity",
    )
    (out / "totalsim.svg").write_text(svg, encoding="utf-8")
    print(f"{len(total.words)} eligible words at min {min_per_slot} per slot")
    if len(total.distances) >= 3:
        fit = analysis.linearity_fit(total)
        print(
            f"linear fit: slope {fit.slope:.6g} per year, intercept {fit.intercept:.4f}, "
            f"r_squared {fit.r_squared:.4f}"
        )
    else:
        print("linear fit skipped: fewer than 3 distances")
    print(f"wrote {out / 'totalsim.csv'} and {out / 'totalsim.svg'}")
    return 0


def cmd_tropes(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    model = trainer.load_model(_model_path(args, cfg, out))
    target = _opt(args, cfg, "target", "analysis.target", "liebe")
    min_global = int(_opt(args, cfg, "min_global", "analysis.min_global", 30))
    min_per_slot = int(_opt(args, cfg, "min_per_slot", "analysis.tropes_min_per_slot", 2))
    top_k = int(_opt(args, cfg, "top_k", "analysis.top_k", 25))
    n_components = int(_opt(args, cfg, "components", "analysis.components", 4))

    trajectories = tropes.build_trajectories(
        model, target, min_global=min_global, min_per_slot=min_per_slot
    )
    report = tropes.orient_components(
        tropes.trajectory_pca(trajectories, n_components=n_components, top_k=top_k)
    )

    starts = [slot.start for slot in model.slot_table]
    traj_rows = []
    for t in trajectories:
        for start, value, imputed in zip(starts, t.values, t.imputed):
            traj_rows.append([t.target, t.candidate, start, f"{value:.6f}", int(imputed)])
    _write_csv(out / "trajectories.csv", ["target", "candidate", "slot_start", "value", "imputed"], traj_rows)

    report_rows = []
    for c, (pos, neg) in enumerate(report.extremes, start=1):
        for end, entries in (("pos", pos), ("neg", neg)):
            for rank, entry in enumerate(entries, start=1):
                report_rows.append([c, end, rank, entry.candidate, f"{entry.projection:.6f}"])
    _write_csv(out / "report.csv", ["component", "end", "rank", "candidate", "projection"], report_rows)

    by_name = {t.candidate: t for t in trajectories}
    class_ends = {"high": (0, "pos"), "low": (0, "neg"), "rising": (1, "pos"), "falling": (1, "neg")}
    for label, (comp, end) in class_ends.items():
        members = report.component_members(comp, end)
        series = [(name, list(by_name[name].values)) for name in members]
        svg = svgplot.render_line_plot(
            f"{target}: {label} trajectories",
            [float(s) for s in starts],
            series,
            "slot start year",
            "cosine similarity",
        )
        (out / f"trope_{label}.svg").write_text(svg, encoding="utf-8")

    ratios = ", ".join(f"{r:.3f}" for r in report.pca.explained_variance_ratio)
    print(f"{len(trajectories)} trajectories for target {target!r}")
    print(f"explained variance ratios: {ratios}")
    print(f"wrote report.csv, trajectories.csv and 4 class SVGs under {out}")
    return 0


# ---------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory (default: out)")


def _add_slotting(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slots", choices=["fixed", "sliding"], help="slotting mode")
    p.add_argument("--start", type=int, help="first slot start year (default 1575)")
    p.add_argument("--end", type=int, help="exclusive end year (default 1925)")
    p.add_argument("--window", type=int, help="slot width in years (default 50)")
    p.add_argument("--step", type=int, help="slot step in years (sliding mode, default 25)")
    p.add_argument(
        "--merge-first",
        dest="merge_first",
        action="store_true",
        default=None,
        help="fuse the first two fixed slots into one wide slot",
    )


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="model file path (default: <out>/model.bin)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="verseshift", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic corpus from a spec JSON")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--spec", help="generator spec JSON")
    p.add_argument("--out", help="corpus file to write")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="read, deduplicate and normalize a stanza corpus")
    _add_common(p)
    _add_slotting(p)
    p.add_argument("--corpus", help="JSON Lines stanza corpus")
    p.add_argument("--lemma-map", dest="lemma_map", help="token<TAB>lemma table")
    p.add_argument("--cache", help="normalized cache path (default: <out>/normalized.jsonl)")
    p.add_argument("--strict", action="store_true", help="abort on malformed records")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the time-conditioned embedding model")
    _add_common(p)
    _add_slotting(p)
    _add_model(p)
    p.add_argument("--cache", help="normalized cache written by ingest")
    p.add_argument("--min-count", dest="min_count", type=int, help="vocabulary threshold (default 5)")
    for f in dataclasses.fields(trainer.TrainConfig):
        dest = _train_flag(f)
        p.add_argument(
            "--" + dest.replace("_", "-"),
            dest=dest,
            type=type(f.default),
            help=f"{f.metadata['help']} (default {f.default:g})",
        )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("selfsim", help="adjacent-slot self-similarity CSV + box plot")
    _add_common(p)
    _add_model(p)
    p.add_argument("--top-n", dest="top_n", type=int, help="frequent words to track (default 3000)")
    p.add_argument(
        "--frequency-scope",
        dest="frequency_scope",
        choices=["global", "pair"],
        help="rank candidate words corpus-wide or per slot pair",
    )
    p.set_defaults(func=cmd_selfsim)

    p = sub.add_parser("changepoints", help="rank dips in the self-similarity medians")
    _add_common(p)
    _add_model(p)
    p.add_argument("--top-n", dest="top_n", type=int)
    p.add_argument("--frequency-scope", dest="frequency_scope", choices=["global", "pair"])
    p.add_argument("--k", type=int, help="change points to report (default 5)")
    p.set_defaults(func=cmd_changepoints)

    p = sub.add_parser("totalsim", help="distance-aggregated self-similarity + linear fit")
    _add_common(p)
    _add_model(p)
    p.add_argument("--stopwords", help="stopword list, one word per line")
    p.add_argument("--min-per-slot", dest="min_per_slot", type=int, help="eligibility threshold (default 50)")
    p.set_defaults(func=cmd_totalsim)

    p = sub.add_parser("tropes", help="trajectory PCA classes for one target word")
    _add_common(p)
    _add_model(p)
    p.add_argument("--target", help="target word (default liebe)")
    p.add_argument("--min-global", dest="min_global", type=int, help="candidate corpus count (default 30)")
    p.add_argument("--min-per-slot", dest="min_per_slot", type=int, help="per-slot candidate count (default 2)")
    p.add_argument("--top-k", dest="top_k", type=int, help="extreme list size (default 25)")
    p.add_argument("--components", type=int, help="PCA components (default 4)")
    p.set_defaults(func=cmd_tropes)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except trainer.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (
        corpus.CorpusError,
        trainer.ModelFormatError,
        FileNotFoundError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
