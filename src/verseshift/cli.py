"""Command-line front end: ingest, train, and the semantic-change reports.

Every subcommand reads an optional JSON config (--config) whose values are
overridden by explicit flags; COMMANDS declares each setting once, with its
flag, config key, type and default. Outputs are deterministic for identical
inputs and seeds. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure, 130 interrupted (Ctrl-C).
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


@dataclasses.dataclass(frozen=True)
class Setting:
    """One command setting: its flag, dotted config key (None: flag only), type and default."""

    name: str
    key: str | None
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None
    flag: str | None = None  # when the flag is not --<name>
    minimum: int | None = None  # smallest value a flag or config may give

    @property
    def option(self) -> str:
        return "--" + (self.flag or self.name).replace("_", "-")


CONFIG = Setting("config", None, str, None, "JSON config file; flags override its values")
COMMON = (CONFIG, Setting("out", "out", str, "out", "output directory"))
MODEL = Setting("model", "model", str, None, "model file path (default <out>/model.bin)")
CACHE = Setting("cache", "cache", str, None, "normalized cache path (default <out>/normalized.bin)")
SLOTS = (
    Setting("slots", "slots.mode", str, "fixed", "slotting mode", choices=("fixed", "sliding")),
    Setting("start", "slots.start", int, 1575, "first slot start year"),
    Setting("end", "slots.end", int, 1925, "exclusive end year"),
    Setting("window", "slots.window", int, 50, "slot width in years"),
    Setting("step", "slots.step", int, 25, "slot step in years, sliding mode only"),
    Setting("merge_first", "slots.merge_first", bool, False, "fuse the first two fixed slots into one wide slot"),
)
PAIRWISE = (
    Setting("top_n", "analysis.top_n", int, 3000, "frequent words to track", minimum=1),
    Setting("frequency_scope", "analysis.frequency_scope", str, "global",
            "rank candidate words corpus-wide or per slot pair", choices=("global", "pair")),
)
TRAIN = tuple(
    Setting(f.name, f"train.{f.name}", type(f.default), f.default, **f.metadata)  # help, flag and minimum
    for f in dataclasses.fields(trainer.TrainConfig)
)

# command -> (help, settings); main() runs cmd_<command> on the resolved settings
COMMANDS: dict[str, tuple[str, tuple[Setting, ...]]] = {
    "synth": ("generate a synthetic corpus from a spec JSON", (
        CONFIG,
        Setting("spec", "spec", str, None, "generator spec JSON"),
        Setting("out", "out", str, None, "corpus file to write"),
        Setting("seed", None, int, None, "override the spec seed", minimum=0),
    )),
    "ingest": ("read, deduplicate and normalize a stanza corpus", (
        *COMMON, *SLOTS,
        Setting("corpus", "corpus", str, None, "JSON Lines stanza corpus"),
        Setting("lemma_map", "lemma_map", str, None, "token<TAB>lemma table"),
        CACHE,
        Setting("strict", None, bool, False, "abort on malformed records"),
    )),
    "train": ("train the time-conditioned embedding model", (
        *COMMON, *SLOTS, MODEL, CACHE,
        Setting("min_count", "train.min_count", int, 5, "vocabulary threshold"),
        *TRAIN,
    )),
    "selfsim": ("adjacent-slot self-similarity CSV + box plot", (*COMMON, MODEL, *PAIRWISE)),
    "changepoints": ("rank dips in the self-similarity medians", (
        *COMMON, MODEL, *PAIRWISE,
        Setting("k", "analysis.k", int, 5, "change points to report", minimum=1),
    )),
    "totalsim": ("distance-aggregated self-similarity + linear fit", (
        *COMMON, MODEL,
        Setting("stopwords", "stopwords", str, None, "stopword list, one word per line"),
        Setting("min_per_slot", "analysis.min_per_slot", int, 50, "eligibility threshold", minimum=0),
    )),
    "tropes": ("trajectory PCA classes for one target word", (
        *COMMON, MODEL,
        Setting("target", "analysis.target", str, "liebe", "target word"),
        Setting("min_global", "analysis.min_global", int, 30, "candidate corpus count"),
        Setting("min_per_slot", "analysis.tropes_min_per_slot", int, 2, "per-slot candidate count", minimum=0),
        Setting("top_k", "analysis.top_k", int, 25, "extreme list size", minimum=1),
        # the rising and falling class SVGs use the second component
        Setting("components", "analysis.components", int, 4, "PCA components", minimum=2),
    )),
}

_JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean"}


def _config_value(cfg: dict, s: Setting):
    """The setting's value in the config as JSON holds it, None when absent; UsageError for a wrong type or choice."""
    value = cfg
    for part in s.key.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    if value is None:
        return None
    accepted = (int, float) if s.type is float else s.type
    if isinstance(value, bool) != (s.type is bool) or not isinstance(value, accepted):
        raise UsageError(f"config key {s.key} must be a JSON {_JSON_TYPES[s.type]}")
    if s.choices and value not in s.choices:
        raise UsageError(f"config key {s.key} must be one of {', '.join(s.choices)}")
    return value


def _resolve(args: argparse.Namespace, settings: tuple[Setting, ...]) -> argparse.Namespace:
    """Each setting from its flag, else from the --config file, else its default.

    A number flag or config value that is not finite, 2**63 or more in
    magnitude, or below the setting's minimum is a UsageError naming it, as
    is a config file that is not UTF-8 JSON holding an object; the file is
    read by :func:`corpus.read_text`.
    """
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(corpus.read_text(args.config))
        except (corpus.CorpusError, ValueError) as exc:  # not UTF-8, naming the line, or not JSON
            raise UsageError(f"config file {args.config} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    resolved = argparse.Namespace()
    for s in settings:
        value, source = getattr(args, s.name), s.option
        if value is None and s.key is not None:
            value, source = _config_value(cfg, s), f"config key {s.key}"
        if s.type in (int, float) and value is not None and not abs(value) < 2**63:  # also NaN and Infinity
            raise UsageError(f"{source} is out of range")
        if s.minimum is not None and value is not None and value < s.minimum:
            raise UsageError(f"{source} must be at least {s.minimum}")
        setattr(resolved, s.name, s.default if value is None else s.type(value))
    return resolved


def _out_dir(ns: argparse.Namespace) -> Path:
    """Make --out; each command calls it only once its results are computed, just before its first write."""
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _model_path(ns: argparse.Namespace) -> Path:
    return Path(ns.model or Path(ns.out) / "model.bin")


def _slot_table(ns: argparse.Namespace) -> corpus.TimeSlotTable:
    step = ns.window if ns.slots == "fixed" else ns.step
    return corpus.build_slots(ns.start, ns.end, ns.window, step, merge_first=ns.merge_first)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class _Echo:
    """File stand-in whose write returns its text, so csv.writer.writerow returns the formatted line."""

    def write(self, text: str) -> str:
        return text


def _write_trajectories(path: Path, trajectories: tropes.Trajectories, starts: list[int]) -> None:
    """trajectories.csv as _write_csv writes it, one row per candidate and slot, one write per block.

    Each candidate's ``target,candidate`` prefix is quoted once by a writer
    with _write_csv's dialect (its ``\\r\\n`` terminator decides whether a
    ``\\r`` forces quotes); the numeric cells, which that dialect never quotes,
    fill per-slot %-templates, since ``"%.6f" % x == f"{x:.6f}"`` for a float.
    The text of ROW_BLOCK candidates is joined and written at a time.
    """
    quote = csv.writer(_Echo()).writerow
    slot_cells = [f",{start},%.6f,%d" for start in starts]
    cells = [0] * (2 * len(starts))  # value, imputed flag, per slot
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(quote(["target", "candidate", "slot_start", "value", "imputed"]))
        for lo in range(0, len(trajectories), trainer.ROW_BLOCK):
            block = slice(lo, lo + trainer.ROW_BLOCK)
            chunks = []
            for name, values, imputed in zip(
                trajectories.candidates[block], trajectories.values[block].tolist(), trajectories.imputed[block].tolist()
            ):
                prefix = quote([trajectories.target, name])[:-2].replace("%", "%%")  # a % in a word is no format
                cells[0::2] = values
                cells[1::2] = imputed
                chunks.append((prefix + ("\r\n" + prefix).join(slot_cells) + "\r\n") % tuple(cells))
            fh.write("".join(chunks))


SUMMARY_COLUMNS = ("n", "median", "q1", "q3", "p5", "p95", "mean")  # DistributionSummary fields


def _summary_row(prefix: list, s: analysis.DistributionSummary) -> list:
    """``prefix``, then the SUMMARY_COLUMNS of ``s``: the count, then each float to 6 places."""
    return [*prefix, s.n, *(f"{getattr(s, name):.6f}" for name in SUMMARY_COLUMNS[1:])]


# ---------------------------------------------------------------- commands


def cmd_synth(ns: argparse.Namespace) -> int:
    if ns.spec is None:
        raise UsageError("synth needs --spec pointing to a generator spec JSON")
    spec = synthgen.load_spec(ns.spec)
    if ns.seed is not None:
        spec.seed = ns.seed
    if ns.out is None:
        raise UsageError("synth needs --out for the corpus file")
    n = synthgen.generate_jsonl(spec, ns.out)
    print(f"wrote {n} stanzas to {ns.out}")
    return 0


def cmd_ingest(ns: argparse.Namespace) -> int:
    if ns.corpus is None:
        raise UsageError("ingest needs --corpus")
    table = _slot_table(ns)
    lemma_map = corpus.load_lemma_map(ns.lemma_map) if ns.lemma_map else {}

    result = corpus.ingest(ns.corpus, strict=ns.strict)
    if not result.stanzas:
        log.warning("corpus %s yielded no stanzas", ns.corpus)
    normalized = corpus.normalize(result.stanzas, lemma_map)
    deduped = corpus.dedup_first_line(normalized)
    member = corpus.assign_slots([s.year for s in deduped], table)

    counts = {  # the first entries of ingest_stats.json, and one printed line each
        "stanzas": len(result.stanzas),
        "poems": len({s.poem_id for s in result.stanzas}),
        "authors": len({s.author for s in result.stanzas}),
        "lines": sum(len(s.lines) for s in result.stanzas),
        "tokens": sum(len(s.tokens) for s in normalized),
    }
    stats = {
        **counts,
        "dropped_missing_year": result.dropped_missing_year,
        "dropped_invalid_year": result.dropped_invalid_year,
        "dropped_malformed": result.dropped_malformed,
        "dropped_empty_after_normalize": len(result.stanzas) - len(normalized),
        "duplicates_removed": len(normalized) - len(deduped),
        "out_of_slot_range": int((~member.any(axis=1)).sum()),
        "slot_histogram": [
            {"label": slot.label, "start": slot.start, "end": slot.end, "stanzas": n}
            for slot, n in zip(table, member.sum(axis=0).tolist())
        ],
    }
    out = _out_dir(ns)
    cache = Path(ns.cache or out / "normalized.bin")
    corpus.save_normalized(deduped, cache)
    (out / "ingest_stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")

    for key, value in counts.items():
        print(f"{key:<9}{value}")
    print(f"dropped  {result.dropped} (missing year {result.dropped_missing_year}, "
          f"invalid year {result.dropped_invalid_year}, malformed {result.dropped_malformed})")
    print(f"duplicates removed  {stats['duplicates_removed']}")
    print("stanzas per slot:")
    for entry in stats["slot_histogram"]:
        print(f"  {entry['label']:>12}  {entry['stanzas']}")
    if stats["out_of_slot_range"]:
        print(f"  (outside all slots: {stats['out_of_slot_range']})")
    print(f"normalized cache: {cache}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    try:
        config = trainer.TrainConfig(**{s.name: getattr(ns, s.name) for s in TRAIN})
    except ValueError as exc:  # out-of-range training settings are usage errors
        raise UsageError(str(exc)) from exc
    table = _slot_table(ns)
    docs = corpus.load_normalized(ns.cache or Path(ns.out) / "normalized.bin")
    vocab = corpus.build_vocab(docs, table, min_count=ns.min_count)
    model = trainer.train(docs, vocab, table, config)
    model_path = _model_path(ns)
    _out_dir(ns)
    trainer.save_model(model, model_path)
    print(f"trained {len(vocab)} words x {config.dim} dims over {len(table)} slots")
    for i, loss in enumerate(model.epoch_losses, start=1):
        print(f"epoch {i} mean loss {loss:.6f}")
    print(f"model: {model_path}")
    return 0


def _pairwise_series(ns: argparse.Namespace, model: trainer.JointEmbeddingModel):
    top_n = min(ns.top_n, len(model.vocab))
    return analysis.pairwise_self_similarity(model, top_n=top_n, frequency_scope=ns.frequency_scope)


def cmd_selfsim(ns: argparse.Namespace) -> int:
    series = _pairwise_series(ns, trainer.load_model(_model_path(ns)))
    rows = [
        _summary_row([a.start, b.start], s)
        for (a, b), s in zip(series.pairs, series.summaries)
    ]
    svg = svgplot.render_box_plot(
        "Self-similarity of frequent words across adjacent time slots",
        [str(b.start) for _, b in series.pairs],
        series.summaries,
        "start year of the later slot",
        "cosine similarity",
    )
    out = _out_dir(ns)
    _write_csv(out / "selfsim.csv", ["slot_start", "slot_end", *SUMMARY_COLUMNS], rows)
    (out / "selfsim.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {out / 'selfsim.csv'} and {out / 'selfsim.svg'}")
    return 0


def cmd_changepoints(ns: argparse.Namespace) -> int:
    series = _pairwise_series(ns, trainer.load_model(_model_path(ns)))
    points = analysis.detect_change_points(series, ns.k)
    rows = [[rank, year, f"{depth:.6f}"] for rank, (year, depth) in enumerate(points, start=1)]
    _write_csv(_out_dir(ns) / "changepoints.csv", ["rank", "year", "depth"], rows)
    if points:
        for rank, (year, depth) in enumerate(points, start=1):
            print(f"change point {rank}: year {year} depth {depth:.4f}")
    else:
        print("no change points detected")
    return 0


def cmd_totalsim(ns: argparse.Namespace) -> int:
    model = trainer.load_model(_model_path(ns))
    stopwords = corpus.load_stopwords(ns.stopwords) if ns.stopwords else frozenset()
    total = analysis.total_self_similarity(model, min_per_slot=ns.min_per_slot, stopwords=stopwords)
    bands = analysis.frequency_bands(total)
    rows = []
    for i, dist in enumerate(total.distances):
        rows.append(_summary_row([dist, "all"], total.summaries[i]))
    for band in ("low", "high"):
        for i, dist in enumerate(total.distances):
            rows.append(_summary_row([dist, band], bands.summaries[band][i]))
    svg = svgplot.render_box_plot(
        "Self-similarity by year distance between time slots",
        [str(d) for d in total.distances],
        total.summaries,
        "distance in years",
        "cosine similarity",
    )
    fit = analysis.linearity_fit(total) if len(total.distances) >= 3 else None
    out = _out_dir(ns)
    _write_csv(out / "totalsim.csv", ["distance_years", "band", *SUMMARY_COLUMNS], rows)
    (out / "totalsim.svg").write_text(svg, encoding="utf-8")
    print(f"{len(total.words)} eligible words at min {ns.min_per_slot} per slot")
    if fit is not None:
        print(
            f"linear fit: slope {fit.slope:.6g} per year, intercept {fit.intercept:.4f}, "
            f"r_squared {fit.r_squared:.4f}"
        )
    else:
        print("linear fit skipped: fewer than 3 distances")
    print(f"wrote {out / 'totalsim.csv'} and {out / 'totalsim.svg'}")
    return 0


def cmd_tropes(ns: argparse.Namespace) -> int:
    model = trainer.load_model(_model_path(ns))
    trajectories = tropes.build_trajectories(
        model, ns.target, min_global=ns.min_global, min_per_slot=ns.min_per_slot
    )
    report = tropes.orient_components(
        tropes.trajectory_pca(trajectories, n_components=ns.components, top_k=ns.top_k)
    )
    starts = [slot.start for slot in model.slot_table]

    names, projections = trajectories.candidates, report.pca.projections
    report_rows = [
        [c + 1, end, rank, names[r], f"{projections[r, c]:.6f}"]
        for c in range(len(report.extremes))
        for end in ("pos", "neg")
        for rank, r in enumerate(report.rows(c, end), start=1)
    ]
    svgs = {
        label: svgplot.render_line_plot(
            f"{ns.target}: {label} trajectories",
            [float(s) for s in starts],
            [(names[r], list(trajectories.values[r])) for r in report.rows(comp, end)],
            "slot start year",
            "cosine similarity",
        )
        for (comp, end), label in tropes._LABELS.items()
    }

    out = _out_dir(ns)
    _write_trajectories(out / "trajectories.csv", trajectories, starts)
    _write_csv(out / "report.csv", ["component", "end", "rank", "candidate", "projection"], report_rows)
    for label, svg in svgs.items():
        (out / f"trope_{label}.svg").write_text(svg, encoding="utf-8")

    ratios = ", ".join(f"{r:.3f}" for r in report.pca.explained_variance_ratio)
    print(f"{len(trajectories)} trajectories for target {ns.target!r}")
    print(f"explained variance ratios: {ratios}")
    print(f"wrote report.csv, trajectories.csv and 4 class SVGs under {out}")
    return 0


# ---------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="verseshift", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (text, settings) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for s in settings:
            notes = [f"default {s.default}"] if s.default is not None and s.type is not bool else []
            notes += [] if s.minimum is None else [f"at least {s.minimum}"]
            text = f"{s.help} ({', '.join(notes)})" if notes else s.help
            kind = {"action": "store_true", "default": None} if s.type is bool else {"type": s.type, "choices": s.choices}
            p.add_argument(s.option, dest=s.name, help=text, **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        ns = _resolve(args, COMMANDS[args.command][1])
        return globals()[f"cmd_{args.command}"](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except trainer.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (corpus.CorpusError, trainer.ModelFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
