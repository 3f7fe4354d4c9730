"""Fuzzed input boundaries: damaged model files and corpus caches, arbitrary corpus records, configs and integer settings.

Every damaged input must either load or fail with the library's own error
type, and the CLI must exit 0 or 2 for it (or 1 for a bad config or
setting), never with a traceback: cli.main returns an exit code or the
test errors with the escaping exception.
"""

from __future__ import annotations

import json
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from verseshift import cli, corpus, trainer

from conftest import (
    TINY_CACHE_COUNTS,
    TINY_CACHE_TYPE_LENGTHS,
    TINY_DIM_FIELD,
    TINY_WORD_LENGTHS,
    make_model,
    write_tiny_cache,
    write_tiny_model,
)

# the whole module runs in a few seconds: each CLI ingest example costs about 50 ms
MODEL_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
CORPUS_FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, write_tiny_model(root / "valid.bin")


def check_model_bytes(root, data: bytes) -> None:
    path = root / "model.bin"
    path.write_bytes(data)
    try:
        trainer.load_model(path)
    except trainer.ModelFormatError:
        pass
    assert cli.main(["selfsim", "--out", str(root / "out"), "--model", str(path)]) in (0, 2)


@MODEL_FUZZ
@given(data=st.data())
def test_truncated_model(fuzz_dir, data):
    root, valid = fuzz_dir
    check_model_bytes(root, valid[: data.draw(st.integers(0, len(valid) - 1))])


@MODEL_FUZZ
@given(data=st.data())
def test_single_bit_flip(fuzz_dir, data):
    root, valid = fuzz_dir
    bit = data.draw(st.integers(0, 8 * len(valid) - 1))
    flipped = bytearray(valid)
    flipped[bit // 8] ^= 1 << (bit % 8)
    check_model_bytes(root, bytes(flipped))


# dim, word count and slot count in the header, then the first word's byte length
SIZE_FIELDS = [TINY_DIM_FIELD, TINY_DIM_FIELD + 4, TINY_DIM_FIELD + 8, TINY_WORD_LENGTHS]


@MODEL_FUZZ
@given(offset=st.sampled_from(SIZE_FIELDS), value=st.integers(min_value=0, max_value=2**32 - 1))
def test_inflated_header_field(fuzz_dir, offset, value):
    root, valid = fuzz_dir
    data = bytearray(valid)
    data[offset : offset + 4] = struct.pack("<I", value)
    check_model_bytes(root, bytes(data))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cache-fuzz")
    return root, write_tiny_cache(root / "valid.bin")


CACHE_TRAIN = ["--start", "1600", "--end", "1700", "--window", "50", "--dim", "2", "--epochs", "1",
               "--min-count", "1", "--context-window", "1"]


def check_cache_bytes(root, data: bytes, must_fail: bool) -> None:
    """Load damaged cache bytes and train from them: CorpusError and exit 2, or a clean load."""
    path = root / "normalized.bin"
    path.write_bytes(data)
    try:
        corpus.load_normalized(path)
    except corpus.CorpusError:
        exits = (2,)
    else:
        assert not must_fail, "a damaged cache loaded"
        exits = (0, 2)
    assert cli.main(["train", "--cache", str(path), "--out", str(root / "out"), *CACHE_TRAIN]) in exits


def test_truncated_cache(cache_dir):
    root, valid = cache_dir
    for length in range(len(valid)):
        check_cache_bytes(root, valid[:length], must_fail=True)


@MODEL_FUZZ
@given(data=st.data())
def test_single_bit_flip_in_cache(cache_dir, data):
    root, valid = cache_dir
    bit = data.draw(st.integers(0, 8 * len(valid) - 1))
    flipped = bytearray(valid)
    flipped[bit // 8] ^= 1 << (bit % 8)
    check_cache_bytes(root, bytes(flipped), must_fail=False)


# the type, token and document counts, then the first type's byte length
CACHE_SIZE_FIELDS = [(TINY_CACHE_COUNTS, "<Q"), (TINY_CACHE_COUNTS + 8, "<Q"), (TINY_CACHE_COUNTS + 16, "<Q"),
                     (TINY_CACHE_TYPE_LENGTHS, "<I")]


@MODEL_FUZZ
@given(field=st.sampled_from(CACHE_SIZE_FIELDS), data=st.data())
def test_inflated_cache_header_field(cache_dir, field, data):
    root, valid = cache_dir
    offset, fmt = field
    width = struct.calcsize(fmt)
    (value,) = struct.unpack_from(fmt, valid, offset)
    larger = data.draw(st.integers(value + 1, 2 ** (8 * width) - 1))
    inflated = bytearray(valid)
    inflated[offset : offset + width] = struct.pack(fmt, larger)
    check_cache_bytes(root, bytes(inflated), must_fail=True)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
stanza_like = st.fixed_dictionaries(
    {},
    optional={
        "id": st.text(max_size=4) | json_values,
        "poem_id": st.text(max_size=4) | json_values,
        "author": st.text(max_size=4) | json_values,
        "year": st.integers(900, 2200) | json_values,
        "lines": st.lists(st.text(max_size=12), max_size=3) | json_values,
    },
)


@CORPUS_FUZZ
@given(records=st.lists(json_values | stanza_like, min_size=1, max_size=4))
def test_arbitrary_corpus_records(fuzz_dir, records):
    root, _ = fuzz_dir
    path = root / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    try:
        corpus.ingest(path)
    except corpus.CorpusError:
        pass
    argv = ["ingest", "--corpus", str(path), "--out", str(root / "ingest"),
            "--start", "1600", "--end", "1700", "--window", "50"]
    assert cli.main(argv) in (0, 2)


# no "/" or ".": a string used as the output directory names a new directory in the working one
relative_names = st.text(st.characters(blacklist_characters="/."), max_size=8)
config_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | relative_names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(relative_names, inner, max_size=3),
    max_leaves=8,
)
# every key selfsim reads, each absent, valid or any JSON value; the working directory is
# a subdirectory of fuzz_dir, so "../valid.bin" is the tiny model
selfsim_configs = config_values | st.fixed_dictionaries(
    {},
    optional={
        "out": st.just("out") | config_values,
        "model": st.just("../valid.bin") | config_values,
        "analysis": config_values | st.fixed_dictionaries(
            {},
            optional={
                "top_n": st.integers(1, 3) | config_values,
                "frequency_scope": st.sampled_from(["global", "pair"]) | config_values,
            },
        ),
    },
)


@CORPUS_FUZZ
@given(config=selfsim_configs)
def test_arbitrary_selfsim_config(fuzz_dir, config):
    root, _ = fuzz_dir
    work = root / "selfsim-config"
    work.mkdir(exist_ok=True)
    path = root / "selfsim-config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        assert cli.main(["selfsim", "--config", str(path)]) in (0, 1, 2)


REPORTS_TARGET = "r0300"


@pytest.fixture(scope="module")
def reports_model(fuzz_dir):
    """A 600-word model on which every analysis succeeds at its default settings.

    Built like the benchmark's reports model at a smaller size: Zipf counts
    over 7 sliding slots, random base vectors with small per-slot deltas, and
    two thirds of the 200 most frequent words turning from slot 3 on. At
    the defaults, 421 words reach totalsim's 50 per slot and the 599 besides
    the target are tropes candidates, so both fill more than one row block.
    """
    root, _ = fuzz_dir
    rng = np.random.default_rng(11)
    n_words, n_slots, dim = 600, 7, 16
    expected = 1.0e5 / np.arange(1, n_words + 1)
    halves = rng.poisson(expected / (n_slots + 1), size=(n_slots + 1, n_words))
    slot_counts = halves[:-1] + halves[1:]  # a 50-year slot holds two 25-year halves
    deltas = rng.normal(scale=0.1, size=(n_slots, n_words, dim))
    turners = rng.permutation(200)[:133]
    deltas[3:, turners] += rng.normal(scale=0.9, size=(turners.size, dim))
    model = make_model(
        [f"r{i:04d}" for i in range(n_words)], [1600 + 25 * t for t in range(n_slots)],
        rng.normal(size=(n_words, dim)), deltas, slot_counts=slot_counts, global_counts=halves.sum(axis=0),
    )
    path = root / "reports.bin"
    trainer.save_model(model, path)
    return path


def test_reports_model_analyses_succeed(fuzz_dir, reports_model):
    """The fuzz fixture reaches past the failure paths: every analysis runs at its defaults."""
    root, _ = fuzz_dir
    for command, extra in (("changepoints", []), ("totalsim", []), ("tropes", ["--target", REPORTS_TARGET])):
        out = root / f"defaults-{command}"
        assert cli.main([command, "--out", str(out), "--model", str(reports_model), *extra]) == 0
        assert any(out.iterdir())


INTEGER_SETTINGS = {
    command: [s for s in cli.COMMANDS[command][1] if s.type is int] for command in ("changepoints", "totalsim", "tropes")
}
integer_values = st.integers(-3, 6) | st.integers(-(2**70), 2**70)


@CORPUS_FUZZ
@given(
    data=st.data(),
    command=st.sampled_from(sorted(INTEGER_SETTINGS)),
    via_config=st.booleans(),
    on_reports=st.booleans(),
)
def test_integer_settings(fuzz_dir, reports_model, data, command, via_config, on_reports):
    """Any integer for every integer setting, as flag or config; a failing command leaves no --out.

    The tiny model reaches each command's failure paths; the reports-style
    model lets the same settings run the analyses through.
    """
    root, _ = fuzz_dir
    settings_ = INTEGER_SETTINGS[command]
    values = data.draw(st.fixed_dictionaries({}, optional={s.name: integer_values for s in settings_}))
    out = root / "integer-out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [command, "--out", str(out), "--model", str(reports_model if on_reports else root / "valid.bin")]
    if command == "tropes":
        argv += ["--target", REPORTS_TARGET if on_reports else "a"]  # a word of the model
    if via_config:
        config: dict = {}
        for s in settings_:
            if s.name in values:
                section, leaf = s.key.split(".")
                config.setdefault(section, {})[leaf] = values[s.name]
        path = root / "integer-config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    else:
        for s in settings_:
            if s.name in values:
                argv += [s.option, str(values[s.name])]
    rc = cli.main(argv)
    assert rc in (0, 1, 2)
    assert rc == 0 or not out.exists()
