"""Fuzzed input boundaries: damaged model files and arbitrary corpus records.

Every damaged input must either load or fail with the library's own error
type, and the CLI must exit 0 or 2 for it, never with a traceback.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from verseshift import cli, corpus, trainer

from conftest import TINY_DIM_FIELD, write_tiny_model

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


@MODEL_FUZZ
@given(field=st.sampled_from([0, 1, 2]), value=st.integers(min_value=0, max_value=2**32 - 1))
def test_inflated_header_field(fuzz_dir, field, value):
    root, valid = fuzz_dir
    offset = TINY_DIM_FIELD + 4 * field  # dim, word count, slot count
    data = bytearray(valid)
    data[offset : offset + 4] = struct.pack("<I", value)
    check_model_bytes(root, bytes(data))


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
