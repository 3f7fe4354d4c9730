from __future__ import annotations

import os

import numpy as np
import pytest

from verseshift.blockfile import BlockReader, replacing

MAGIC = b"TEST"


class FormatError(Exception):
    pass


def write_block(path, values: np.ndarray) -> None:
    with replacing(path, MAGIC, 1) as fh:
        fh.write(np.ascontiguousarray(values, dtype="<f4"))


def read_block(path, shape) -> tuple[BlockReader, np.ndarray]:
    reader = BlockReader(path, "test file", MAGIC, 1, FormatError)
    view = reader.block("<f4", shape)
    reader.end()
    return reader, view


class TestRows:
    @pytest.mark.parametrize("lo, hi", [(0, 7), (2, 5), (6, 7), (3, 3)])
    def test_rows_are_a_fresh_copy_of_the_slice(self, tmp_path, lo, hi):
        values = np.arange(21, dtype=np.float32).reshape(7, 3)
        write_block(tmp_path / "b.bin", values)
        reader, view = read_block(tmp_path / "b.bin", values.shape)
        got = reader.rows(view, lo, hi)
        assert got.dtype == view.dtype and got.flags.writeable and not np.shares_memory(got, view)
        assert np.array_equal(got, values[lo:hi])

    def test_rows_of_a_view_inside_a_block(self, tmp_path):
        values = np.arange(2 * 5 * 3, dtype=np.float32).reshape(2, 5, 3)
        write_block(tmp_path / "b.bin", values)
        reader, view = read_block(tmp_path / "b.bin", values.shape)
        assert np.array_equal(reader.rows(view[1], 1, 4), values[1, 1:4])

    def test_a_file_truncated_after_opening_raises_the_readers_error(self, tmp_path):
        path = tmp_path / "b.bin"
        write_block(path, np.ones((1000, 4)))
        reader, view = read_block(path, (1000, 4))
        os.truncate(path, 8 + 500 * 16)  # the frame and the first 500 rows
        assert np.array_equal(reader.rows(view, 0, 500), np.ones((500, 4)))
        with pytest.raises(FormatError, match=f"truncated test file {path}"):
            reader.rows(view, 499, 501)

    def test_the_descriptor_closes_with_the_reader(self, tmp_path):
        write_block(tmp_path / "b.bin", np.ones((2, 2)))
        reader, view = read_block(tmp_path / "b.bin", (2, 2))
        fd = reader.fd
        os.fstat(fd)
        del reader  # the view keeps the mapping, not the descriptor
        with pytest.raises(OSError):
            os.fstat(fd)
        assert np.array_equal(view, np.ones((2, 2)))
