"""Little-endian binary files of consecutive fixed-dtype blocks: the model file and the corpus cache.

A file starts with a magic and a ``<u4`` version, which :func:`replacing`
writes and :class:`BlockReader` checks, and is then read block by block, each
block a read-only numpy view of one mapping of the whole file, so reading
copies nothing. Writers go through :func:`replacing`, so a reader that has a
file mapped never sees it truncated.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os

import numpy as np


class BlockReader:
    """A file mapped read-only and read front to back as fixed-dtype blocks.

    Every failure raises ``error(message)``; the message names the file and
    ``what`` it should be.
    """

    def __init__(self, path, what: str, magic: bytes, version: int, error) -> None:
        self.path, self.what, self.error = path, what, error
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise error(f"cannot read {what} {path}: {exc}") from exc
        with fh:
            self.size = os.fstat(fh.fileno()).st_size
            try:
                self.buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if self.size else b""
            except (OSError, ValueError) as exc:
                raise error(f"cannot map {what} {path}: {exc}") from exc
        if len(self.buf) != self.size:
            raise error(f"{what} {path} changed while it was opened")
        if self.buf[: len(magic)] != magic:
            raise error(f"{path} is not a {what} (bad magic)")
        self.bytes = np.frombuffer(self.buf, dtype="u1")  # the whole file, for offsets of views
        self.offset = len(magic)  # where the next block starts
        (found,) = self.block("<u4", (1,)).tolist()
        if found != version:
            raise error(f"unsupported {what} version {found} in {path}")

    def end(self) -> None:
        """Require the blocks read so far to fill the file exactly."""
        if self.offset != self.size:
            raise self.error(f"{self.path} is {self.size} bytes, its header says {self.offset}")

    def block(self, dtype: str, shape: tuple) -> np.ndarray:
        count = math.prod(shape)
        end = self.offset + count * np.dtype(dtype).itemsize
        if end > self.size:
            raise self.error(f"truncated {self.what} {self.path}")
        out = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.offset).reshape(shape)
        self.offset = end
        return out

    def release(self, view: np.ndarray) -> None:
        """Drop the pages under ``view``, a contiguous view of this mapping, from the process.

        They stay in the page cache, and reading them again maps them again
        from the file; so do bytes of neighbouring blocks on the same pages.
        """
        start = view.ctypes.data - self.bytes.ctypes.data
        page = start - start % mmap.PAGESIZE
        self.buf.madvise(mmap.MADV_DONTNEED, page, start + view.nbytes - page)

    def strings(self, raw: np.ndarray, lengths: np.ndarray, noun: str) -> list[str]:
        """The ``u1`` block ``raw`` decoded as UTF-8 strings of the given byte ``lengths``."""
        buf, pos = raw.data, 0  # pos: where the next string starts
        try:
            return [str(buf[pos : (pos := pos + n)], "utf-8") for n in lengths.tolist()]
        except UnicodeDecodeError as exc:  # pos is already the end of the failing string
            i = int(np.searchsorted(np.cumsum(lengths), pos))
            raise self.error(f"{noun} {i} in {self.path} is not valid UTF-8") from exc


@contextlib.contextmanager
def replacing(path, magic: bytes, version: int):
    """Write the caller's blocks to a temporary file next to ``path``, then rename it over ``path``.

    The file starts with ``magic`` and the ``<u4`` ``version``, as
    :class:`BlockReader` reads them. A process that has the old file mapped
    keeps reading the old bytes, and a failed write leaves the old file as
    it was and no temporary behind.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(np.array([version], dtype="<u4"))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
