"""Little-endian binary files of consecutive fixed-dtype blocks: the model file and the corpus cache.

A file starts with a magic and a ``<u4`` version, which :func:`replacing`
writes and :class:`BlockReader` checks, and is then read block by block, each
block a read-only numpy view of one mapping of the whole file, so viewing
copies nothing; :meth:`BlockReader.rows` is the one way to copy rows of a
view out of the file, with positioned reads that leave the mapping untouched.
Writers go through :func:`replacing`, so a reader that has a file mapped
never sees it truncated.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import weakref

import numpy as np


class BlockReader:
    """A file mapped read-only and read front to back as fixed-dtype blocks.

    The reader keeps the descriptor it mapped the file from open for
    :meth:`rows` and closes it when the reader is collected. Every failure
    raises ``error(message)``; the message names the file and ``what`` it
    should be.
    """

    def __init__(self, path, what: str, magic: bytes, version: int, error) -> None:
        self.path, self.what, self.error = path, what, error
        try:
            self.fd = os.open(path, os.O_RDONLY)
        except OSError as exc:
            raise error(f"cannot read {what} {path}: {exc}") from exc
        weakref.finalize(self, os.close, self.fd)
        self.size = os.fstat(self.fd).st_size
        try:
            self.buf = mmap.mmap(self.fd, 0, access=mmap.ACCESS_READ) if self.size else b""
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

    def rows(self, view: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` of ``view``, a C-contiguous view of this mapping, read from the file into a fresh array.

        The bytes come through the descriptor with ``os.preadv``, so the
        mapping's pages are neither faulted in nor left resident. A file
        that ends before the rows do, as one truncated after it was opened,
        raises the reader's error.
        """
        out = np.empty((hi - lo, *view.shape[1:]), dtype=view.dtype)
        start = view.ctypes.data - self.bytes.ctypes.data + lo * view.strides[0]
        buf, done = out.reshape(-1).view(np.uint8), 0
        while done < out.nbytes:  # a read returns at most about 2 GB
            n = os.preadv(self.fd, [buf[done:]], start + done)
            if n == 0:
                raise self.error(f"truncated {self.what} {self.path}: it ends before byte {start + out.nbytes}")
            done += n
        return out

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
