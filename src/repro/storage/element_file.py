"""Node sets serialized to page files.

Layout (all little-endian):

* page 0 — header: magic ``RPRO``, version, record count, page counts of
  the two data sections, then the newline-separated tag dictionary;
* pages 1..R — records sorted by start: ``(start u64, end u64,
  level u32, tag_id u32)`` = 24 bytes, 170 per page;
* pages R+1..R+E — the end codes alone, sorted ascending (u64, 512 per
  page) — the rank section that makes disk stabbing counts two binary
  searches, mirroring the in-memory oracle.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.element import Element
from repro.core.errors import ReproError
from repro.core.nodeset import NodeSet
from repro.storage.pager import PAGE_SIZE, BufferPool, PageFile

_MAGIC = b"RPRO"
_VERSION = 1
_HEADER = struct.Struct("<4sIQII")
_RECORD = struct.Struct("<QQII")
RECORDS_PER_PAGE = PAGE_SIZE // _RECORD.size
ENDS_PER_PAGE = PAGE_SIZE // 8


def write_node_set(path: str | Path, node_set: NodeSet) -> None:
    """Serialize ``node_set`` to ``path`` (see module docstring)."""
    write_elements(path, node_set.elements)


def write_elements(path: str | Path, elements: Sequence[Element]) -> None:
    """Serialize start-sorted ``elements`` to ``path``, levels and tags
    as given (see module docstring)."""
    tags: list[str] = []
    tag_ids: dict[str, int] = {}
    for element in elements:
        if element.tag not in tag_ids:
            tag_ids[element.tag] = len(tags)
            tags.append(element.tag)
    tag_blob = "\n".join(tags).encode()
    count = len(elements)
    record_pages = -(-count // RECORDS_PER_PAGE) if count else 0
    end_pages = -(-count // ENDS_PER_PAGE) if count else 0
    header = _HEADER.pack(_MAGIC, _VERSION, count, record_pages, end_pages)
    if len(header) + len(tag_blob) > PAGE_SIZE:
        raise ReproError(
            f"tag dictionary of {len(tag_blob)} bytes does not fit the "
            "header page"
        )

    with PageFile(path, create=True) as file:
        file.write_page(0, header + tag_blob)
        for page_index in range(record_pages):
            chunk = elements[
                page_index * RECORDS_PER_PAGE : (page_index + 1)
                * RECORDS_PER_PAGE
            ]
            payload = b"".join(
                _RECORD.pack(e.start, e.end, e.level, tag_ids[e.tag])
                for e in chunk
            )
            file.write_page(1 + page_index, payload)
        sorted_ends = np.sort(
            np.fromiter((e.end for e in elements), np.int64, count)
        )
        for page_index in range(end_pages):
            chunk = sorted_ends[
                page_index * ENDS_PER_PAGE : (page_index + 1) * ENDS_PER_PAGE
            ]
            payload = b"".join(
                struct.pack("<Q", int(value)) for value in chunk
            )
            file.write_page(1 + record_pages + page_index, payload)
        file.flush()


class DiskNodeSet:
    """A node set opened from a page file, probed through a buffer pool.

    Every record access goes through :attr:`pool`, so
    ``pool.stats`` reports the exact page-access cost of each operation —
    the currency of the paper's Section 5.3.1 discussion.
    """

    def __init__(self, path: str | Path, buffer_capacity: int = 64) -> None:
        self._file = PageFile(path)
        self.pool = BufferPool(self._file, capacity=buffer_capacity)
        header_page = self._file.read_page(0)
        magic, version, count, record_pages, end_pages = _HEADER.unpack(
            header_page[: _HEADER.size]
        )
        if magic != _MAGIC:
            raise ReproError(f"{path} is not an element file")
        if version != _VERSION:
            raise ReproError(f"unsupported element-file version {version}")
        self._count = count
        self._record_pages = record_pages
        self._end_section_start = 1 + record_pages
        tag_blob = header_page[_HEADER.size :].rstrip(b"\x00")
        self.tags = tag_blob.decode().split("\n") if tag_blob else []

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def _record(self, index: int) -> tuple[int, int, int, int]:
        if not 0 <= index < self._count:
            raise ReproError(f"record index {index} out of range")
        page_no = 1 + index // RECORDS_PER_PAGE
        offset = (index % RECORDS_PER_PAGE) * _RECORD.size
        page = self.pool.get_page(page_no)
        return _RECORD.unpack_from(page, offset)

    def element(self, index: int) -> Element:
        start, end, level, tag_id = self._record(index)
        return Element(self.tags[tag_id], start, end, level)

    def start_at(self, index: int) -> int:
        return self._record(index)[0]

    def region_at(self, index: int) -> tuple[int, int]:
        """``(start, end)`` codes of record ``index``."""
        start, end, __, ___ = self._record(index)
        return (start, end)

    def sorted_end_at(self, index: int) -> int:
        if not 0 <= index < self._count:
            raise ReproError(f"end index {index} out of range")
        page_no = self._end_section_start + index // ENDS_PER_PAGE
        offset = (index % ENDS_PER_PAGE) * 8
        page = self.pool.get_page(page_no)
        return struct.unpack_from("<Q", page, offset)[0]

    def __iter__(self):
        for index in range(self._count):
            yield self.element(index)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "DiskNodeSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Probes (each costs O(log n) page-mediated record reads)
    # ------------------------------------------------------------------

    def rank_starts(self, position: int) -> int:
        """``|{i : start_i <= position}|`` by binary search on pages."""
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.start_at(mid) <= position:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def rank_ends(self, position: int) -> int:
        """``|{i : end_i < position}|`` over the sorted end section."""
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.sorted_end_at(mid) < position:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def stab_count(self, position: int) -> int:
        """Number of stored regions covering ``position``."""
        return self.rank_starts(position) - self.rank_ends(position)

    def to_node_set(self, name: str | None = None) -> NodeSet:
        """Materialize the whole file back into memory."""
        return NodeSet(list(self), name=name, validate=False)
