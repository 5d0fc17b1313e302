"""Storage engine: pages, files, indexes, buffer pool and the disk model."""

from repro.storage.accounting import IOContext
from repro.storage.btree import BTreeIndex
from repro.storage.buffer import BufferPool
from repro.storage.clustered import ClusteredFile
from repro.storage.disk import DiskParameters
from repro.storage.heap import DataFile, HeapFile
from repro.storage.page import (
    PAGE_SIZE_BYTES,
    USABLE_PAGE_BYTES,
    Page,
    rows_per_page,
)
from repro.storage.table import Table

__all__ = [
    "BTreeIndex",
    "BufferPool",
    "ClusteredFile",
    "DataFile",
    "DiskParameters",
    "HeapFile",
    "IOContext",
    "PAGE_SIZE_BYTES",
    "Page",
    "Table",
    "USABLE_PAGE_BYTES",
    "rows_per_page",
]
