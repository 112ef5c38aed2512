"""The MPI datatype engine (the ADI's "datatype management" box, Fig. 1).

Datatypes describe memory layouts over numpy buffers.  A derived type
compiles to a flat array of *byte offsets* of its basic elements; packing
gathers those offsets into a contiguous buffer, unpacking scatters them
back.  The offsets representation makes pack/unpack a single vectorized
numpy take/put and makes type signatures (the sequence of basic types)
directly comparable for send/receive matching.

Supported constructors mirror MPI-1: contiguous, vector, hvector,
indexed, and struct.  All types must be committed before use in
communication, as in MPI.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import MPIDatatypeError


class Datatype:
    """Base class; concrete layouts are built via the module constructors."""

    def __init__(self, name: str, base_dtype: np.dtype | None,
                 byte_offsets: np.ndarray, extent: int):
        self.name = name
        #: numpy scalar dtype of basic elements (None for heterogeneous
        #: struct types, which pack per-field).
        self.base_dtype = base_dtype
        #: Byte offsets (within one extent) of each basic element.
        self.byte_offsets = np.asarray(byte_offsets, dtype=np.int64)
        #: Span of one type instance in bytes (stride between count items).
        self.extent = int(extent)
        self.committed = False

    # -- introspection --------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes of actual data in one instance (excludes holes)."""
        if self.base_dtype is None:
            raise NotImplementedError  # pragma: no cover - struct overrides
        return int(self.byte_offsets.size * self.base_dtype.itemsize)

    @property
    def is_contiguous(self) -> bool:
        """True when one instance is a dense byte run starting at offset 0."""
        if self.base_dtype is None:
            return False
        item = self.base_dtype.itemsize
        if self.byte_offsets.size == 0:
            return True
        expected = np.arange(self.byte_offsets.size, dtype=np.int64) * item
        return (self.size == self.extent
                and bool(np.array_equal(self.byte_offsets, expected)))

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> "Datatype":
        """Mark the type ready for communication (returns self)."""
        self.committed = True
        return self

    def _require_committed(self) -> None:
        if not self.committed:
            raise MPIDatatypeError(f"datatype {self.name} is not committed")

    # -- pack / unpack ------------------------------------------------------------

    def _element_indices(self, count: int) -> np.ndarray:
        """Flat element indices (in base elements) for ``count`` instances."""
        item = self.base_dtype.itemsize
        rem = self.byte_offsets % item
        if np.any(rem):
            raise MPIDatatypeError(
                f"datatype {self.name}: offsets not aligned to {self.base_dtype}"
            )
        per_instance = self.byte_offsets // item
        if self.extent % item:
            raise MPIDatatypeError(
                f"datatype {self.name}: extent {self.extent} not aligned"
            )
        stride = self.extent // item
        starts = np.arange(count, dtype=np.int64) * stride
        return (starts[:, None] + per_instance[None, :]).ravel()

    def pack(self, buffer: np.ndarray, count: int = 1) -> np.ndarray:
        """Gather ``count`` instances from ``buffer`` into a dense array.

        ``buffer`` must be a 1-D array of :attr:`base_dtype` long enough
        to cover ``count`` extents.
        """
        self._require_committed()
        buf = self._as_flat(buffer)
        idx = self._element_indices(count)
        if idx.size and idx.max() >= buf.size:
            raise MPIDatatypeError(
                f"buffer too small: needs {idx.max() + 1} elements, has {buf.size}"
            )
        return buf[idx].copy()

    def unpack(self, packed: np.ndarray, buffer: np.ndarray, count: int = 1) -> None:
        """Scatter a dense array produced by :meth:`pack` into ``buffer``."""
        self._require_committed()
        buf = self._as_flat(buffer)
        idx = self._element_indices(count)
        data = np.asarray(packed, dtype=self.base_dtype).ravel()
        if data.size != idx.size:
            raise MPIDatatypeError(
                f"packed data has {data.size} elements, layout expects {idx.size}"
            )
        if idx.size and idx.max() >= buf.size:
            raise MPIDatatypeError(
                f"buffer too small: needs {idx.max() + 1} elements, has {buf.size}"
            )
        buf[idx] = data

    def _as_flat(self, buffer: np.ndarray) -> np.ndarray:
        arr = np.asarray(buffer)
        if arr.dtype != self.base_dtype:
            raise MPIDatatypeError(
                f"buffer dtype {arr.dtype} != datatype base {self.base_dtype}"
            )
        return arr.reshape(-1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Datatype {self.name} size={self.size} extent={self.extent}>"


class BasicDatatype(Datatype):
    """A predefined scalar type (committed at construction)."""

    def __init__(self, name: str, np_dtype: str):
        dtype = np.dtype(np_dtype)
        super().__init__(name, dtype, np.array([0], dtype=np.int64),
                         extent=dtype.itemsize)
        self.committed = True


BYTE = BasicDatatype("MPI_BYTE", "uint8")
CHAR = BasicDatatype("MPI_CHAR", "int8")
SHORT = BasicDatatype("MPI_SHORT", "int16")
INT = BasicDatatype("MPI_INT", "int32")
LONG = BasicDatatype("MPI_LONG", "int64")
FLOAT = BasicDatatype("MPI_FLOAT", "float32")
DOUBLE = BasicDatatype("MPI_DOUBLE", "float64")
COMPLEX = BasicDatatype("MPI_COMPLEX", "complex64")
DOUBLE_COMPLEX = BasicDatatype("MPI_DOUBLE_COMPLEX", "complex128")

BASIC_TYPES = {
    t.name: t
    for t in (BYTE, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE, COMPLEX,
              DOUBLE_COMPLEX)
}


def _require_basic_or_derived(base: Datatype) -> None:
    if not isinstance(base, Datatype):
        raise MPIDatatypeError(f"expected a Datatype, got {type(base).__name__}")
    if base.base_dtype is None:
        raise MPIDatatypeError(
            "struct types cannot be nested inside other constructors "
            "in this implementation"
        )


def contiguous(count: int, base: Datatype, name: str | None = None) -> Datatype:
    """``count`` consecutive instances of ``base`` (MPI_Type_contiguous)."""
    _require_basic_or_derived(base)
    if count < 0:
        raise MPIDatatypeError("count must be >= 0")
    offsets = (np.arange(count, dtype=np.int64)[:, None] * base.extent
               + base.byte_offsets[None, :]).ravel()
    return Datatype(name or f"contig({count},{base.name})", base.base_dtype,
                    offsets, extent=count * base.extent)


def vector(count: int, blocklength: int, stride: int, base: Datatype,
           name: str | None = None) -> Datatype:
    """``count`` blocks of ``blocklength`` elements, strided by ``stride``
    elements (MPI_Type_vector)."""
    return hvector(count, blocklength, stride * base.extent, base,
                   name=name or f"vector({count},{blocklength},{stride},{base.name})")


def hvector(count: int, blocklength: int, stride_bytes: int, base: Datatype,
            name: str | None = None) -> Datatype:
    """Like :func:`vector` but the stride is given in bytes."""
    _require_basic_or_derived(base)
    if count < 0 or blocklength < 0:
        raise MPIDatatypeError("count and blocklength must be >= 0")
    block = (np.arange(blocklength, dtype=np.int64)[:, None] * base.extent
             + base.byte_offsets[None, :]).ravel()
    offsets = (np.arange(count, dtype=np.int64)[:, None] * stride_bytes
               + block[None, :]).ravel()
    extent = (count - 1) * stride_bytes + blocklength * base.extent if count else 0
    return Datatype(name or f"hvector({count},{blocklength},{stride_bytes},{base.name})",
                    base.base_dtype, offsets, extent=max(extent, 0))


def indexed(blocklengths: Sequence[int], displacements: Sequence[int],
            base: Datatype, name: str | None = None) -> Datatype:
    """Blocks of varying length at varying element displacements
    (MPI_Type_indexed)."""
    _require_basic_or_derived(base)
    if len(blocklengths) != len(displacements):
        raise MPIDatatypeError("blocklengths and displacements differ in length")
    chunks = []
    top = 0
    for length, disp in zip(blocklengths, displacements):
        if length < 0:
            raise MPIDatatypeError("negative blocklength")
        start = disp * base.extent
        block = (np.arange(length, dtype=np.int64)[:, None] * base.extent
                 + base.byte_offsets[None, :] + start).ravel()
        chunks.append(block)
        top = max(top, start + length * base.extent)
    offsets = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return Datatype(name or f"indexed({len(blocklengths)},{base.name})",
                    base.base_dtype, offsets, extent=top)


class StructDatatype(Datatype):
    """Heterogeneous struct: per-field (offset, count, basic type).

    Packing a struct operates on a raw ``uint8`` buffer; each field is
    gathered with its own dtype view.  This mirrors MPI_Type_struct over
    a byte-addressable region.
    """

    def __init__(self, fields: Sequence[tuple[int, int, BasicDatatype]],
                 extent: int | None = None, name: str | None = None):
        self.fields = tuple(fields)
        for offset, count, ftype in self.fields:
            if offset < 0 or count < 0:
                raise MPIDatatypeError("negative field offset or count")
            if not isinstance(ftype, BasicDatatype):
                raise MPIDatatypeError("struct fields must use basic types")
        span = max((o + c * t.extent for o, c, t in self.fields), default=0)
        super().__init__(name or f"struct({len(self.fields)} fields)", None,
                         np.empty(0, dtype=np.int64),
                         extent=extent if extent is not None else span)

    @property
    def size(self) -> int:
        return sum(c * t.extent for _, c, t in self.fields)

    def signature(self) -> tuple:
        return tuple((t.name, c) for _, c, t in self.fields)

    def pack(self, buffer: np.ndarray, count: int = 1) -> np.ndarray:
        self._require_committed()
        raw = self._as_bytes(buffer)
        out = np.empty(self.size * count, dtype=np.uint8)
        cursor = 0
        for instance in range(count):
            base = instance * self.extent
            for offset, n, ftype in self.fields:
                nbytes = n * ftype.extent
                start = base + offset
                out[cursor:cursor + nbytes] = raw[start:start + nbytes]
                cursor += nbytes
        return out

    def unpack(self, packed: np.ndarray, buffer: np.ndarray, count: int = 1) -> None:
        self._require_committed()
        raw = self._as_bytes(buffer)
        data = np.asarray(packed, dtype=np.uint8).ravel()
        if data.size != self.size * count:
            raise MPIDatatypeError(
                f"packed struct data has {data.size} bytes, expected "
                f"{self.size * count}"
            )
        cursor = 0
        for instance in range(count):
            base = instance * self.extent
            for offset, n, ftype in self.fields:
                nbytes = n * ftype.extent
                start = base + offset
                raw[start:start + nbytes] = data[cursor:cursor + nbytes]
                cursor += nbytes

    @staticmethod
    def _as_bytes(buffer: np.ndarray) -> np.ndarray:
        arr = np.asarray(buffer)
        if arr.dtype != np.uint8:
            raise MPIDatatypeError("struct pack/unpack requires a uint8 buffer")
        return arr.reshape(-1)


def struct(fields: Sequence[tuple[int, int, BasicDatatype]],
           extent: int | None = None, name: str | None = None) -> StructDatatype:
    """Build an MPI_Type_struct-like heterogeneous layout."""
    return StructDatatype(fields, extent=extent, name=name)


def dup(base: Datatype, name: str | None = None) -> Datatype:
    """An independent, uncommitted copy of a type (MPI_Type_dup)."""
    if isinstance(base, StructDatatype):
        copy = StructDatatype(base.fields, extent=base.extent,
                              name=name or f"dup({base.name})")
    else:
        copy = Datatype(name or f"dup({base.name})", base.base_dtype,
                        base.byte_offsets.copy(), base.extent)
    return copy


def create_resized(base: Datatype, lb: int, extent: int,
                   name: str | None = None) -> Datatype:
    """Change a type's lower bound and extent (MPI_Type_create_resized).

    ``lb`` shifts where each instance is considered to start; ``extent``
    sets the stride between consecutive instances.  The shifted layout
    must not produce negative element offsets.
    """
    _require_basic_or_derived(base)
    if extent <= 0:
        raise MPIDatatypeError("resized extent must be positive")
    shifted = base.byte_offsets - lb
    if shifted.size and shifted.min() < 0:
        raise MPIDatatypeError(
            f"lower bound {lb} puts elements before the instance start"
        )
    return Datatype(name or f"resized({base.name},lb={lb},extent={extent})",
                    base.base_dtype, shifted, extent)
