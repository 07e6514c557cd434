"""Byte-addressable memory for the IL interpreter and Titan simulator.

The Titan is a 32-bit shared-memory machine; we model memory as a flat
byte array with typed little-endian accessors.  Pointers in the IL are
plain integer byte addresses into this array, so pointer arithmetic,
aliasing, and out-of-bounds behaviour are all observable — the whole
point of vectorizing *C* is that this is the memory model programs
actually use (section 1).
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Optional, Union

from ..frontend.ctypes_ import (F32_OVERFLOW, ArrayType, CType, FloatType,
                                IntType, PointerType, StructType)
from ..frontend.symtab import Symbol


class MemoryError_(Exception):
    """Out-of-range or misaligned access (name avoids builtin clash)."""


_INT_FORMATS = {
    (1, True): "<b", (1, False): "<B",
    (2, True): "<h", (2, False): "<H",
    (4, True): "<i", (4, False): "<I",
    (8, True): "<q", (8, False): "<Q",
}


class Memory:
    """Flat byte-addressable memory with a bump allocator.

    Address 0 is reserved (NULL); allocation starts at 16 so null-pointer
    dereferences fault.
    """

    def __init__(self, size: int = 1 << 22):
        self.data = bytearray(size)
        self._brk = 16
        self._heap_brk = size  # malloc grows downward from the top
        self.base_of: Dict[Symbol, int] = {}

    # -- allocation --------------------------------------------------------

    def allocate(self, size: int, align: int = 8) -> int:
        self._brk = (self._brk + align - 1) // align * align
        addr = self._brk
        self._brk += max(size, 1)
        if self._brk > self._heap_brk:
            raise MemoryError_(
                f"out of simulated memory ({self._brk} bytes requested)")
        return addr

    def allocate_heap(self, size: int, align: int = 8) -> int:
        """malloc-style allocation from the top of memory (so the
        stack mark/release below cannot reclaim it)."""
        self._heap_brk = (self._heap_brk - max(size, 1)) // align * align
        if self._heap_brk <= self._brk:
            raise MemoryError_("simulated heap exhausted")
        return self._heap_brk

    def mark(self) -> int:
        """Stack discipline: remember the allocation point..."""
        return self._brk

    def release(self, mark: int) -> None:
        """...and pop frame storage allocated since ``mark``."""
        self._brk = mark
        for sym in [s for s, a in self.base_of.items() if a >= mark]:
            del self.base_of[sym]

    def allocate_symbol(self, sym: Symbol) -> int:
        """Allocate backing store for a symbol and remember its base."""
        if sym in self.base_of:
            return self.base_of[sym]
        ctype = sym.ctype
        size = _storage_size(ctype)
        addr = self.allocate(size)
        self.base_of[sym] = addr
        return addr

    def address_of(self, sym: Symbol) -> int:
        if sym not in self.base_of:
            raise MemoryError_(f"symbol {sym.name} has no storage")
        return self.base_of[sym]

    def has_storage(self, sym: Symbol) -> bool:
        return sym in self.base_of

    # -- typed access --------------------------------------------------------

    def load(self, addr: int, ctype: CType) -> Union[int, float]:
        self._check(addr, _access_size(ctype))
        if isinstance(ctype, FloatType):
            fmt = "<f" if ctype.sizeof() == 4 else "<d"
            return struct.unpack_from(fmt, self.data, addr)[0]
        if isinstance(ctype, PointerType):
            return struct.unpack_from("<I", self.data, addr)[0]
        if isinstance(ctype, IntType):
            fmt = _INT_FORMATS[(ctype.sizeof(), ctype.signed)]
            return struct.unpack_from(fmt, self.data, addr)[0]
        raise MemoryError_(f"cannot load type {ctype}")

    def store(self, addr: int, ctype: CType,
              value: Union[int, float]) -> None:
        """Store ``value`` converted to ``ctype`` (the conversion of
        ``ctypes_``: an integer wraps; a float32 rounds, and a
        magnitude at or beyond ``F32_OVERFLOW`` is stored as ±inf)."""
        self._check(addr, _access_size(ctype))
        if isinstance(ctype, FloatType):
            fmt = "<f" if ctype.sizeof() == 4 else "<d"
            value = float(value)
            if fmt == "<f" and abs(value) >= F32_OVERFLOW:
                value = math.copysign(math.inf, value)
            struct.pack_into(fmt, self.data, addr, value)
            return
        if isinstance(ctype, PointerType):
            struct.pack_into("<I", self.data, addr,
                             int(value) & 0xFFFFFFFF)
            return
        if isinstance(ctype, IntType):
            fmt = _INT_FORMATS[(ctype.sizeof(), ctype.signed)]
            struct.pack_into(fmt, self.data, addr, ctype.wrap(int(value)))
            return
        raise MemoryError_(f"cannot store type {ctype}")

    def load_string(self, addr: int, limit: int = 1 << 16) -> str:
        out = []
        for offset in range(limit):
            byte = self.data[addr + offset]
            if byte == 0:
                break
            out.append(chr(byte))
        return "".join(out)

    def _check(self, addr: int, size: int) -> None:
        if addr < 8 or addr + size > len(self.data):
            raise MemoryError_(f"access of {size} bytes at {addr:#x} is "
                               "out of range (null deref?)")


def _storage_size(ctype: CType) -> int:
    if isinstance(ctype, ArrayType) and ctype.length is None:
        raise MemoryError_("cannot allocate incomplete array")
    return ctype.sizeof()


def _access_size(ctype: CType) -> int:
    if isinstance(ctype, (ArrayType, StructType)):
        raise MemoryError_(f"scalar access with aggregate type {ctype}")
    return ctype.sizeof()
