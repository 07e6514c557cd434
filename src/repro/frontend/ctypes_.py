"""C type system shared by the front end, the IL, and the simulator.

The paper (section 4) notes that the type system is part of the code shared
between the C and Fortran environments.  We model a C89-flavoured type
lattice: void, integer kinds, floating kinds, pointers, arrays, functions,
and structs, with ``const``/``volatile`` qualifiers carried on the type.

``volatile`` is load-bearing for the whole compiler (section 1, problem 6):
every optimization pass consults :meth:`CType.is_volatile` before touching
a memory reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple


class TypeError_(Exception):
    """Raised on C type-checking failures (name avoids builtin clash)."""


# Integer kind metadata: (size in bytes, signed).  The Titan is a 32-bit
# word machine; ``long`` is 4 bytes as on the real hardware.
_INT_KINDS = {
    "char": (1, True),
    "signed char": (1, True),
    "unsigned char": (1, False),
    "short": (2, True),
    "unsigned short": (2, False),
    "int": (4, True),
    "unsigned int": (4, False),
    "long": (4, True),
    "unsigned long": (4, False),
}

_FLOAT_KINDS = {
    "float": 4,
    "double": 8,
    "long double": 8,
}


@dataclass(frozen=True)
class CType:
    """Base class for all C types.  Instances are immutable and hashable."""

    const: bool = False
    volatile: bool = False

    @property
    def is_volatile(self) -> bool:
        return self.volatile

    #: What kind of type this is: class constants each subclass sets
    #: (``is_scalar``: arithmetic or pointer, in the C sense).
    is_arithmetic = is_integer = is_float = is_pointer = False
    is_array = is_void = is_scalar = False

    def sizeof(self) -> int:
        raise TypeError_(f"sizeof applied to incomplete type {self}")

    def unqualified(self) -> "CType":
        """The same type with const/volatile stripped: always a new
        object, copied without ``dataclasses.replace``'s keyword
        plumbing and validation (and without materializing either
        instance's ``__dict__``).  Never ``self``: a catalog pickle
        records which IL nodes share one type object, so sharing would
        change its bytes."""
        twin = object.__new__(type(self))
        for name in self.__dataclass_fields__:
            object.__setattr__(twin, name, getattr(self, name))
        object.__setattr__(twin, "const", False)
        object.__setattr__(twin, "volatile", False)
        return twin

    def qualified(self, const: bool = False, volatile: bool = False) -> "CType":
        return replace(self, const=self.const or const,
                       volatile=self.volatile or volatile)

    def compatible(self, other: "CType") -> bool:
        """Loose compatibility ignoring qualifiers (assignment contexts)."""
        if self.const == other.const and self.volatile == other.volatile:
            return self == other
        return self.unqualified() == other.unqualified()


@dataclass(frozen=True)
class VoidType(CType):
    is_void = True

    def __str__(self) -> str:
        return _quals(self) + "void"


@dataclass(frozen=True)
class IntType(CType):
    kind: str = "int"
    is_arithmetic = is_integer = is_scalar = True

    def __post_init__(self):
        if self.kind not in _INT_KINDS:
            raise TypeError_(f"unknown integer kind {self.kind!r}")

    def sizeof(self) -> int:
        return _INT_KINDS[self.kind][0]

    @property
    def signed(self) -> bool:
        return _INT_KINDS[self.kind][1]

    def min_value(self) -> int:
        bits = self.sizeof() * 8
        return -(1 << (bits - 1)) if self.signed else 0

    def max_value(self) -> int:
        bits = self.sizeof() * 8
        return (1 << (bits - 1)) - 1 if self.signed else (1 << bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap a Python int into this type's representable range."""
        bits = self.sizeof() * 8
        value &= (1 << bits) - 1
        if self.signed and value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value

    def __str__(self) -> str:
        return _quals(self) + self.kind


@dataclass(frozen=True)
class FloatType(CType):
    kind: str = "double"
    is_arithmetic = is_float = is_scalar = True

    def __post_init__(self):
        if self.kind not in _FLOAT_KINDS:
            raise TypeError_(f"unknown float kind {self.kind!r}")

    def sizeof(self) -> int:
        return _FLOAT_KINDS[self.kind]

    def __str__(self) -> str:
        return _quals(self) + self.kind


@dataclass(frozen=True)
class PointerType(CType):
    base: CType = field(default_factory=VoidType)
    is_pointer = is_scalar = True

    def sizeof(self) -> int:
        return 4  # 32-bit Titan addresses

    def __str__(self) -> str:
        return f"{self.base} *" + ("const " if self.const else "") + (
            "volatile " if self.volatile else "")


@dataclass(frozen=True)
class ArrayType(CType):
    base: CType = field(default_factory=lambda: IntType(kind="int"))
    length: Optional[int] = None  # None: incomplete (e.g. param decay)
    is_array = True

    def sizeof(self) -> int:
        if self.length is None:
            raise TypeError_("sizeof applied to incomplete array type")
        return self.base.sizeof() * self.length

    def decay(self) -> PointerType:
        """Array-to-pointer decay in rvalue contexts."""
        return PointerType(base=self.base)

    def element(self) -> CType:
        return self.base

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.base} [{n}]"


@dataclass(frozen=True)
class StructField:
    name: str
    ctype: CType
    offset: int


@dataclass(frozen=True)
class StructType(CType):
    """Struct (or union, when ``is_union``).

    Fields are laid out with natural alignment; graphics code with arrays
    embedded in structures (section 10) relies on the offsets being real.
    """

    tag: str = ""
    fields: Tuple[StructField, ...] = ()
    is_union: bool = False
    complete: bool = True

    def sizeof(self) -> int:
        if not self.complete:
            raise TypeError_(f"sizeof applied to incomplete struct {self.tag}")
        if self.is_union:
            size = max((f.ctype.sizeof() for f in self.fields), default=0)
        elif self.fields:
            last = self.fields[-1]
            size = last.offset + last.ctype.sizeof()
        else:
            size = 0
        align = self.alignment()
        return _round_up(max(size, 1), align)

    def alignment(self) -> int:
        return max((_align_of(f.ctype) for f in self.fields), default=1)

    def field_named(self, name: str) -> StructField:
        for f in self.fields:
            if f.name == name:
                return f
        raise TypeError_(f"struct {self.tag!r} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def __str__(self) -> str:
        kw = "union" if self.is_union else "struct"
        return _quals(self) + f"{kw} {self.tag}"


@dataclass(frozen=True)
class FunctionType(CType):
    ret: CType = field(default_factory=VoidType)
    params: Tuple[CType, ...] = ()
    varargs: bool = False
    # Old-style (no prototype) declarations don't constrain arguments.
    prototyped: bool = True

    def sizeof(self) -> int:
        raise TypeError_("sizeof applied to function type")

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        if self.varargs:
            ps += ", ..." if ps else "..."
        return f"{self.ret} ({ps})"


def _quals(t: CType) -> str:
    out = ""
    if t.const:
        out += "const "
    if t.volatile:
        out += "volatile "
    return out


def _align_of(t: CType) -> int:
    if isinstance(t, ArrayType):
        return _align_of(t.base)
    if isinstance(t, StructType):
        return t.alignment()
    try:
        return min(t.sizeof(), 8)
    except TypeError_:
        return 4


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


def layout_struct(tag: str, members: Sequence[Tuple[str, CType]],
                  is_union: bool = False) -> StructType:
    """Compute natural-alignment field offsets and build a StructType."""
    fields = []
    offset = 0
    for name, ctype in members:
        if is_union:
            fields.append(StructField(name, ctype, 0))
            continue
        align = _align_of(ctype)
        offset = _round_up(offset, align)
        fields.append(StructField(name, ctype, offset))
        offset += ctype.sizeof()
    return StructType(tag=tag, fields=tuple(fields), is_union=is_union)


# Canonical unqualified instances used throughout the compiler.
VOID = VoidType()
CHAR = IntType(kind="char")
UCHAR = IntType(kind="unsigned char")
SHORT = IntType(kind="short")
USHORT = IntType(kind="unsigned short")
INT = IntType(kind="int")
UINT = IntType(kind="unsigned int")
LONG = IntType(kind="long")
ULONG = IntType(kind="unsigned long")
FLOAT = FloatType(kind="float")
DOUBLE = FloatType(kind="double")

_INT_RANK = {"char": 1, "signed char": 1, "unsigned char": 1,
             "short": 2, "unsigned short": 2,
             "int": 3, "unsigned int": 3,
             "long": 4, "unsigned long": 4}


def integer_promote(t: CType) -> CType:
    """C integral promotion: sub-int integer types promote to int."""
    if isinstance(t, IntType) and _INT_RANK[t.kind] < _INT_RANK["int"]:
        return INT
    return t.unqualified() if isinstance(t, IntType) else t


def usual_arithmetic_conversion(a: CType, b: CType) -> CType:
    """The usual arithmetic conversions for a binary operator."""
    if not (a.is_arithmetic and b.is_arithmetic):
        raise TypeError_(f"arithmetic conversion on {a} and {b}")
    if a.is_float or b.is_float:
        kinds = {t.kind for t in (a, b) if isinstance(t, FloatType)}
        if "long double" in kinds:
            return FloatType(kind="long double")
        if "double" in kinds:
            return DOUBLE
        return FLOAT
    a2, b2 = integer_promote(a), integer_promote(b)
    assert isinstance(a2, IntType) and isinstance(b2, IntType)
    if a2 == b2:
        return a2
    ra, rb = _INT_RANK[a2.kind], _INT_RANK[b2.kind]
    if ra == rb:
        # Same rank, one unsigned: unsigned wins.
        return a2 if not a2.signed else b2
    hi = a2 if ra > rb else b2
    return hi


def decay(t: CType) -> CType:
    """Array-to-pointer and function-to-pointer decay for rvalue use."""
    if isinstance(t, ArrayType):
        return PointerType(base=t.base)
    if isinstance(t, FunctionType):
        return PointerType(base=t)
    return t


def pointer_target_size(t: CType) -> int:
    """The scaling factor for pointer arithmetic through ``t``."""
    if isinstance(t, PointerType):
        if t.base.is_void:
            return 1
        return t.base.sizeof()
    if isinstance(t, ArrayType):
        return t.base.sizeof()
    raise TypeError_(f"pointer arithmetic on non-pointer type {t}")
